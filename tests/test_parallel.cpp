#include "mmlp/util/parallel.hpp"

#include <gtest/gtest.h>

#include "mmlp/util/cancel.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/rng.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

// Global allocation counter for the zero-steady-state-allocation test:
// the bulk-dispatch path promises not to touch the heap, and this TU
// replaces operator new to prove it. Counting only — behaviour is
// unchanged (malloc/free), so every other test runs as usual.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// noinline on both sides: once either is inlined into a caller, gcc
// pairs the malloc() or free() with the matching new- or
// delete-expression and flags -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size > 0 ? size : 1)) {
    return ptr;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

[[gnu::noinline]] void operator delete(void* ptr) noexcept { std::free(ptr); }
[[gnu::noinline]] void operator delete[](void* ptr) noexcept { std::free(ptr); }
[[gnu::noinline]] void operator delete(void* ptr, std::size_t) noexcept {
  std::free(ptr);
}
[[gnu::noinline]] void operator delete[](void* ptr, std::size_t) noexcept {
  std::free(ptr);
}

namespace mmlp {
namespace {

TEST(ThreadPool, SizeReportsWorkerCount) {
  ThreadPool pool(5);
  EXPECT_EQ(pool.size(), 5u);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  // With 37 indices on 4 workers every guided chunk is one index.
  ThreadPool pool(4);
  for (const std::size_t count : {std::size_t{1000}, std::size_t{37}}) {
    std::vector<std::atomic<int>> visits(count);
    parallel_for(count, [&](std::size_t i) { visits[i].fetch_add(1); }, &pool);
    for (const auto& visit : visits) {
      EXPECT_EQ(visit.load(), 1) << "count " << count;
    }
  }
}

TEST(ParallelFor, ZeroCountIsANoop) {
  bool touched = false;
  parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, MatchesASerialLoopBitwise) {
  ThreadPool pool(4);
  std::vector<double> parallel_out(500);
  std::vector<double> serial_out(500);
  auto body = [](std::size_t i) {
    double acc = 0.0;
    for (std::size_t j = 0; j <= i % 50; ++j) {
      acc += static_cast<double>(i * j) * 1e-3;
    }
    return acc;
  };
  parallel_for(500, [&](std::size_t i) { parallel_out[i] = body(i); }, &pool);
  for (std::size_t i = 0; i < serial_out.size(); ++i) {
    serial_out[i] = body(i);
  }
  EXPECT_EQ(parallel_out, serial_out);  // bitwise identical
}

TEST(ParallelFor, NestedCallsFallBackToSerial) {
  // A nested parallel_for inside a worker must not deadlock.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  parallel_for(8, [&](std::size_t) {
    parallel_for(8, [&](std::size_t) { total.fetch_add(1); }, &pool);
  }, &pool);
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelFor, UsesGlobalPoolByDefault) {
  std::atomic<int> counter{0};
  parallel_for(64, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 64);
}

TEST(ChunkedParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  chunked_parallel_for(
      1000,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          visits[i].fetch_add(1);
        }
      },
      &pool);
  for (const auto& count : visits) {
    EXPECT_EQ(count.load(), 1);
  }
}

TEST(ChunkedParallelFor, ZeroCountNeverInvokesBody) {
  ThreadPool pool(2);
  bool touched = false;
  chunked_parallel_for(
      0, [&](std::size_t, std::size_t) { touched = true; }, &pool);
  EXPECT_FALSE(touched);
}

TEST(ChunkedParallelFor, ExceptionPropagatesWhenCountBelowWorkerCount) {
  // count < workers: every chunk is a single index and some workers stay
  // idle; the throw must still reach the caller.
  ThreadPool pool(8);
  EXPECT_THROW(chunked_parallel_for(
                   3,
                   [](std::size_t begin, std::size_t) {
                     if (begin == 1) {
                       throw std::runtime_error("small-range boom");
                     }
                   },
                   &pool),
               std::runtime_error);
  // The pool survives for subsequent work.
  std::atomic<int> counter{0};
  chunked_parallel_for(
      16,
      [&](std::size_t begin, std::size_t end) {
        counter.fetch_add(static_cast<int>(end - begin));
      },
      &pool);
  EXPECT_EQ(counter.load(), 16);
}

TEST(ChunkedParallelFor, ExceptionInLastChunkPropagates) {
  // The last chunk is the one whose range ends at count; by the time it
  // throws, every other chunk may already have drained — the rethrow
  // must not be lost to the pool going idle.
  ThreadPool pool(4);
  constexpr std::size_t kCount = 1000;
  EXPECT_THROW(chunked_parallel_for(
                   kCount,
                   [](std::size_t, std::size_t end) {
                     if (end == kCount) {
                       throw std::runtime_error("last-chunk boom");
                     }
                   },
                   &pool),
               std::runtime_error);
}

TEST(ChunkedParallelFor, ExceptionCarriesTheThrownMessage) {
  ThreadPool pool(2);
  try {
    chunked_parallel_for(
        64, [](std::size_t, std::size_t) { throw std::runtime_error("boom"); },
        &pool);
    FAIL() << "expected the body's exception to reach the caller";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "boom");
  }
}

TEST(ParallelFor, ExceptionFromBodyIsRethrownInCaller) {
  // parallel_for traps exceptions from the body and rethrows the first
  // in the caller — a CheckError inside a parallel loop (e.g. an
  // AgentContext horizon violation) stays catchable instead of
  // terminating a worker thread.
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(
                   1000,
                   [](std::size_t i) {
                     if (i == 501) {
                       throw std::runtime_error("boom");
                     }
                   },
                   &pool),
               std::runtime_error);
  // The pool survives and keeps executing work afterwards.
  std::atomic<int> counter{0};
  parallel_for(100, [&](std::size_t) { counter.fetch_add(1); }, &pool);
  EXPECT_EQ(counter.load(), 100);
}

TEST(ChunkedParallelFor, SteadyStateDispatchDoesNotAllocate) {
  // The bulk path's contract: after warm-up, a chunked_parallel_for
  // performs zero heap allocations — the body reaches workers through a
  // function-pointer trampoline over a stack-owned job descriptor, and
  // the pool's job registry is pre-reserved. A std::function per chunk
  // (the old design) would fail this immediately.
  ThreadPool pool(4);
  std::vector<double> out(4096, 0.0);
  auto run_once = [&] {
    chunked_parallel_for(
        out.size(),
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            out[i] = static_cast<double>(i) * 0.5;
          }
        },
        &pool);
  };
  for (int warmup = 0; warmup < 4; ++warmup) {
    run_once();
  }
  const std::uint64_t before = g_allocations.load();
  for (int rep = 0; rep < 16; ++rep) {
    run_once();
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u);
}

TEST(ThreadPool, SchedulerStressRandomCostsAndExceptions) {
  // N workers × randomized per-chunk costs × an exception round every
  // few iterations: first-exception propagation must hold under load,
  // the pool must survive every round, and the final correctness pass
  // must still visit each index exactly once.
  ThreadPool pool(8);
  Rng rng(271828u);
  for (int round = 0; round < 40; ++round) {
    const std::size_t count = 64 + rng.next_below(2048);
    const bool poison = round % 5 == 4;
    const std::size_t poison_index = rng.next_below(count);
    std::vector<std::atomic<int>> visits(count);
    auto body = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        // Unbalanced chunk cost: some indices spin, some are free.
        if (i % 97 == 0) {
          volatile double sink = 0.0;
          for (int spin = 0; spin < 2000; ++spin) {
            sink = sink + static_cast<double>(spin) * 1e-9;
          }
        }
        if (poison && i == poison_index) {
          throw std::runtime_error("stress boom");
        }
        visits[i].fetch_add(1);
      }
    };
    if (poison) {
      EXPECT_THROW(chunked_parallel_for(count, body, &pool),
                   std::runtime_error);
    } else {
      chunked_parallel_for(count, body, &pool);
      for (const auto& visit : visits) {
        EXPECT_EQ(visit.load(), 1);
      }
    }
  }
}

TEST(ThreadPool, WorkerStatsAreMonotoneAndCountWork) {
  ThreadPool pool(4);
  const auto snapshot_totals = [&] {
    ThreadPool::WorkerStats totals;
    for (const ThreadPool::WorkerStats& w : pool.worker_stats()) {
      totals.busy_ns += w.busy_ns;
      totals.idle_ns += w.idle_ns;
      totals.chunks += w.chunks;
      totals.steals += w.steals;
    }
    return totals;
  };
  const std::thread::id caller = std::this_thread::get_id();
  ThreadPool::WorkerStats previous = snapshot_totals();
  for (int round = 0; round < 5; ++round) {
    // The caller's chunks wait until a worker has run one, so every
    // round puts work on the workers' counters (the caller's own
    // chunks are not counted).
    std::atomic<bool> helped{false};
    chunked_parallel_for(
        4096,
        [&](std::size_t begin, std::size_t end) {
          if (std::this_thread::get_id() != caller) {
            helped.store(true);
          }
          while (!helped.load()) {
            std::this_thread::yield();
          }
          volatile double sink = 0.0;
          for (std::size_t i = begin; i < end; ++i) {
            sink = sink + static_cast<double>(i);
          }
        },
        &pool);
    const ThreadPool::WorkerStats current = snapshot_totals();
    EXPECT_GE(current.busy_ns, previous.busy_ns);
    EXPECT_GE(current.idle_ns, previous.idle_ns);
    EXPECT_GT(current.chunks, previous.chunks);
    EXPECT_EQ(current.steals, 0u);
    previous = current;
  }
  EXPECT_GT(previous.busy_ns, 0u);
}

TEST(ThreadPool, OutOfRangeThreadsEnvFallsBackToHardware) {
  // strtol clamps an out-of-range MMLP_THREADS to LONG_MAX; the pool
  // must treat that like any malformed value, not try to start LONG_MAX
  // workers.
  const char* previous = std::getenv("MMLP_THREADS");
  const std::optional<std::string> saved =
      previous != nullptr ? std::optional<std::string>(previous)
                          : std::nullopt;
  ASSERT_EQ(::setenv("MMLP_THREADS", "99999999999999999999", 1), 0);
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  {
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), hardware);
  }
  if (saved.has_value()) {
    ::setenv("MMLP_THREADS", saved->c_str(), 1);
  } else {
    ::unsetenv("MMLP_THREADS");
  }
}

TEST(ParallelFor, CancelStopsThePerIndexLoopWithinOnePoll) {
  // The body cancels the installed token at index 10. Every pool size
  // must surface CancelledError; a one-worker pool runs the loop as one
  // whole-range chunk, so it must still stop within one 256-index poll.
  constexpr std::size_t kCount = 100000;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    CancelToken token;
    cancel::CancelScope scope(&token);
    std::atomic<std::size_t> visited{0};
    EXPECT_THROW(parallel_for(
                     kCount,
                     [&](std::size_t i) {
                       visited.fetch_add(1);
                       if (i == 10) {
                         token.cancel();
                       }
                     },
                     &pool),
                 CancelledError)
        << threads << " worker(s)";
    if (threads == 1) {
      EXPECT_LT(visited.load(), 10u + 256u);
    }
  }
}

TEST(GlobalThreadCount, ReconfigureAfterCreationOnlyAcceptsSameSize) {
  // The global pool exists by now (earlier tests used it), so the only
  // legal set_global_thread_count calls are the ones matching its size;
  // anything else must fail loudly instead of silently keeping the old
  // pool.
  const std::size_t current = ThreadPool::global().size();
  EXPECT_NO_THROW(set_global_thread_count(current));
  EXPECT_THROW(set_global_thread_count(current + 7), CheckError);
}

}  // namespace
}  // namespace mmlp
