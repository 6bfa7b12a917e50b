// Shared-memory parallel execution substrate.
//
// The LOCAL-model flood rounds and the per-agent algorithm loops are
// embarrassingly parallel over agents; this module provides a worker
// pool and a deterministic parallel_for built on it. Loop bodies write
// only to their own output slots (message-passing discipline — no
// shared mutable state between iterations), so parallel execution is
// bitwise reproducible regardless of the thread count.
//
// Scheduler design — one scheduler, the bulk path:
//
//   * run_bulk (what chunked_parallel_for compiles to, and parallel_for
//     through it) — a BulkJob descriptor lives on the caller's stack:
//     an atomic cursor over [0, count), a trampoline function pointer
//     and a context pointer. The caller registers the job (one mutex
//     acquisition), wakes the workers, and then claims and executes
//     chunks itself alongside them; every executor claims disjoint
//     [begin, end) ranges via compare-and-swap on the cursor. There is
//     no per-chunk allocation, no per-chunk lock, and no per-chunk
//     std::function — the scheduler costs one mutex acquisition per
//     participant per parallel region, not per chunk.
//
//   * chunk sizing is guided and cost-adaptive: a claim takes
//     remaining/(4·(workers+1)) items, shrunk once the measured
//     per-item cost is known so one chunk targets ~200 µs — long
//     enough to amortise the claim, short enough that stragglers
//     rebalance — and floored at count/(16·(workers+1)).
//
//   * nesting — a parallel_for from inside a worker registers its job
//     like any other caller and participates in it; idle workers help.
//     Nested regions therefore run in parallel, and there is no
//     deadlock because a bulk caller never blocks on a resource another
//     bulk caller holds.
//
// Determinism is unaffected by any of this: chunk boundaries and claim
// order vary run to run, but bodies write per-index slots only, and
// every ordered floating-point fold (the eq. (10) gather) is per-agent
// in a fixed ascending order. tests/test_thread_invariance.cpp pins
// bitwise equality across pool sizes on every registered solver.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "mmlp/util/cancel.hpp"

namespace mmlp {

/// Fixed-size worker pool running allocation-free chunked loops.
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means the MMLP_THREADS
  /// environment override, falling back to
  /// std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Cumulative per-worker activity since pool construction. busy_ns is
  /// time spent inside bulk chunks, idle_ns time blocked waiting for
  /// work, chunks the number of bulk chunks executed. A
  /// scaling-efficiency loss shows up directly as idle_ns growing
  /// faster than busy_ns on some workers.
  struct WorkerStats {
    std::uint64_t busy_ns = 0;
    std::uint64_t idle_ns = 0;
    std::uint64_t chunks = 0;
    /// Always 0: the pool has no work stealing. Kept only because the
    /// repository benchmark still reads it for util.parallel.steals.
    std::uint64_t steals = 0;
  };

  /// Snapshot of every worker's stats, indexed by worker. Relaxed reads
  /// — concurrent with running chunks, values are monotone but may lag.
  std::vector<WorkerStats> worker_stats() const;

  /// The bulk-dispatch body: executes indices [begin, end) against the
  /// caller-owned context. A plain function pointer so the fast path
  /// never materialises a std::function.
  using BulkBody = void (*)(void* ctx, std::size_t begin, std::size_t end);

  /// Execute body over [0, count) in dynamically sized chunks, using
  /// the calling thread plus every idle worker. Blocks until all
  /// indices completed (or a body threw — remaining chunks are then
  /// abandoned and the first exception rethrown here). Reentrant: may
  /// be called concurrently from several threads and from inside pool
  /// workers (nested regions run in parallel). Performs no heap
  /// allocation. Honors the caller's active CancelToken
  /// (cancel::current_token()): once the token expires, executors stop
  /// claiming chunks and run_bulk rethrows CancelledError — already
  /// running chunk bodies complete normally first, so per-index output
  /// slots are never left half-written.
  void run_bulk(std::size_t count, BulkBody body, void* ctx);

  /// Process-wide pool. Lazily constructed on first use, sized by
  /// set_global_thread_count() when that was called earlier, otherwise
  /// by MMLP_THREADS, otherwise to the hardware.
  static ThreadPool& global();

 private:
  // Padded so two workers bumping their own counters never share a
  // cache line; written only by the owning worker, read by anyone.
  struct alignas(64) WorkerCounters {
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> idle_ns{0};
    std::atomic<std::uint64_t> chunks{0};
  };

  /// One bulk parallel region. Lives on the run_bulk caller's stack;
  /// workers reach it through the pool's job list and are accounted in
  /// `attached` (guarded by sched_mutex_) so the caller can wait for
  /// every executor to leave before the frame dies.
  struct BulkJob {
    std::atomic<std::size_t> cursor{0};
    std::size_t count = 0;
    std::size_t min_chunk = 1;
    BulkBody body = nullptr;
    void* ctx = nullptr;
    /// Rolling per-item cost estimate (ns), updated after each chunk;
    /// drives the adaptive chunk sizing. 0 = not yet measured.
    std::atomic<std::uint64_t> ns_per_item{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;  // first exception; guarded by error_mutex
    std::mutex error_mutex;
    int attached = 0;  // executors inside the claim loop; sched_mutex_
    /// Cooperative cancellation: snapshot of the run_bulk caller's
    /// active CancelToken (cancel::current_token()). Checked in the
    /// claim loop before each chunk, and re-installed around the body
    /// so workers and nested regions observe the caller's token. An
    /// expired token marks the job failed through the same
    /// poison-the-cursor path as a thrown body exception.
    const CancelToken* cancel = nullptr;

    /// Keeps `first` unless an error is already recorded, then poisons
    /// the job so every executor stops claiming.
    void fail(std::exception_ptr first) {
      {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (error == nullptr) {
          error = std::move(first);
        }
      }
      failed.store(true, std::memory_order_release);
    }
  };

  void worker_loop(std::size_t worker_index);
  /// The first registered job with unclaimed work, or nullptr. Caller
  /// holds sched_mutex_.
  BulkJob* open_job() const;
  std::size_t chunk_size(const BulkJob& job, std::size_t cur) const;
  /// Claim-and-execute chunks of `job` until it is drained or failed.
  void execute_chunks(BulkJob& job, WorkerCounters* counters);

  std::vector<WorkerCounters> counters_;
  std::vector<std::thread> workers_;

  // Scheduler state: job registry, sleep/wake and completion signals.
  std::mutex sched_mutex_;
  std::condition_variable cv_work_;  // workers sleeping for work
  std::condition_variable cv_done_;  // bulk callers awaiting detach
  std::vector<BulkJob*> jobs_;       // active bulk regions (registered order)
  bool stop_ = false;  // guarded by sched_mutex_
};

/// Configure the worker count of ThreadPool::global() before its first
/// use (0 = MMLP_THREADS env, else hardware concurrency). Throws
/// CheckError when the global pool already exists with a different size
/// — the pool cannot be resized once workers hold references to it.
/// Used by the bench harness's --threads flag / MMLP_THREADS override.
void set_global_thread_count(std::size_t num_threads);

/// The one dispatch function. body(begin, end) is called once per
/// dynamically sized chunk, so loops amortise per-worker scratch (ball
/// collectors, view/LP workspaces, materialization arenas) over a
/// chunk. The body must only write per-index state; count == 0 returns
/// without invoking the body. On a pool of one worker (or for a single
/// index) the body runs once over the whole range on the calling
/// thread, after one cancellation checkpoint — the only serial
/// fallback. Exceptions thrown inside the body abandon the remaining
/// chunks and the first one is rethrown in the caller, so a CheckError
/// inside a parallel loop stays catchable — including when the throw
/// happens in the last chunk or when count is smaller than the worker
/// count (tested edge cases in tests/test_parallel.cpp). The dispatch
/// itself performs zero heap allocations: the body is reached through
/// a function-pointer trampoline, never a std::function.
template <typename Body>
void chunked_parallel_for(std::size_t count, Body&& body,
                          ThreadPool* pool = nullptr) {
  if (count == 0) {
    return;
  }
  ThreadPool& target = pool != nullptr ? *pool : ThreadPool::global();
  if (target.size() <= 1 || count == 1) {
    // Long bodies are expected to call cancel::checkpoint() themselves
    // at natural boundaries (parallel_for and the per-view-class LP
    // loop do).
    cancel::checkpoint();
    body(std::size_t{0}, count);
    return;
  }
  using BodyType = std::remove_reference_t<Body>;
  target.run_bulk(
      count,
      [](void* ctx, std::size_t begin, std::size_t end) {
        (*static_cast<BodyType*>(ctx))(begin, end);
      },
      const_cast<std::remove_const_t<BodyType>*>(&body));
}

/// Per-index adapter over chunked_parallel_for: fn(i) for i in
/// [0, count), with the same blocking, exception and zero-allocation
/// contract. A chunk polls the active CancelToken every 256 indices,
/// so a deadline fires inside the single whole-range chunk of a
/// one-worker pool too, without a clock read per tiny iteration.
template <typename Fn>
void parallel_for(std::size_t count, Fn&& fn, ThreadPool* pool = nullptr) {
  chunked_parallel_for(
      count,
      [&fn](std::size_t begin, std::size_t end) {
        for (std::size_t block = begin; block < end; block += 256) {
          cancel::checkpoint();
          const std::size_t block_end = std::min(end, block + 256);
          for (std::size_t i = block; i < block_end; ++i) {
            fn(i);
          }
        }
      },
      pool);
}

}  // namespace mmlp
