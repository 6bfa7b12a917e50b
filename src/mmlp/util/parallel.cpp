#include "mmlp/util/parallel.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>

#include "mmlp/util/check.hpp"

namespace mmlp {

namespace {

using clock = std::chrono::steady_clock;

std::uint64_t elapsed_ns(clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - since)
          .count());
}

/// Target wall time per bulk chunk once the per-item cost is known:
/// long enough to amortise the claim CAS, short enough that stragglers
/// rebalance across workers.
constexpr std::uint64_t kTargetChunkNs = 200'000;

/// Worker count requested via environment / hardware when a pool is
/// constructed with 0 threads. A malformed or out-of-range
/// MMLP_THREADS is ignored rather than clamped to LONG_MAX workers.
std::size_t resolve_default_threads() {
  if (const char* env = std::getenv("MMLP_THREADS");
      env != nullptr && *env != '\0') {
    char* end = nullptr;
    errno = 0;
    const long parsed = std::strtol(env, &end, 10);
    if (end != nullptr && *end == '\0' && errno != ERANGE && parsed > 0) {
      return static_cast<std::size_t>(parsed);
    }
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

// Size requested for the global pool before its construction; 0 means
// environment / hardware. Guarded by global_config_mutex so a configure
// racing the first global() use is well-defined.
std::mutex global_config_mutex;
std::size_t global_requested_threads = 0;
bool global_pool_created = false;
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads)
    : counters_(num_threads == 0 ? resolve_default_threads() : num_threads) {
  const std::size_t resolved = counters_.size();
  // Bulk jobs register into this vector with zero steady-state
  // allocations; reserve enough slots for deeply nested regions.
  jobs_.reserve(4 * resolved + 16);
  workers_.reserve(resolved);
  for (std::size_t t = 0; t < resolved; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(sched_mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

std::vector<ThreadPool::WorkerStats> ThreadPool::worker_stats() const {
  std::vector<WorkerStats> out(counters_.size());
  for (std::size_t t = 0; t < counters_.size(); ++t) {
    out[t].busy_ns = counters_[t].busy_ns.load(std::memory_order_relaxed);
    out[t].idle_ns = counters_[t].idle_ns.load(std::memory_order_relaxed);
    out[t].chunks = counters_[t].chunks.load(std::memory_order_relaxed);
  }
  return out;
}

std::size_t ThreadPool::chunk_size(const BulkJob& job, std::size_t cur) const {
  const std::size_t remaining = job.count - cur;
  // Guided self-scheduling: early chunks are large (low claim
  // overhead), late chunks shrink so the tail balances.
  std::size_t chunk = remaining / (4 * (workers_.size() + 1));
  // Adaptive cap: once a chunk has been timed, bound the next ones to
  // ~kTargetChunkNs of work so one expensive-item chunk cannot become
  // the straggler that serializes the whole region.
  const std::uint64_t cost = job.ns_per_item.load(std::memory_order_relaxed);
  if (cost > 0) {
    chunk = std::min<std::size_t>(
        chunk, static_cast<std::size_t>(kTargetChunkNs / cost) + 1);
  }
  chunk = std::max(chunk, job.min_chunk);
  return std::clamp<std::size_t>(chunk, 1, remaining);
}

void ThreadPool::execute_chunks(BulkJob& job, WorkerCounters* counters) {
  for (;;) {
    if (job.failed.load(std::memory_order_acquire)) {
      return;
    }
    if (job.cancel != nullptr && job.cancel->expired()) {
      // Cancellation rides the poison-the-cursor path: record a
      // CancelledError as the job's first error (unless a body already
      // failed) and stop claiming. Other executors observe `failed` and
      // drain; run_bulk rethrows in the caller.
      job.fail(std::make_exception_ptr(CancelledError(job.cancel->reason())));
      return;
    }
    std::size_t cur = job.cursor.load(std::memory_order_relaxed);
    if (cur >= job.count) {
      return;
    }
    const std::size_t chunk = chunk_size(job, cur);
    if (!job.cursor.compare_exchange_weak(cur, cur + chunk,
                                          std::memory_order_acq_rel)) {
      continue;  // lost the claim race; re-read the cursor
    }
    if (cur >= job.count) {
      return;
    }
    const std::size_t end = std::min(job.count, cur + chunk);
    const clock::time_point start = clock::now();
    try {
      // Workers inherit the caller's token for the duration of the
      // body, so cancel::checkpoint() and nested bulk regions inside
      // the body observe it.
      cancel::CancelScope scope(job.cancel);
      job.body(job.ctx, cur, end);
    } catch (...) {
      job.fail(std::current_exception());
      return;
    }
    const std::uint64_t ns = elapsed_ns(start);
    job.ns_per_item.store(std::max<std::uint64_t>(
                              1, ns / static_cast<std::uint64_t>(end - cur)),
                          std::memory_order_relaxed);
    if (counters != nullptr) {
      counters->busy_ns.fetch_add(ns, std::memory_order_relaxed);
      counters->chunks.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::run_bulk(std::size_t count, BulkBody body, void* ctx) {
  if (count == 0) {
    return;
  }
  BulkJob job;
  job.count = count;
  job.min_chunk = std::max<std::size_t>(1, count / (16 * (workers_.size() + 1)));
  job.body = body;
  job.ctx = ctx;
  job.cancel = cancel::current_token();
  {
    std::lock_guard<std::mutex> lock(sched_mutex_);
    MMLP_CHECK(!stop_);
    jobs_.push_back(&job);  // within reserved capacity: no allocation
  }
  cv_work_.notify_all();

  // The caller is an executor too: it claims chunks like any worker, so
  // a bulk region never strands the submitting thread in a blocking
  // wait while work remains, and nested regions make progress even when
  // every worker is busy elsewhere.
  execute_chunks(job, nullptr);

  {
    // Wait for every attached worker to leave the claim loop, then
    // deregister. Workers attach/detach under sched_mutex_, so after
    // this wait no thread can still hold a pointer into this frame.
    std::unique_lock<std::mutex> lock(sched_mutex_);
    cv_done_.wait(lock, [&job] { return job.attached == 0; });
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
  }
  if (job.error != nullptr) {
    std::rethrow_exception(job.error);
  }
}

ThreadPool::BulkJob* ThreadPool::open_job() const {
  for (BulkJob* candidate : jobs_) {
    if (!candidate->failed.load(std::memory_order_relaxed) &&
        candidate->cursor.load(std::memory_order_relaxed) < candidate->count) {
      return candidate;
    }
  }
  return nullptr;
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  WorkerCounters& counters = counters_[worker_index];
  for (;;) {
    // Attach to the first job with unclaimed work, or sleep until one
    // arrives. The scan runs under sched_mutex_, which run_bulk holds
    // while it registers a job, so a wakeup cannot be missed. A
    // registered-but-drained job does NOT count as work (its caller is
    // only waiting to deregister) — otherwise idle workers would spin
    // instead of sleeping.
    BulkJob* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(sched_mutex_);
      while ((job = open_job()) == nullptr) {
        if (stop_) {
          return;
        }
        const clock::time_point wait_start = clock::now();
        cv_work_.wait(lock);
        counters.idle_ns.fetch_add(elapsed_ns(wait_start),
                                   std::memory_order_relaxed);
      }
      ++job->attached;
    }
    execute_chunks(*job, &counters);
    bool drained = false;
    {
      std::lock_guard<std::mutex> lock(sched_mutex_);
      drained = --job->attached == 0;
    }
    if (drained) {
      cv_done_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool& pool = []() -> ThreadPool& {
    std::lock_guard<std::mutex> lock(global_config_mutex);
    static ThreadPool instance(global_requested_threads);
    global_pool_created = true;
    return instance;
  }();
  return pool;
}

void set_global_thread_count(std::size_t num_threads) {
  std::lock_guard<std::mutex> lock(global_config_mutex);
  if (global_pool_created) {
    const std::size_t resolved =
        num_threads == 0 ? resolve_default_threads() : num_threads;
    MMLP_CHECK_MSG(ThreadPool::global().size() == resolved,
                   "global thread pool already created with "
                       << ThreadPool::global().size()
                       << " workers; cannot resize to " << resolved);
    return;
  }
  global_requested_threads = num_threads;
}

}  // namespace mmlp
