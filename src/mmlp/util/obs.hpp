// mmlp::obs — structured tracing and metrics for every hot layer.
//
// Two instruments, both process-global and thread-safe:
//
//   * A span-based tracer. An ObsSpan is an RAII scope carrying a
//     static name and category; on destruction it records a complete
//     event (start, duration, thread) into a per-thread ring buffer.
//     Buffers are single-writer (the owning thread) and registered with
//     the tracer under a mutex once per thread, so the hot path takes
//     no lock. Tracer::to_chrome_json() exports everything as Chrome
//     Trace Event JSON ("traceEvents" of "ph":"X" complete events),
//     loadable by chrome://tracing and Perfetto — a warm averaging
//     solve renders as a flame of build/solve stages per worker thread.
//
//     Overhead contract: while tracing is disabled (the default) a span
//     costs ONE relaxed atomic load and branch at construction and one
//     at destruction — no clock reads, no stores. The bench-regression
//     CI gate runs with tracing disabled and holds the warm averaging
//     path to its baseline, which pins the contract.
//
//   * A metrics registry of named counters, gauges and fixed-bucket
//     log-scale histograms. Counters/gauges are relaxed atomics —
//     always on, never locked after creation; instrumentation sites
//     hold a `static Counter&` so the name lookup happens once.
//     Histograms bucket positive values on a logarithmic grid (8
//     buckets per decade across 1e-6..1e6, clamped at the ends) and
//     extract p50/p90/p99 by geometric interpolation inside the
//     containing bucket — the quantile error is bounded by one bucket
//     width (~33% relative), which is what a latency distribution
//     needs; exact quantiles stay the job of util/stats.hpp.
//
// Registry::global() names in use (see docs/ARCHITECTURE.md for the
// taxonomy): simplex.{solves,pivots}, bfs.ball_expansions,
// session.{graph,balls,growth,view_classes}.{hits,misses,entries},
// session.{deltas,solution_memos,averaging_memos,edit_log_records},
// scratch.leases, engine.requests, and the engine.request_ms latency
// histogram.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mmlp::obs {

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

namespace detail {
/// The global trace switch. A plain inline atomic (not behind a
/// function call) so the disabled-span fast path is exactly one relaxed
/// load + branch.
inline std::atomic<bool> g_tracing{false};
}  // namespace detail

/// Is the tracer currently recording? (relaxed; instrumentation only)
inline bool tracing_enabled() {
  return detail::g_tracing.load(std::memory_order_relaxed);
}

/// One completed span. Names/categories must be string literals (or
/// otherwise outlive the tracer) — events store the pointers.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  std::uint64_t start_ns = 0;  ///< since the process-start anchor
  std::uint64_t dur_ns = 0;
};

/// The process-global tracer: per-thread ring buffers + export.
class Tracer {
 public:
  /// Events each thread can hold; older events are kept, new ones are
  /// dropped (and counted) once the ring is full — a trace is a window,
  /// not an unbounded log.
  static constexpr std::size_t kBufferCapacity = 1 << 16;

  static Tracer& instance();

  /// Start/stop recording. Stopping does not clear collected events.
  void set_enabled(bool enabled) {
    detail::g_tracing.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return tracing_enabled(); }

  /// Drop every collected event (all threads) and the drop counters.
  void clear();

  /// Record one completed span on the calling thread. Called by ObsSpan;
  /// callable directly for externally timed phases.
  void record(const char* name, const char* category, std::uint64_t start_ns,
              std::uint64_t dur_ns);

  /// Snapshot of every thread's events, as (thread_index, event) pairs
  /// in per-thread recording order. Call after parallel work quiesced —
  /// concurrent recording may miss the newest events but never tears.
  std::vector<std::pair<std::uint32_t, TraceEvent>> events() const;

  /// Events dropped because a ring filled up.
  std::uint64_t dropped() const;

  /// Chrome Trace Event JSON: {"traceEvents": [...], ...}; "ts"/"dur"
  /// are microseconds as the format requires. Loadable by Perfetto /
  /// chrome://tracing. Same quiescence caveat as events().
  std::string to_chrome_json() const;

  /// Nanoseconds since the process-start anchor (steady clock).
  static std::uint64_t now_ns();

 private:
  struct ThreadBuffer {
    std::uint32_t thread_index = 0;
    std::vector<TraceEvent> ring;            // capacity kBufferCapacity
    std::atomic<std::size_t> size{0};        // published with release
    std::atomic<std::uint64_t> dropped{0};
  };

  Tracer() = default;
  ThreadBuffer& local_buffer();

  mutable std::mutex mutex_;  // guards buffers_ registration + export
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::atomic<std::uint64_t> generation_{0};  // bumped by clear()
};

/// RAII tracing scope. Construction checks the global switch once;
/// a disabled span does nothing else (see the overhead contract above).
class ObsSpan {
 public:
  explicit ObsSpan(const char* name, const char* category = "mmlp")
      : name_(name), category_(category), active_(tracing_enabled()) {
    if (active_) {
      start_ns_ = Tracer::now_ns();
    }
  }
  ~ObsSpan() {
    if (active_) {
      const std::uint64_t end_ns = Tracer::now_ns();
      Tracer::instance().record(name_, category_, start_ns_,
                                end_ns - start_ns_);
    }
  }
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  const char* name_;
  const char* category_;
  bool active_;
  std::uint64_t start_ns_ = 0;
};

/// Turns the tracer on for one request and restores it on scope exit; a
/// no-op when tracing is already enabled (or not requested), so nested
/// or batch-level enablement wins.
class ScopedTraceEnable {
 public:
  explicit ScopedTraceEnable(bool want) : owns_(want && !tracing_enabled()) {
    if (owns_) {
      Tracer::instance().set_enabled(true);
    }
  }
  ~ScopedTraceEnable() {
    if (owns_) {
      Tracer::instance().set_enabled(false);
    }
  }
  ScopedTraceEnable(const ScopedTraceEnable&) = delete;
  ScopedTraceEnable& operator=(const ScopedTraceEnable&) = delete;

 private:
  bool owns_;
};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Monotonic counter. Relaxed adds; cache-line padded so unrelated hot
/// counters never false-share.
class alignas(64) Counter {
 public:
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() { add(1); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-write-wins instantaneous value (cache entry counts, memo sizes).
class alignas(64) Gauge {
 public:
  void set(std::int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket log-scale histogram for positive samples (latencies in
/// ms, sizes, ...). Thread-safe: every field is a relaxed atomic, so
/// concurrent observe() calls from a parallel loop lose nothing.
class Histogram {
 public:
  /// 8 buckets per decade across [1e-6, 1e6): bucket b covers
  /// [10^(b/8 - 6), 10^((b+1)/8 - 6)). Samples below/above the range
  /// clamp into the first/last bucket; non-positive samples count into
  /// bucket 0.
  static constexpr int kBucketsPerDecade = 8;
  static constexpr int kDecades = 12;
  static constexpr int kNumBuckets = kBucketsPerDecade * kDecades;
  static constexpr double kMinValue = 1e-6;

  void observe(double value);

  std::int64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const;
  double min() const;
  double max() const;

  /// Quantile q in [0, 1] by geometric interpolation inside the bucket
  /// where the cumulative count crosses q·count. Exact at the recorded
  /// min/max (q touching the ends returns them); elsewhere the error is
  /// bounded by the bucket width. 0 when empty.
  double percentile(double q) const;

  /// Lower bound of bucket b (exposed for tests and validators).
  static double bucket_lower(int b);

  /// Snapshot of the raw bucket counts (size kNumBuckets).
  std::vector<std::int64_t> bucket_counts() const;

 private:
  std::atomic<std::int64_t> buckets_[kNumBuckets] = {};
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};  // valid when count_ > 0
  std::atomic<double> max_{0.0};
};

/// Point-in-time copy of every registered metric, for diffing around a
/// request (engine::solve does this to attribute counter deltas).
struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, std::int64_t> gauges;
};

/// Name-keyed metric store. Lookup takes a mutex and is intended to run
/// once per site (hold a `static Counter& c = Registry::global()...`);
/// the returned references live as long as the registry (metrics are
/// never removed — reset() zeroes values, it does not unregister).
class Registry {
 public:
  static Registry& global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  MetricsSnapshot snapshot() const;

  /// One JSON object (no trailing newline):
  /// {"counters": {...}, "gauges": {...}, "histograms": {"name":
  ///   {"count": N, "sum": S, "min": m, "max": M, "p50": ..,
  ///    "p90": .., "p99": ..}, ...}}
  std::string to_json_line() const;

  /// Zero every counter/gauge and clear every histogram (tests and
  /// per-batch metric dumps; the objects stay registered so cached
  /// references remain valid).
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace mmlp::obs
