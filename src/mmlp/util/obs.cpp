#include "mmlp/util/obs.hpp"

#include <algorithm>
#include <cmath>
#include <new>

#include "mmlp/util/text.hpp"

namespace mmlp::obs {

namespace {

/// Fixed anchor so trace timestamps are comparable across threads.
/// Initialised on first use (before any worker can record, because
/// recording goes through Tracer::instance() which touches this).
std::chrono::steady_clock::time_point process_anchor() {
  static const std::chrono::steady_clock::time_point anchor =
      std::chrono::steady_clock::now();
  return anchor;
}

}  // namespace

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer& Tracer::instance() {
  static Tracer tracer;
  (void)process_anchor();  // pin the anchor before any span timestamps
  return tracer;
}

std::uint64_t Tracer::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - process_anchor())
          .count());
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  // Registration is once per (thread, tracer) and takes the mutex; the
  // cached pointer makes every later record() lock-free. clear() never
  // removes buffers, so the pointer stays valid for the thread's life.
  // A generation stamp makes clear() cheap: record() lazily resets its
  // own buffer when it first writes after a clear.
  thread_local ThreadBuffer* cached = nullptr;
  if (cached == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->ring.resize(kBufferCapacity);
    std::lock_guard<std::mutex> lock(mutex_);
    buffer->thread_index = static_cast<std::uint32_t>(buffers_.size());
    cached = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return *cached;
}

void Tracer::record(const char* name, const char* category,
                    std::uint64_t start_ns, std::uint64_t dur_ns) {
  ThreadBuffer& buffer = local_buffer();
  // Single writer per buffer: only the owning thread mutates size/ring.
  const std::size_t used = buffer.size.load(std::memory_order_relaxed);
  if (used >= kBufferCapacity) {
    buffer.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer.ring[used] = TraceEvent{name, category, start_ns, dur_ns};
  // Release so a concurrent events() snapshot that reads this size sees
  // the fully written event.
  buffer.size.store(used + 1, std::memory_order_release);
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& buffer : buffers_) {
    buffer->size.store(0, std::memory_order_release);
    buffer->dropped.store(0, std::memory_order_relaxed);
  }
  generation_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::pair<std::uint32_t, TraceEvent>> Tracer::events() const {
  std::vector<std::pair<std::uint32_t, TraceEvent>> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    const std::size_t used = buffer->size.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < used; ++i) {
      out.emplace_back(buffer->thread_index, buffer->ring[i]);
    }
  }
  return out;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t total = 0;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    total += buffer->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::string Tracer::to_chrome_json() const {
  const auto snapshot = events();
  std::string out = "{\"traceEvents\": [";
  const char* separator = "\n  ";
  for (const auto& [tid, event] : snapshot) {
    // Complete ("ph":"X") events; ts/dur in microseconds per the Trace
    // Event format. Fractional µs keeps sub-microsecond spans nonzero.
    append_text(out, separator, "{\"name\": ", Quoted{event.name},
                ", \"cat\": ", Quoted{event.category}, ", \"ph\": \"X\"",
                ", \"ts\": ", static_cast<double>(event.start_ns) / 1000.0,
                ", \"dur\": ", static_cast<double>(event.dur_ns) / 1000.0,
                ", \"pid\": 1, \"tid\": ", tid, '}');
    separator = ",\n  ";
  }
  append_text(out, "\n], \"displayTimeUnit\": \"ms\", \"otherData\": ",
              "{\"producer\": \"mmlp::obs\", \"dropped_events\": ", dropped(),
              "}}");
  return out;
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

namespace {

void atomic_add_double(std::atomic<double>& target, double delta) {
  double expected = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(expected, expected + delta,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min_double(std::atomic<double>& target, double value) {
  double expected = target.load(std::memory_order_relaxed);
  while (value < expected &&
         !target.compare_exchange_weak(expected, value,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_max_double(std::atomic<double>& target, double value) {
  double expected = target.load(std::memory_order_relaxed);
  while (value > expected &&
         !target.compare_exchange_weak(expected, value,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

double Histogram::bucket_lower(int b) {
  return kMinValue *
         std::pow(10.0, static_cast<double>(b) / kBucketsPerDecade);
}

void Histogram::observe(double value) {
  int bucket = 0;
  if (value >= kMinValue) {
    // b = floor(log10(v / 1e-6) * 8), clamped to the grid.
    const double position =
        std::log10(value / kMinValue) * kBucketsPerDecade;
    bucket = std::clamp(static_cast<int>(position), 0, kNumBuckets - 1);
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  const std::int64_t previous =
      count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(sum_, value);
  if (previous == 0) {
    // First sample seeds min/max; races with concurrent observers are
    // resolved by the min/max CAS loops below.
    double zero = 0.0;
    min_.compare_exchange_strong(zero, value, std::memory_order_relaxed);
    zero = 0.0;
    max_.compare_exchange_strong(zero, value, std::memory_order_relaxed);
  }
  atomic_min_double(min_, value);
  atomic_max_double(max_, value);
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

double Histogram::min() const {
  return count() > 0 ? min_.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::max() const {
  return count() > 0 ? max_.load(std::memory_order_relaxed) : 0.0;
}

std::vector<std::int64_t> Histogram::bucket_counts() const {
  std::vector<std::int64_t> out(kNumBuckets);
  for (int b = 0; b < kNumBuckets; ++b) {
    out[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::percentile(double q) const {
  const std::int64_t total = count();
  if (total <= 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double lo = min();
  const double hi = max();
  if (q <= 0.0) {
    return lo;
  }
  if (q >= 1.0) {
    return hi;
  }
  // Rank in [0, total-1], matching the linear-interpolation convention
  // of mmlp::percentile (q=0 → min, q=1 → max).
  const double rank = q * static_cast<double>(total - 1);
  std::int64_t cumulative = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    const std::int64_t in_bucket =
        buckets_[b].load(std::memory_order_relaxed);
    if (in_bucket == 0) {
      continue;
    }
    if (rank < static_cast<double>(cumulative + in_bucket)) {
      // Geometric interpolation inside the bucket, clamped to the
      // recorded extremes so the estimate never leaves [min, max].
      const double fraction = (rank - static_cast<double>(cumulative)) /
                              static_cast<double>(in_bucket);
      const double lower = std::max(bucket_lower(b), lo);
      const double upper = std::min(bucket_lower(b + 1), std::max(hi, lower));
      const double estimate =
          lower > 0.0 && upper > lower
              ? lower * std::pow(upper / lower, fraction)
              : lower;
      return std::clamp(estimate, lo, hi);
    }
    cumulative += in_bucket;
  }
  return hi;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    out.counters.emplace(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    out.gauges.emplace(name, gauge->value());
  }
  return out;
}

std::string Registry::to_json_line() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"counters\": ";
  const auto append_value = [&out](const auto& metric) {
    append_text(out, metric->value());
  };
  append_json_object(out, counters_, append_value);
  out += ", \"gauges\": ";
  append_json_object(out, gauges_, append_value);
  out += ", \"histograms\": ";
  append_json_object(out, histograms_, [&out](const auto& histogram) {
    // JSON has no Inf/NaN; a histogram should never hold them, and a
    // dump writes 0 rather than fail.
    const auto finite = [](double v) { return std::isfinite(v) ? v : 0.0; };
    append_text(out, "{\"count\": ", histogram->count(),
                ", \"sum\": ", finite(histogram->sum()),
                ", \"min\": ", finite(histogram->min()),
                ", \"max\": ", finite(histogram->max()),
                ", \"p50\": ", finite(histogram->percentile(0.50)),
                ", \"p90\": ", finite(histogram->percentile(0.90)),
                ", \"p99\": ", finite(histogram->percentile(0.99)),
                '}');
  });
  out += '}';
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) {
    counter->add(-counter->value());
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->set(0);
  }
  for (auto& [name, histogram] : histograms_) {
    // Histograms have no reset API of their own (the hot path must stay
    // trivially simple); replacing the object would invalidate cached
    // references, so zero it in place via placement re-initialisation.
    histogram->~Histogram();
    new (histogram.get()) Histogram();
  }
}

}  // namespace mmlp::obs
