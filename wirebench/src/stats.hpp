// Small numeric and reporting helpers shared by the harness.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace wirebench {

/// Sample quantile by linear interpolation between order statistics
/// (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double mean(const std::vector<double>& values);

/// Nanoseconds on the steady clock the mmlp tracer uses, so harness
/// spans and program spans share one time base.
std::uint64_t now_ns();
inline double ms_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-6;
}

/// Peak resident set of this process so far (getrusage), in MB.
double peak_rss_mb();

/// The first "model name" of /proc/cpuinfo, or "unknown".
std::string cpu_model();

/// A finite double as a JSON number with all 17 significant digits.
std::string json_number(double value);

/// {"name": value, ...}. The units of the reported metrics live in
/// BENCHMARK.json only; run.py attaches them.
std::string values_json(const std::map<std::string, double>& values);

}  // namespace wirebench
