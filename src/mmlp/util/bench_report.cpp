#include "mmlp/util/bench_report.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>

#include "mmlp/util/check.hpp"
#include "mmlp/util/cli.hpp"
#include "mmlp/util/parallel.hpp"
#include "mmlp/util/text.hpp"
#include "mmlp/util/timer.hpp"

namespace mmlp::bench {

Report::Report(std::string name, std::string scale)
    : name_(std::move(name)), scale_(std::move(scale)) {}

CaseResult& Report::run_case(const std::string& scenario, std::int64_t agents,
                             int reps, const std::function<void()>& fn) {
  MMLP_CHECK_GE(reps, 1);
  MMLP_CHECK_GT(agents, 0);
  double best_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer timer;
    fn();
    best_ms = std::min(best_ms, timer.milliseconds());
  }
  CaseResult result;
  result.scenario = scenario;
  result.agents = agents;
  result.repetitions = reps;
  result.wall_ms = best_ms;
  result.ns_per_agent = best_ms * 1e6 / static_cast<double>(agents);
  return add_case(std::move(result));
}

CaseResult& Report::add_case(CaseResult result) {
  cases_.push_back(std::move(result));
  return cases_.back();
}

std::string Report::to_json() const {
  std::string out;
  append_text(out, "{\n  \"schema\": ", Quoted{kSchemaId}, ",\n  \"name\": ",
              Quoted{name_}, ",\n  \"scale\": ", Quoted{scale_});
  if (threads_ > 0) {
    append_text(out, ",\n  \"threads\": ", threads_);
  }
  out += ",\n  \"cases\": [";
  for (std::size_t idx = 0; idx < cases_.size(); ++idx) {
    const CaseResult& entry = cases_[idx];
    append_text(out, idx == 0 ? "\n" : ",\n", "    {\"scenario\": ",
                Quoted{entry.scenario}, ", \"agents\": ", entry.agents,
                ", \"repetitions\": ", entry.repetitions,
                ", \"wall_ms\": ", entry.wall_ms,
                ", \"ns_per_agent\": ", entry.ns_per_agent,
                ", \"counters\": ");
    append_json_object(out, entry.counters);
    out += '}';
  }
  out += "\n  ]\n}\n";
  return out;
}

void Report::write(const std::string& path) const {
  std::ofstream out(path);
  MMLP_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  out << to_json();
  out.flush();
  MMLP_CHECK_MSG(out.good(), "failed writing benchmark report to " << path);
}

int bench_main(int argc, const char* const* argv, const std::string& name,
               const std::function<void(Report& report, const std::string& scale,
                                        int reps)>& body) {
  ArgParser parser("mmlp benchmark '" + name +
                   "'; writes a mmlp-bench-v1 JSON report");
  parser.add_flag("out", "output JSON path", "BENCH_" + name + ".json");
  parser.add_flag("scale", "problem sizes: smoke | small | full", "full");
  parser.add_flag("reps", "timed repetitions per case (min is kept)", "3");
  parser.add_flag("threads",
                  "worker threads (0 = MMLP_THREADS env, else hardware)", "0");
  if (!parser.parse(argc, argv)) {
    return 1;
  }
  const std::string scale = parser.get_string("scale");
  if (scale != "smoke" && scale != "small" && scale != "full") {
    std::fprintf(stderr, "unknown --scale '%s' (want smoke|small|full)\n",
                 scale.c_str());
    return 1;
  }
  const auto reps = static_cast<int>(parser.get_int("reps"));
  if (reps < 1) {
    std::fprintf(stderr, "--reps must be >= 1\n");
    return 1;
  }

  // Size the global pool before any timed code touches it: the flag
  // wins, then the MMLP_THREADS environment override, then hardware
  // concurrency. The resolved count lands in the report so runs from
  // differently sized pools are never compared by accident.
  std::int64_t threads = parser.get_int("threads");
  if (threads < 0) {
    std::fprintf(stderr, "--threads must be >= 0\n");
    return 1;
  }
  if (threads == 0) {
    if (const char* env = std::getenv("MMLP_THREADS");
        env != nullptr && *env != '\0') {
      char* end = nullptr;
      threads = std::strtol(env, &end, 10);
      if (end == nullptr || *end != '\0' || threads < 0) {
        std::fprintf(stderr, "invalid MMLP_THREADS '%s'\n", env);
        return 1;
      }
    }
  }
  set_global_thread_count(static_cast<std::size_t>(threads));

  Report report(name, scale);
  report.set_threads(static_cast<std::int64_t>(ThreadPool::global().size()));
  body(report, scale, reps);

  const std::string out = parser.get_string("out");
  report.write(out);
  for (const CaseResult& entry : report.cases()) {
    std::printf("%-24s %-20s n=%-8lld %10.3f ms  %8.1f ns/agent\n",
                name.c_str(), entry.scenario.c_str(),
                static_cast<long long>(entry.agents), entry.wall_ms,
                entry.ns_per_agent);
  }
  std::printf("wrote %s (%zu cases)\n", out.c_str(), report.cases().size());
  return 0;
}

}  // namespace mmlp::bench
