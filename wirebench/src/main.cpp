// wirebench — the repository benchmark: wire-to-wire request latency of
// the serving engine on three workloads, plus a traced per-layer run.
//
//   wirebench gen --workload W --seed N --out DIR [--requests M]
//   wirebench run --workload W --seed N --seconds S --trace 0|1
//                 --instance FILE [--commit ID] [--trace-out FILE]
//
// `gen` writes a workload's instance text to DIR/W-N.instance and, with
// M > 0, the first M requests of its stream to DIR/W-N.jsonl. run.py
// calls it in a process of its own, so the generator's copy of the
// instance never counts in the peak RSS of the measured process.
//
// `run` is one closed-loop client (incremental solves may not overlap on
// one session) feeding generated JSONL lines into the engine's public
// API and timing each request from the line in to the encoded response
// out. Set-up — deserializing the instance text of FILE, building the
// session and warming its caches — runs several times and is timed on
// its own. Request streams are drawn from the served instance. Output
// checks run outside the request timer. With --trace 0 the last stdout
// line carries the end-to-end values; with --trace 1 it carries the
// per-layer values of a separate traced run (harness spans around every
// layer call, plus the program's own obs spans and counters). Values are
// reported by name only: run.py takes their units from BENCHMARK.json.
// See wirebench/README.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "gen.hpp"
#include "mmlp/core/solution.hpp"
#include "mmlp/engine/wire.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/obs.hpp"
#include "probe.hpp"
#include "server.hpp"
#include "stats.hpp"

namespace wirebench {
namespace {

using mmlp::engine::SolveResult;
using mmlp::engine::WireCommand;

/// p90 needs at least ten samples beyond it.
constexpr std::size_t kMinTimedRequests = 100;
/// Traced-run slack: the share of the request wall time that no layer's
/// span accounts for may be at most this.
constexpr double kSelfTimeSlack = 0.05;
/// The probe's serial estimate of one request's view LPs must lie within
/// this factor of their stage span on a 1-worker session.
constexpr double kProbeSpanTolerance = 2.0;
/// Agents sampled by the view/simplex probe.
constexpr std::size_t kProbeSamples = 4000;
/// Requests of the 1-worker replay behind util.parallel.speedup_vs_t1.
constexpr int kT1Requests = 5;
/// Stream requests after the prime solve of every set-up.
constexpr int kWarmupRequests = 2;
/// Safe requests behind core.safe.solve_ms.
constexpr int kSafeRequests = 20;

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string instance;
  std::string commit = "unknown";
  std::string trace_out;
  std::string out_dir;
  int requests = 100;
};

Args parse_args(int argc, char** argv) {
  MMLP_CHECK_MSG(argc >= 2, "usage: wirebench run|gen --workload W --seed N ...");
  Args args;
  args.mode = argv[1];
  MMLP_CHECK_MSG(args.mode == "run" || args.mode == "gen",
                 "unknown mode '" << args.mode << "' (run or gen)");
  for (int a = 2; a < argc; a += 2) {
    const std::string key = argv[a];
    MMLP_CHECK_MSG(a + 1 < argc, "flag " << key << " needs a value");
    const std::string value = argv[a + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      MMLP_CHECK_MSG(value == "0" || value == "1", "--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (key == "--instance") {
      args.instance = value;
    } else if (key == "--commit") {
      args.commit = value;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else if (key == "--out") {
      args.out_dir = value;
    } else if (key == "--requests") {
      args.requests = std::stoi(value);
    } else {
      MMLP_CHECK_MSG(false, "unknown flag " << key);
    }
  }
  MMLP_CHECK_MSG(!args.workload.empty(), "--workload is required");
  MMLP_CHECK_MSG(args.seconds > 0.0, "--seconds must be positive");
  MMLP_CHECK_MSG(args.mode != "run" || !args.instance.empty(),
                 "run needs --instance FILE (write it with `wirebench gen`)");
  return args;
}

/// Pool workers plus the participating caller leave one core free: on a
/// shared host a loop that needs every core waits for whichever one a
/// neighbour holds, and its latency then measures the scheduler.
std::size_t pool_workers() {
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  return cores > 2 ? cores - 2 : 1;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  MMLP_CHECK_MSG(in.good(), "cannot read " << path);
  std::string text(static_cast<std::size_t>(in.tellg()), '\0');
  in.seekg(0);
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  MMLP_CHECK_MSG(in.good(), "cannot read " << path);
  return text;
}

// ---------------------------------------------------------------------------
// Requests and output checks
// ---------------------------------------------------------------------------

/// One request as the client saw it.
struct Exchange {
  double wall_ms = 0.0;
  std::uint64_t start_ns = 0, end_ns = 0;
  std::vector<LineOutcome> lines;

  const LineOutcome* solve_line() const {
    for (const LineOutcome& line : lines) {
      if (line.kind == WireCommand::Kind::kSolve && !line.error) {
        return &line;
      }
    }
    return nullptr;
  }
};

Exchange execute(Server& server, const Request& request, bool time_layers) {
  Exchange exchange;
  exchange.lines.reserve(request.lines.size());
  exchange.start_ns = now_ns();
  for (const std::string& line : request.lines) {
    exchange.lines.push_back(server.handle(line, time_layers));
  }
  exchange.end_ns = now_ns();
  exchange.wall_ms = ms_between(exchange.start_ns, exchange.end_ns);
  return exchange;
}

/// Hash of what a result answers: its encoded line without the echoed
/// id, the timings, the cache bookkeeping and the per-request counters
/// (which say how the answer was computed — a cold first solve builds
/// caches a warm one reuses — and, for scratch leases, follow the
/// scheduler), plus the bits of x, which the line carries only with
/// emit_x. Everything else must match bit for bit.
std::size_t result_digest(const std::string& line, const std::vector<double>& x) {
  static constexpr std::string_view kSkipped[] = {
      "\"id\": ",         "\"total_ms\": ",   "\"cache_build_ms\": ",
      "\"solve_ms\": ",   "\"cache_hits\": ", "\"cache_misses\": ",
      "\"counters\": {"};
  const std::size_t x_at = std::min(line.find("\"x\": ["), line.size());
  std::string head = line.substr(0, x_at);
  for (const std::string_view key : kSkipped) {
    const std::size_t at = head.find(key);
    if (at != std::string::npos) {
      const std::size_t end =
          head.find_first_of(key.back() == '{' ? "}" : ",}", at + key.size());
      head.erase(at + key.size(), end - at - key.size());
    }
  }
  const std::hash<std::string_view> hash;
  const std::string_view x_bytes(reinterpret_cast<const char*>(x.data()),
                                 x.size() * sizeof(double));
  return hash(head) ^ (hash(std::string_view(line).substr(x_at)) * 31) ^
         (hash(x_bytes) * 961);
}

/// The output checks. Every failed request counts once in `failed`.
class Checker {
 public:
  explicit Checker(const WorkloadConfig& config) : config_(config) {}

  void check(const Exchange& exchange) {
    ++attempted_;
    std::string problem;
    for (const LineOutcome& line : exchange.lines) {
      if (line.error) {
        problem = "error line: " + line.encoded.substr(0, 300);
        break;
      }
      if (line.kind != WireCommand::Kind::kSolve) {
        continue;
      }
      if (!line.result.feasible) {
        problem = "infeasible result";
        break;
      }
      if (!config_.mutable_session) {
        // Warm full solves of one request must encode identically.
        const std::size_t digest = result_digest(line.encoded, line.result.x);
        if (!have_digest_) {
          have_digest_ = true;
          digest_ = digest;
        } else if (digest != digest_) {
          problem = "result line differs from the first one";
          break;
        }
      }
    }
    if (!problem.empty()) {
      fail(problem);
    }
  }

  /// A failed whole-run check (bitwise comparisons at the end).
  void fail(const std::string& problem) {
    ++failed_;
    if (problems_.size() < 5) {
      problems_.push_back(problem);
    }
  }

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  const WorkloadConfig& config_;
  bool have_digest_ = false;
  std::size_t digest_ = 0;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> problems_;
};

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The end-of-run bitwise checks: the last incremental x against a cold
/// full solve of the mutated instance (update_stream), and the sharded
/// dedup x against a flat non-dedup solve (dedup_sharded). Both reference
/// solves run on fresh sessions.
void check_final(Server& server, const std::vector<double>& last_x,
                 Checker& checker) {
  const WorkloadConfig& config = server.config();
  if (!config.mutable_session && config.shards < 2) {
    return;
  }
  const mmlp::Instance reference_instance = server.instance();
  mmlp::engine::Session fresh(reference_instance,
                              mmlp::engine::SessionOptions{.threads = pool_workers()});
  const SolveResult reference = mmlp::engine::solve(
      fresh, mmlp::engine::SolveRequest{.algorithm = "averaging", .R = 1});
  if (!bitwise_equal(reference.x, last_x)) {
    checker.fail(config.mutable_session
                     ? "incremental x differs from a cold full solve"
                     : "sharded dedup x differs from a flat non-dedup solve");
  }
}

// ---------------------------------------------------------------------------
// Set-up and the timed phase
// ---------------------------------------------------------------------------

/// Warm a freshly built server: the prime solve, then a few requests of
/// a warm-up stream (its own seed, so the timed stream is the same for
/// any number of set-ups).
void warm_up(Server& server, std::uint64_t seed, Checker& checker) {
  RequestStream warm(server.config(), seed ^ 0x3a7e5eedULL, server.instance());
  checker.check(execute(server, {.lines = {warm.prime_line()}}, false));
  for (int w = 0; w < kWarmupRequests; ++w) {
    checker.check(execute(server, warm.next(), false));
  }
}

/// Per-request observations of a timed phase.
struct Phase {
  std::vector<double> latency_ms;
  double wall_s = 0.0;  ///< phase wall time minus client-side work
  std::vector<double> last_x;
  std::vector<mmlp::ThreadPool::WorkerStats> pool_before, pool_after;
};

/// Run the closed loop for `seconds` (and at least `min_requests`
/// requests, within a hard cap). Request generation, checks and
/// `observe` run outside the request timer and are taken out of the
/// phase wall time. Set-up is meant to fill every session cache, so a
/// timed request that misses one fails the run.
Phase run_phase(Server& server, RequestStream& stream, Checker& checker,
                double seconds, std::size_t min_requests, bool time_layers,
                const std::function<void(const Request&, const Exchange&)>& observe) {
  Phase phase;
  phase.pool_before = server.pool().worker_stats();
  const double hard_cap_s = 2.0 * seconds + 30.0;
  std::uint64_t client_ns = 0;
  std::int64_t cache_misses = 0;
  const std::uint64_t phase_start = now_ns();
  for (;;) {
    const std::uint64_t c0 = now_ns();
    const double elapsed_s = ms_between(phase_start, c0) * 1e-3;
    if ((elapsed_s - static_cast<double>(client_ns) * 1e-9 >= seconds &&
         phase.latency_ms.size() >= min_requests) ||
        elapsed_s >= hard_cap_s) {
      break;
    }
    const Request request = stream.next();
    const std::uint64_t c1 = now_ns();
    Exchange exchange = execute(server, request, time_layers);
    const std::uint64_t c2 = now_ns();
    phase.latency_ms.push_back(exchange.wall_ms);
    checker.check(exchange);
    for (LineOutcome& line : exchange.lines) {
      cache_misses += line.result.cache_misses;
    }
    if (observe) {
      observe(request, exchange);
    }
    if (const LineOutcome* solve = exchange.solve_line()) {
      phase.last_x = solve->result.x;
    }
    client_ns += (c1 - c0) + (now_ns() - c2);
  }
  phase.wall_s = ms_between(phase_start, now_ns()) * 1e-3 -
                 static_cast<double>(client_ns) * 1e-9;
  phase.pool_after = server.pool().worker_stats();
  if (cache_misses != 0) {
    checker.fail("timed requests missed the session caches " +
                 std::to_string(cache_misses) + " times");
  }
  return phase;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

void print_env(const Args& args) {
  std::cout << "env {\"nproc\": " << std::thread::hardware_concurrency()
            << ", \"cpu_model\": \"" << mmlp::engine::json_escape(cpu_model())
            << "\", \"pool_workers\": " << pool_workers()
            << ", \"build_type\": \"" << WIREBENCH_BUILD_TYPE
            << "\", \"commit\": \"" << mmlp::engine::json_escape(args.commit)
            << "\", \"workload\": \"" << args.workload
            << "\", \"seed\": " << args.seed << "}\n";
}

int finish(const Checker& checker, const std::map<std::string, double>& values,
           bool extra_ok = true) {
  for (const std::string& problem : checker.problems()) {
    std::cout << "check failed: " << problem << "\n";
  }
  std::printf("failed_frac %.6f ratio (%lld of %lld attempted)\n",
              static_cast<double>(checker.failed()) /
                  static_cast<double>(std::max<std::int64_t>(1, checker.attempted())),
              static_cast<long long>(checker.failed()),
              static_cast<long long>(checker.attempted()));
  const bool correct = checker.failed() == 0 && extra_ok;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << checker.attempted()
            << ", \"failed\": " << checker.failed()
            << ", \"values\": " << values_json(values) << "}" << std::endl;
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --trace 0: the end-to-end run
// ---------------------------------------------------------------------------

int run_end_to_end(const Args& args) {
  const WorkloadConfig& config = workload_config(args.workload);
  Checker checker(config);

  std::vector<double> setup_s;
  const auto set_up = [&]() {
    std::string text = read_text(args.instance);
    const std::uint64_t start = now_ns();
    auto server = std::make_unique<Server>(config, std::move(text), pool_workers());
    warm_up(*server, args.seed, checker);
    setup_s.push_back(ms_between(start, now_ns()) * 1e-3);
    return server;
  };

  // The first set-up serves the timed phase. Peak RSS is read right after
  // it, before the further set-ups: a set-up built on the freed heap of
  // the one before it reaches a peak that depends on how that heap was
  // left, not on what the program holds.
  std::unique_ptr<Server> server = set_up();
  RequestStream stream(config, args.seed, server->instance());
  const Phase phase = run_phase(*server, stream, checker, args.seconds,
                                kMinTimedRequests, false, nullptr);
  const double rss_mb = peak_rss_mb();
  check_final(*server, phase.last_x, checker);
  for (std::int32_t s = 1; s < config.setups; ++s) {
    server.reset();  // the previous set-up is freed before the next starts
    server = set_up();
  }

  const std::size_t n = phase.latency_ms.size();
  const double p90 = quantile(phase.latency_ms, 0.9);
  const auto beyond_p90 = static_cast<std::size_t>(std::count_if(
      phase.latency_ms.begin(), phase.latency_ms.end(),
      [p90](double v) { return v > p90; }));
  std::printf("setup_s is the median of %zu set-ups\n", setup_s.size());
  std::printf("%zu timed requests in %.3f s, %zu beyond p90\n", n, phase.wall_s,
              beyond_p90);
  return finish(checker, {
                             {"setup_s", median(setup_s)},
                             {"request_p50_ms", median(phase.latency_ms)},
                             {"request_p90_ms", p90},
                             {"requests_per_s", static_cast<double>(n) / phase.wall_s},
                             {"peak_rss_mb", rss_mb},
                         });
}

// ---------------------------------------------------------------------------
// --trace 1: the traced per-layer run
// ---------------------------------------------------------------------------

/// One span the harness recorded, or one program span it collected.
struct SpanRecord {
  const char* name = nullptr;
  const char* category = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
  std::int64_t request = -1;
};
constexpr std::uint32_t kHarnessTid = 1000;

/// The solver stages. Each runs inside the solver entry span the
/// registry opens, and none nests in another.
constexpr const char* kSolverStages[] = {
    "averaging.view_lps", "averaging.rep_lps", "averaging.scatter",
    "averaging.gather", "averaging.incremental"};

/// Duration sums of the program's spans (chunk spans skipped), plus the
/// fan-out window of a sharded solve.
struct StageTimes {
  std::map<std::string, double> ms;
  double entry_ms = 0.0;  ///< solver entry spans (category engine.solve)
  std::uint64_t fanout_begin = ~std::uint64_t{0}, fanout_end = 0;

  double get(const std::string& name) const {
    const auto it = ms.find(name);
    return it != ms.end() ? it->second : 0.0;
  }
  double solver_stages_ms() const {
    double total = 0.0;
    for (const char* stage : kSolverStages) {
      total += get(stage);
    }
    return total;
  }
  double fanout_ms() const {
    return fanout_end > fanout_begin ? ms_between(fanout_begin, fanout_end) : 0.0;
  }
};

StageTimes collect_stages(std::vector<SpanRecord>* keep, std::int64_t request) {
  StageTimes stages;
  for (const auto& [tid, event] : mmlp::obs::Tracer::instance().events()) {
    const std::string_view name = event.name;
    if (name.ends_with(".chunk")) {
      continue;
    }
    const double dur_ms = static_cast<double>(event.dur_ns) * 1e-6;
    stages.ms[std::string(name)] += dur_ms;
    if (std::string_view(event.category) == "engine.solve") {
      stages.entry_ms += dur_ms;
    }
    if (name == "shard.solve") {
      stages.fanout_begin = std::min(stages.fanout_begin, event.start_ns);
      stages.fanout_end = std::max(stages.fanout_end, event.start_ns + event.dur_ns);
    }
    if (keep != nullptr) {
      keep->push_back({event.name, event.category, event.start_ns, event.dur_ns,
                       tid, request});
    }
  }
  mmlp::obs::Tracer::instance().clear();
  return stages;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  out << "{\"traceEvents\": [";
  for (std::size_t s = 0; s < spans.size(); ++s) {
    const SpanRecord& span = spans[s];
    out << (s == 0 ? "\n" : ",\n") << "{\"name\": \"" << span.name
        << "\", \"cat\": \"" << span.category << "\", \"ph\": \"X\", \"ts\": "
        << json_number(static_cast<double>(span.start_ns) * 1e-3)
        << ", \"dur\": " << json_number(static_cast<double>(span.dur_ns) * 1e-3)
        << ", \"pid\": 1, \"tid\": " << span.tid
        << ", \"args\": {\"request\": " << span.request << "}}";
  }
  out << "\n]}\n";
  MMLP_CHECK_MSG(out.good(), "could not write " << path);
}

std::int64_t counter(const char* name) {
  return mmlp::obs::Registry::global().counter(name).value();
}

int run_traced(const Args& args) {
  const WorkloadConfig& config = workload_config(args.workload);
  Checker checker(config);
  mmlp::obs::Tracer& tracer = mmlp::obs::Tracer::instance();
  // Every per-layer metric is reported on every workload; one whose
  // layer the workload does not run reads 0.
  std::map<std::string, double> values;
  std::vector<SpanRecord> spans;  // written out at the end
  const bool averaging = config.algorithm == "averaging";

  // Set-up, traced: every cache built by its own accessor call.
  tracer.clear();
  tracer.set_enabled(true);
  const std::int64_t expansions_before = counter("bfs.ball_expansions");
  SetupBreakdown setup;
  Server server(config, read_text(args.instance), pool_workers(), &setup);
  values["graph.bfs.ball_expansions"] =
      static_cast<double>(counter("bfs.ball_expansions") - expansions_before);
  const StageTimes setup_stages = collect_stages(&spans, -1);
  tracer.set_enabled(false);
  warm_up(server, args.seed, checker);
  const bool sharded = server.sharded();

  values["core.instance.deserialize_ms"] = setup.deserialize_ms;
  values["engine.session.graph_build_ms"] = setup.graph_ms;
  values["engine.session.balls_build_ms"] = setup.balls_ms;
  values["engine.session.growth_build_ms"] = setup.growth_ms;
  values["engine.session.view_classes_build_ms"] = setup.view_classes_ms;
  values["core.view_class.build_ms"] = setup_stages.get("view_class.build");
  values["graph.bfs.all_balls_ms"] = setup_stages.get("bfs.all_balls");
  values["shard.build_ms"] = sharded ? setup.construct_ms : 0.0;
  values["shard.extract_ms"] = setup_stages.get("shard.extract");
  values["shard.halo_agents"] =
      sharded ? static_cast<double>(server.sharded_session().halo_agents()) : 0.0;
  std::size_t peak_ball = 0;
  if (averaging) {
    const auto peak_of = [&peak_ball](mmlp::engine::Session& session) {
      for (const auto& ball : session.balls(1, false)) {
        peak_ball = std::max(peak_ball, ball.size());
      }
    };
    if (sharded) {
      for (std::int32_t s = 0; s < server.sharded_session().num_shards(); ++s) {
        peak_of(server.sharded_session().shard_session(s));
      }
    } else {
      peak_of(server.session());
    }
  }
  values["graph.bfs.peak_ball"] = static_cast<double>(peak_ball);

  // Per-request observations shared by both phases.
  RequestStream stream(config, args.seed, server.instance());
  std::map<std::int32_t, std::vector<double>> dirty_by_k, resolved_by_k;
  std::vector<double> solves, pivots, lp_solves;
  double full_fallbacks = 0.0;
  const auto observe_common = [&](const Request& request, const Exchange& exchange) {
    const LineOutcome* solve = exchange.solve_line();
    if (solve == nullptr) {
      return;
    }
    const SolveResult& result = solve->result;
    const auto diag = [&result](const char* key) {
      const auto it = result.diagnostics.find(key);
      return it != result.diagnostics.end() ? it->second : 0.0;
    };
    solves.push_back(static_cast<double>(result.counters.at("simplex_solves")));
    pivots.push_back(static_cast<double>(result.counters.at("simplex_pivots")));
    lp_solves.push_back(diag("lp_solves"));
    if (config.mutable_session) {
      dirty_by_k[request.k].push_back(diag("dirty_agents"));
      resolved_by_k[request.k].push_back(diag("resolved_agents"));
      full_fallbacks += diag("incremental") == 0.0 ? 1.0 : 0.0;
    }
  };

  // Phase A, untraced: the reference p50 and the pool counters.
  const double half = args.seconds / 2.0;
  const Phase untraced =
      run_phase(server, stream, checker, half, 20, false, observe_common);
  const double untraced_p50 = median(untraced.latency_ms);
  double busy = 0.0, idle = 0.0, chunks = 0.0, steals = 0.0;
  for (std::size_t w = 0; w < untraced.pool_after.size(); ++w) {
    const auto& after = untraced.pool_after[w];
    const auto& before = untraced.pool_before[w];
    busy += static_cast<double>(after.busy_ns - before.busy_ns);
    idle += static_cast<double>(after.idle_ns - before.idle_ns);
    chunks += static_cast<double>(after.chunks - before.chunks);
    steals += static_cast<double>(after.steals - before.steals);
  }
  const auto per_request = static_cast<double>(untraced.latency_ms.size());
  values["util.parallel.busy_fraction"] = busy + idle > 0.0 ? busy / (busy + idle) : 0.0;
  values["util.parallel.chunks"] = chunks / per_request;
  values["util.parallel.steals"] = steals / per_request;

  // Phase B, traced: harness spans around every layer call, the program's
  // spans underneath, and an evaluate() of each returned x.
  //
  // Self times. Parse, apply and encode have no timed children. The solve
  // span's children are, on a flat session, the solver entry span the
  // registry opens and the registry's evaluate() of x, timed again here;
  // on a sharded session, the shard fan-out window and the stitch, which
  // evaluates the stitched x. What they leave of the solve span is the
  // registry's self time. The entry span's children are the solver
  // stages; what they leave is the solver's unstaged time. The registry's
  // self time plus the harness loop is the unattributed time. The
  // children are timed apart from the solve span, so it can exceed
  // kSelfTimeSlack of the request wall, which fails the run.
  std::vector<double> parse_ms, encode_ms, encode_bytes, solve_ms, reported_ms,
      unreported_ms, solve_self_ms, unstaged_ms, evaluate_ms, apply_ms, repaired,
      fanout_ms, stitch_ms;
  std::map<std::string, std::vector<double>> stage_ms;
  double wall_sum = 0.0, attributed_sum = 0.0, stage_sum = 0.0, entry_sum = 0.0;
  std::vector<double> party_benefit;
  const auto observe_traced = [&](const Request& request, const Exchange& exchange) {
    observe_common(request, exchange);
    const auto id = static_cast<std::int64_t>(parse_ms.size());
    const StageTimes stages = collect_stages(&spans, id);
    double parse = 0.0, encode = 0.0, bytes = 0.0, attributed = 0.0;
    spans.push_back({"request", "wirebench", exchange.start_ns,
                     exchange.end_ns - exchange.start_ns, kHarnessTid, id});
    for (const LineOutcome& line : exchange.lines) {
      const bool solve = line.kind == WireCommand::Kind::kSolve;
      parse += ms_between(line.start_ns, line.parsed_ns);
      encode += ms_between(line.dispatched_ns, line.end_ns);
      spans.push_back({"engine.wire.parse", "wirebench", line.start_ns,
                       line.parsed_ns - line.start_ns, kHarnessTid, id});
      spans.push_back({solve ? "engine.registry.solve" : "engine.session.apply",
                       "wirebench", line.parsed_ns,
                       line.dispatched_ns - line.parsed_ns, kHarnessTid, id});
      spans.push_back({"engine.wire.encode", "wirebench", line.dispatched_ns,
                       line.end_ns - line.dispatched_ns, kHarnessTid, id});
      if (solve) {
        bytes += static_cast<double>(line.encoded.size());
      } else {
        const double apply = ms_between(line.parsed_ns, line.dispatched_ns);
        apply_ms.push_back(apply);
        attributed += apply;
        repaired.push_back(static_cast<double>(line.report.repaired_entries));
      }
    }
    parse_ms.push_back(parse);
    encode_ms.push_back(encode);
    encode_bytes.push_back(bytes);
    attributed += parse + encode;
    wall_sum += exchange.wall_ms;

    const LineOutcome* line = exchange.solve_line();
    if (line == nullptr) {
      attributed_sum += attributed;
      return;
    }
    const double solve = ms_between(line->parsed_ns, line->dispatched_ns);
    solve_ms.push_back(solve);
    reported_ms.push_back(line->result.total_ms);
    unreported_ms.push_back(solve - line->result.total_ms);
    for (const char* stage : kSolverStages) {
      stage_ms[stage].push_back(stages.get(stage));
    }
    fanout_ms.push_back(stages.fanout_ms());
    stitch_ms.push_back(stages.get("shard.stitch"));

    const std::uint64_t e0 = now_ns();
    mmlp::evaluate(server.instance(), line->result.x, &party_benefit);
    const std::uint64_t e1 = now_ns();
    evaluate_ms.push_back(ms_between(e0, e1));
    spans.push_back({"core.solution.evaluate", "wirebench", e0, e1 - e0,
                     kHarnessTid, id});

    const double children = sharded
                                ? stages.fanout_ms() + stages.get("shard.stitch")
                                : stages.entry_ms + evaluate_ms.back();
    solve_self_ms.push_back(solve - children);
    unstaged_ms.push_back(stages.entry_ms - stages.solver_stages_ms());
    stage_sum += stages.solver_stages_ms();
    entry_sum += stages.entry_ms;
    attributed_sum += attributed + children;
  };
  tracer.clear();
  tracer.set_enabled(true);
  const Phase traced =
      run_phase(server, stream, checker, half, 20, true, observe_traced);
  tracer.set_enabled(false);
  const double traced_p50 = median(traced.latency_ms);

  values["engine.wire.parse_ms"] = median(parse_ms);
  values["engine.wire.encode_ms"] = median(encode_ms);
  values["engine.wire.encode_bytes"] = median(encode_bytes);
  values["engine.registry.solve_ms"] = median(solve_ms);
  values["engine.registry.reported_ms"] = median(reported_ms);
  values["engine.registry.unreported_ms"] = median(unreported_ms);
  values["engine.registry.self_ms"] = median(solve_self_ms);
  values["engine.registry.unstaged_ms"] = median(unstaged_ms);
  values["core.solution.evaluate_ms"] = median(evaluate_ms);
  values["engine.session.apply_ms"] = median(apply_ms);
  values["engine.session.apply_repaired_entries"] = mean(repaired);
  for (const std::int32_t k : {1, 16, 256}) {
    values["core.incremental.dirty_agents_k" + std::to_string(k)] =
        mean(dirty_by_k[k]);
    values["core.incremental.resolved_agents_k" + std::to_string(k)] =
        mean(resolved_by_k[k]);
  }
  values["core.incremental.full_fallbacks"] = full_fallbacks;
  values["core.local_averaging.view_lps_ms"] = median(stage_ms["averaging.view_lps"]);
  values["core.local_averaging.rep_lps_ms"] = median(stage_ms["averaging.rep_lps"]);
  values["core.local_averaging.scatter_ms"] = median(stage_ms["averaging.scatter"]);
  values["core.local_averaging.gather_ms"] = median(stage_ms["averaging.gather"]);
  values["core.local_averaging.incremental_ms"] =
      median(stage_ms["averaging.incremental"]);
  values["engine.sharded_session.fanout_ms"] = median(fanout_ms);
  values["engine.sharded_session.stitch_ms"] = median(stitch_ms);
  values["lp.simplex.solves"] = median(solves);
  values["lp.simplex.pivots"] = median(pivots);
  // Dedup: one LP per view orbit over every shard's core + halo agents.
  const double served = static_cast<double>(server.instance().num_agents()) +
                        values["shard.halo_agents"];
  values["core.view_class.lp_solves"] = sharded ? median(lp_solves) : 0.0;
  values["core.view_class.dedup_ratio"] =
      sharded ? 1.0 - median(lp_solves) / served : 0.0;
  const double unattributed =
      wall_sum > 0.0 ? (wall_sum - attributed_sum) / wall_sum : 0.0;
  values["trace.untraced_p50_ms"] = untraced_p50;
  values["trace.traced_p50_ms"] = traced_p50;
  values["trace.overhead_ms"] = traced_p50 - untraced_p50;
  values["trace.unattributed_frac"] = unattributed;
  values["trace.stage_cover_frac"] = entry_sum > 0.0 ? stage_sum / entry_sum : 0.0;
  values["trace.samples"] = static_cast<double>(traced.latency_ms.size());

  // The view / simplex probe.
  ProbeResult probe;
  if (averaging) {
    mmlp::engine::Session& session = server.session();
    probe = probe_view_lps(session.instance(), session.balls(1, false), 1,
                           args.seed, kProbeSamples);
  }
  values["core.view.extract_us"] = probe.extract_us;
  values["core.view.lp_build_us"] = probe.lp_build_us;
  values["lp.simplex.solve_us"] = probe.solve_us;
  values["lp.simplex.pivots_per_lp"] = probe.pivots_per_lp;

  // averaging_random replays on a 1-worker session, traced. Its wall time
  // gives util.parallel.speedup_vs_t1, and its view-LP stage span is what
  // the probe's serial estimate (per-LP cost × LPs per request) must
  // explain. The same checker holds its results to the pooled ones, bit
  // for bit.
  double speedup = 0.0, probe_ratio = 0.0;
  bool probe_ok = true;
  if (averaging && !config.mutable_session && !sharded) {
    Server serial(config, read_text(args.instance), 1);
    warm_up(serial, args.seed, checker);
    RequestStream replay(config, args.seed, serial.instance());
    std::vector<double> serial_ms, serial_lp_ms;
    tracer.clear();
    tracer.set_enabled(true);
    for (int r = 0; r < kT1Requests; ++r) {
      const Exchange exchange = execute(serial, replay.next(), false);
      const StageTimes stages = collect_stages(nullptr, -1);
      checker.check(exchange);
      serial_ms.push_back(exchange.wall_ms);
      serial_lp_ms.push_back(stages.get("averaging.view_lps") +
                             stages.get("averaging.rep_lps"));
    }
    tracer.set_enabled(false);
    speedup = median(serial_ms) / untraced_p50;
    const double probe_serial_ms =
        (probe.extract_us + probe.lp_build_us + probe.solve_us) *
        values["lp.simplex.solves"] * 1e-3;
    // Both sides take their fastest repeat, as the probe does per figure.
    probe_ratio = probe_serial_ms /
                  *std::min_element(serial_lp_ms.begin(), serial_lp_ms.end());
    probe_ok = probe_ratio >= 1.0 / kProbeSpanTolerance &&
               probe_ratio <= kProbeSpanTolerance;
    std::printf("the probe estimates %.3f of the 1-worker view-LP span "
                "(tolerance x%.1f)%s\n",
                probe_ratio, kProbeSpanTolerance, probe_ok ? "" : " -- FAILED");
  }
  values["util.parallel.speedup_vs_t1"] = speedup;
  values["core.view.probe_span_ratio"] = probe_ratio;

  // No end-to-end workload serves safe, so the traced run of
  // averaging_random also sends safe requests (with x) to its session and
  // reads the solver's span.
  std::vector<double> safe_ms;
  if (averaging && !config.mutable_session && !sharded) {
    tracer.clear();
    tracer.set_enabled(true);
    for (int r = 0; r < kSafeRequests; ++r) {
      const LineOutcome line =
          server.handle("{\"id\": 0, \"algorithm\": \"safe\"}", false);
      safe_ms.push_back(collect_stages(&spans, -1).get("safe.solve"));
      if (line.error || !line.result.feasible) {
        checker.fail("safe request: " + line.encoded.substr(0, 300));
        break;
      }
    }
    tracer.set_enabled(false);
  }
  values["core.safe.solve_ms"] = median(safe_ms);

  check_final(server, traced.last_x, checker);
  if (!args.trace_out.empty()) {
    write_chrome_trace(args.trace_out, spans);
  }

  const bool adds_up = std::fabs(unattributed) <= kSelfTimeSlack;
  std::printf("layer spans leave %.3f%% of the request wall unattributed "
              "(slack %.0f%%)%s\n",
              unattributed * 100.0, kSelfTimeSlack * 100.0,
              adds_up ? "" : " -- FAILED");
  return finish(checker, values, adds_up && probe_ok);
}

// ---------------------------------------------------------------------------
// gen: write a workload's inputs to files
// ---------------------------------------------------------------------------

int run_gen(const Args& args) {
  MMLP_CHECK_MSG(!args.out_dir.empty(), "gen needs --out DIR");
  const WorkloadConfig& config = workload_config(args.workload);
  const mmlp::Instance generated = make_instance(config, args.seed);
  const std::string stem =
      args.out_dir + "/" + args.workload + "-" + std::to_string(args.seed);
  {
    std::ofstream out(stem + ".instance", std::ios::binary);
    out << generated.serialize();
    MMLP_CHECK_MSG(out.good(), "could not write " << stem << ".instance");
  }
  std::cout << "wrote " << stem << ".instance";
  if (args.requests > 0) {
    RequestStream stream(config, args.seed, generated);
    std::ofstream jsonl(stem + ".jsonl");
    jsonl << stream.prime_line() << '\n';
    for (int r = 0; r < args.requests; ++r) {
      for (const std::string& line : stream.next().lines) {
        jsonl << line << '\n';
      }
    }
    MMLP_CHECK_MSG(jsonl.good(), "could not write " << stem << ".jsonl");
    std::cout << " and " << stem << ".jsonl";
  }
  std::cout << "\n";
  return 0;
}

}  // namespace
}  // namespace wirebench

int main(int argc, char** argv) {
  using namespace wirebench;
  try {
    const Args args = parse_args(argc, argv);
    if (args.mode == "gen") {
      return run_gen(args);
    }
#ifndef NDEBUG
    constexpr bool kAssertsOn = true;
#else
    constexpr bool kAssertsOn = false;
#endif
    if (std::string_view(WIREBENCH_BUILD_TYPE) != "Release" || kAssertsOn) {
      std::cerr << "wirebench: refusing to report from a '"
                << WIREBENCH_BUILD_TYPE << "' build; build with "
                << "-DCMAKE_BUILD_TYPE=Release\n";
      return 2;
    }
    print_env(args);
    return args.trace ? run_traced(args) : run_end_to_end(args);
  } catch (const std::exception& error) {
    std::cerr << "wirebench: " << error.what() << "\n";
    return 1;
  }
}
