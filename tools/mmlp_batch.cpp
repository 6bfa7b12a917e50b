// mmlp_batch — the "many requests, one hot session" front-end.
//
// Loads (or generates) one max-min LP instance, opens a persistent
// engine::Session on it, then reads JSONL solve requests (stdin or
// --requests FILE) and streams one JSONL result per request to stdout.
// The session caches balls/growth sets/worker scratch across requests,
// so request #2..#N on the same radius pay only for the algorithm
// proper — the cache_build_ms field of each result line shows exactly
// what the request paid for.
//
//   # two averaging solves; the second is warm
//   printf '{"algorithm": "averaging"}\n%.0s' 1 2 |
//     mmlp_batch --generate grid_torus --agents 10000
//
//   # run a whole request file against a serialized instance
//   mmlp_batch --input net.mmlp --requests load.jsonl --out results.jsonl
//
// Request/response wire format: src/mmlp/engine/wire.hpp. Lines with
// "op": "update" are routed through Session::apply, which edits the
// instance in place and surgically repairs the session caches — so a
// hot batch can interleave edits with (incremental) solves:
//
//   {"algorithm": "averaging", "incremental": true, "id": 1}
//   {"op": "update", "set_usage": [{"i": 5, "v": 9, "a": 0.25}], "id": 2}
//   {"algorithm": "averaging", "incremental": true, "id": 3}
//
// --shards N (N >= 2) partitions the instance into N halo-overlapped
// shards and serves every request through an engine::ShardedSession —
// results (including --emit-x vectors) are bitwise-equal to the flat
// batch; --halo-radius and --shard-strategy tune the cut. Local
// per-agent solvers only (safe, averaging, distributed-*).
//
// {"op": "stats"} lines answer with the process observability state
// (session caches, per-worker pool activity, obs::Registry metrics);
// --trace-out FILE records every span of the batch as Chrome Trace
// Event JSON (load in Perfetto / chrome://tracing) and --metrics-out
// FILE dumps the final metrics snapshot.
//
// Blank lines and lines starting with '#' are skipped, so request files
// can carry comments. By default a malformed or failing request
// produces an {"error": ..., "code": ..., "line": N} result line — N is
// the 1-based input line number of the offending request, and code is
// the stable taxonomy of wire.hpp (parse | validate | timeout |
// cancelled | internal) — and processing continues (a long batch is not
// lost to one typo); --fail-fast (alias --strict) turns the first
// failure fatal. The exit summary counts failures per code.
//
// --default-deadline-ms applies a wall-clock budget to every solve that
// does not set its own deadline_ms; --fault-plan replays a fault
// schedule on every selfstab-* solve that does not carry its own
// fault_plan key.
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "mmlp/engine/session.hpp"
#include "mmlp/engine/sharded_session.hpp"
#include "mmlp/engine/solver.hpp"
#include "mmlp/engine/wire.hpp"
#include "mmlp/util/cancel.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/cli.hpp"
#include "mmlp/util/fault.hpp"
#include "mmlp/util/obs.hpp"
#include "mmlp/util/parallel.hpp"
#include "mmlp/util/timer.hpp"

#include "scenarios.hpp"

namespace {

mmlp::Instance load_or_generate(const mmlp::ArgParser& args) {
  using namespace mmlp;
  const std::string input = args.get_string("input");
  if (!input.empty()) {
    std::ifstream in(input);
    MMLP_CHECK_MSG(static_cast<bool>(in), "cannot open " << input);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return Instance::deserialize(buffer.str());
  }
  return bench_scenarios::make_scenario(args.get_string("generate"),
                                        args.get_int("agents"));
}

/// Runs the whole batch; main() turns a set-up exception into one
/// `mmlp_batch: <reason>` line and exit 1.
int serve(int argc, char** argv) {
  using namespace mmlp;
  ArgParser args(
      "Serve JSONL solve requests against one instance over a hot "
      "engine::Session.");
  args.add_flag("input", "instance file (mmlp text format); empty = generate",
                "");
  args.add_flag("generate",
                "generator when no input: grid_torus|random|geometric|isp|"
                "regular_bipartite",
                "grid_torus");
  args.add_flag("agents", "approximate agent count for the generator", "10000");
  args.add_flag("requests", "JSONL request file; '-' = stdin", "-");
  args.add_flag("out", "JSONL result file; '-' = stdout", "-");
  args.add_flag("threads",
                "worker threads for the session pool (0 = hardware)", "0");
  args.add_flag("shards",
                "partition the instance into N shards with halo overlap and "
                "serve solves through a ShardedSession (0/1 = flat session); "
                "output is bitwise-equal to the unsharded batch",
                "0");
  args.add_flag("halo-radius",
                "halo hops per shard; averaging at radius R needs >= 2R+1",
                "3");
  args.add_flag("shard-strategy",
                "agent partition strategy: contiguous|bfs", "contiguous");
  args.add_switch("emit-x", "include the full solution vector per result");
  args.add_switch("strict", "abort on the first malformed/failing request");
  args.add_switch("fail-fast", "alias of --strict");
  args.add_flag("default-deadline-ms",
                "wall-clock budget applied to every solve request that does "
                "not set deadline_ms itself (0 = unlimited)",
                "0");
  args.add_flag("fault-plan",
                "fault schedule (FaultPlan grammar, e.g. "
                "'s7;0:drop:3:5;1:crash:2') replayed by every selfstab-* "
                "request that does not carry its own fault_plan key",
                "");
  args.add_flag("trace-out",
                "enable the span tracer for the whole batch and write the "
                "Chrome Trace Event JSON (load in Perfetto) to FILE",
                "");
  args.add_flag("metrics-out",
                "write the final obs::Registry metrics snapshot (counters, "
                "gauges, histogram percentiles) as one JSON object to FILE",
                "");
  if (!args.parse(argc, argv)) {
    return 1;
  }

  const std::string trace_out = args.get_string("trace-out");
  const std::string metrics_out = args.get_string("metrics-out");
  if (!trace_out.empty()) {
    obs::Tracer::instance().set_enabled(true);
  }

  // Checked before use: a negative --threads would wrap to a huge pool
  // size, and a negative --shards would be served flat without a word.
  const auto int32_flag = [&args](const char* name, std::int64_t min) {
    const std::int64_t value = args.get_int(name);
    MMLP_CHECK_MSG(value >= min &&
                       value <= std::numeric_limits<std::int32_t>::max(),
                   "--" << name << " must be an int32 >= " << min << ", got "
                        << value);
    return static_cast<std::int32_t>(value);
  };
  const auto threads = static_cast<std::size_t>(int32_flag("threads", 0));
  const std::int32_t shard_count = int32_flag("shards", 0);
  const std::int32_t halo_radius = int32_flag("halo-radius", 1);

  Instance instance = load_or_generate(args);  // mutable: updates edit it
  const bool sharded = shard_count >= 2;
  std::unique_ptr<engine::Session> session;
  std::unique_ptr<engine::ShardedSession> sharded_session;
  if (sharded) {
    sharded_session = std::make_unique<engine::ShardedSession>(
        instance,
        engine::ShardedOptions{
            .shards = shard_count,
            .halo_radius = halo_radius,
            .strategy = shard::partition_strategy_from_string(
                args.get_string("shard-strategy")),
            .threads = threads});
    std::cerr << "mmlp_batch: instance with " << instance.num_agents()
              << " agents, " << instance.num_resources() << " resources, "
              << instance.num_parties() << " parties; " << shard_count
              << " shard(s), halo radius "
              << sharded_session->halo_radius() << ", "
              << sharded_session->halo_agents() << " halo agent(s), shared "
              << "pool of " << sharded_session->worker_threads()
              << " thread(s)\n";
  } else {
    session = std::make_unique<engine::Session>(instance,
                                                engine::SessionOptions{
                                                    .threads = threads});
    std::cerr << "mmlp_batch: instance with " << instance.num_agents()
              << " agents, " << instance.num_resources() << " resources, "
              << instance.num_parties() << " parties; session pool "
              << session->thread_count() << " thread(s)\n";
  }

  const std::string requests_path = args.get_string("requests");
  std::ifstream requests_file;
  if (requests_path != "-") {
    requests_file.open(requests_path);
    MMLP_CHECK_MSG(static_cast<bool>(requests_file),
                   "cannot open " << requests_path);
  }
  std::istream& requests =
      requests_path == "-" ? std::cin : requests_file;

  const std::string out_path = args.get_string("out");
  std::ofstream out_file;
  if (out_path != "-") {
    out_file.open(out_path);
    MMLP_CHECK_MSG(static_cast<bool>(out_file), "cannot write " << out_path);
  }
  std::ostream& out = out_path == "-" ? std::cout : out_file;

  const bool emit_x = args.get_bool("emit-x");
  const bool fail_fast = args.get_bool("strict") || args.get_bool("fail-fast");
  const auto default_deadline_ms =
      static_cast<std::int64_t>(args.get_int("default-deadline-ms"));
  MMLP_CHECK_MSG(default_deadline_ms >= 0,
                 "--default-deadline-ms must be >= 0, got "
                     << default_deadline_ms);
  const std::string default_fault_plan = args.get_string("fault-plan");
  if (!default_fault_plan.empty()) {
    // Fail at startup, not on request #1: the flag shares the request
    // key's grammar and validation.
    FaultPlan::parse(default_fault_plan);
  }
  std::int64_t served = 0;
  std::int64_t failed = 0;
  std::map<std::string, std::int64_t> failed_by_code;
  std::int64_t line_number = 0;
  WallTimer batch_timer;
  // One line's failure, routed through the stable error-code taxonomy
  // of wire.hpp. Returns true when the batch should abort (--fail-fast).
  const auto report_failure = [&](const std::string& code,
                                  const std::string& message) {
    ++failed;
    ++failed_by_code[code];
    out << engine::error_to_json_line(code, message,
                                      static_cast<std::size_t>(line_number))
        << '\n';
    if (fail_fast) {
      out.flush();
      std::cerr << "mmlp_batch: aborting on failed request at line "
                << line_number << " (--fail-fast, code " << code
                << "): " << message << '\n';
      return true;
    }
    return false;
  };
  std::string line;
  while (std::getline(requests, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    try {
      engine::WireCommand command = engine::parse_command_line(line);
      if (command.kind == engine::WireCommand::Kind::kUpdate) {
        const engine::Session::ApplyReport report =
            sharded ? sharded_session->apply(command.delta)
                    : session->apply(command.delta);
        out << engine::apply_report_to_json_line(report, command.id) << '\n';
      } else if (command.kind == engine::WireCommand::Kind::kStats) {
        out << (sharded
                    ? engine::stats_to_json_line(*sharded_session, command.id)
                    : engine::stats_to_json_line(*session, command.id))
            << '\n';
      } else {
        if (command.request.deadline_ms == 0) {
          command.request.deadline_ms = default_deadline_ms;
        }
        if (command.request.fault_plan.empty() &&
            command.request.algorithm.rfind("selfstab-", 0) == 0) {
          command.request.fault_plan = default_fault_plan;
        }
        const engine::SolveResult result =
            sharded ? sharded_session->solve(command.request)
                    : engine::solve(*session, command.request);
        if (result.status != engine::SolveStatus::kOk) {
          // Timed-out/cancelled solves answer an error line, not a
          // result line: there is no solution to report, and stream
          // consumers dispatch on the code.
          if (report_failure(engine::solve_status_name(result.status),
                             result.error)) {
            return 1;
          }
          continue;
        }
        out << engine::result_to_json_line(result, command.id, emit_x) << '\n';
      }
      ++served;
    } catch (const engine::WireParseError& error) {
      if (report_failure("parse", error.what())) {
        return 1;
      }
    } catch (const CancelledError& error) {
      // engine::solve converts expiry into the status taxonomy; this
      // catch covers cancellation unwinding out of update/stats paths.
      if (report_failure(error.reason() == CancelReason::kDeadline
                             ? "timeout"
                             : "cancelled",
                         error.what())) {
        return 1;
      }
    } catch (const CheckError& error) {
      if (report_failure("validate", error.what())) {
        return 1;
      }
    } catch (const std::exception& error) {
      if (report_failure("internal", error.what())) {
        return 1;
      }
    }
  }
  out.flush();

  if (!trace_out.empty()) {
    obs::Tracer::instance().set_enabled(false);
    std::ofstream trace_file(trace_out);
    MMLP_CHECK_MSG(static_cast<bool>(trace_file),
                   "cannot write " << trace_out);
    trace_file << obs::Tracer::instance().to_chrome_json() << '\n';
    std::cerr << "mmlp_batch: wrote trace to " << trace_out;
    if (const std::uint64_t dropped = obs::Tracer::instance().dropped();
        dropped > 0) {
      std::cerr << " (" << dropped << " span(s) dropped on full buffers)";
    }
    std::cerr << '\n';
  }
  if (!metrics_out.empty()) {
    // Refresh the session gauges so the snapshot carries final cache
    // entry counts, not whatever the last stats query left behind.
    (void)(sharded ? sharded_session->stats() : session->stats());
    std::ofstream metrics_file(metrics_out);
    MMLP_CHECK_MSG(static_cast<bool>(metrics_file),
                   "cannot write " << metrics_out);
    metrics_file << obs::Registry::global().to_json_line() << '\n';
    std::cerr << "mmlp_batch: wrote metrics to " << metrics_out << '\n';
  }

  const engine::SessionStats stats =
      sharded ? sharded_session->stats() : session->stats();
  std::cerr << "mmlp_batch: served " << served << " request(s), " << failed
            << " failed";
  if (!failed_by_code.empty()) {
    std::cerr << " (";
    bool first = true;
    for (const auto& [code, count] : failed_by_code) {
      std::cerr << (first ? "" : ", ") << code << ": " << count;
      first = false;
    }
    std::cerr << ')';
  }
  std::cerr << ", " << batch_timer.milliseconds() << " ms total; "
            << "session caches: " << stats.cache_hits << " hit(s), "
            << stats.cache_misses << " miss(es), " << stats.cache_build_ms
            << " ms building; scratch: " << stats.scratch_reused
            << " reuse(s), " << stats.scratch_created << " creation(s)";
  if (stats.integrity_fallbacks > 0) {
    std::cerr << "; INTEGRITY FALLBACKS: " << stats.integrity_fallbacks;
  }
  std::cerr << '\n';
  // --fail-fast already exited inside the loop on the first failure;
  // other batches report failures per line and exit clean.
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return serve(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "mmlp_batch: " << error.what() << '\n';
    return 1;
  }
}
