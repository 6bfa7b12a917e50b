// The built-in solver registry and the one request shell.
//
// Each entry adapts one *_with(Session&) overload to the uniform
// request/response shape. run_request() is the one request shell of
// both front-ends (engine::solve here, ShardedSession::solve): checks,
// deadline, request metrics, status mapping and the timing/cache
// breakdown derived from session stats deltas, around a dispatch step
// that each front-end supplies.
#include "mmlp/engine/solver.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "mmlp/core/safe.hpp"
#include "mmlp/core/solution.hpp"
#include "mmlp/core/sublinear.hpp"
#include "mmlp/dist/algorithms.hpp"
#include "mmlp/dist/self_stabilizing_solver.hpp"
#include "mmlp/util/cancel.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/fault.hpp"
#include "mmlp/util/obs.hpp"
#include "mmlp/util/timer.hpp"

namespace mmlp::engine {

namespace {

LocalAveragingOptions averaging_options(const SolveRequest& request) {
  LocalAveragingOptions options;
  options.R = request.R;
  options.collaboration_oblivious = request.collaboration_oblivious;
  options.damping = request.damping;
  options.lp = request.simplex;
  options.deduplicate = request.deduplicate;
  return options;
}

void attach_incremental_diagnostics(const IncrementalStats& stats,
                                    SolveResult& result) {
  result.diagnostics["incremental"] = stats.incremental ? 1.0 : 0.0;
  result.diagnostics["dirty_agents"] = static_cast<double>(stats.dirty_agents);
  result.diagnostics["resolved_agents"] =
      static_cast<double>(stats.resolved_agents);
}

void attach_averaging_diagnostics(const LocalAveragingResult& averaging,
                                  bool deduplicate, SolveResult& result) {
  result.diagnostics["ratio_bound"] = averaging.ratio_bound;
  result.diagnostics["peak_ball"] = static_cast<double>(averaging.peak_ball);
  result.diagnostics["lp_solves"] = static_cast<double>(averaging.lp_solves);
  if (deduplicate) {
    result.diagnostics["dedup_ratio"] = averaging.dedup_ratio;
  }
}

/// Shared body of the selfstab-* entries: replay the request's fault
/// plan against a self-stabilizing execution, then recover with clean
/// rounds and report how many it took. SelfStabilizingSolver::recover
/// enforces the stabilization contract: at most horizon + 1 clean rounds
/// from ANY state.
void run_selfstab(Session& session, const SolveRequest& request,
                  SolveResult& result,
                  SelfStabilizingSolver::Algorithm algorithm) {
  SelfStabilizingSolver solver(session, algorithm, averaging_options(request));

  FaultPlan plan;
  if (!request.fault_plan.empty()) {
    plan = FaultPlan::parse(request.fault_plan);
  }
  FaultInjector faults(std::move(plan));
  const std::int32_t faulty_rounds = solver.run_plan(faults);

  obs::Registry& metrics = obs::Registry::global();
  static obs::Counter& injected = metrics.counter("fault.injected");
  static obs::Counter& recovery_rounds_total =
      metrics.counter("selfstab.rounds_to_legitimate");
  static obs::Counter& recoveries = metrics.counter("selfstab.recoveries");
  injected.add(faults.faults_injected());

  const std::int32_t recovery_rounds = solver.recover();
  recovery_rounds_total.add(recovery_rounds);
  recoveries.increment();

  result.x = solver.output();
  result.has_solution = true;
  result.diagnostics["faulty_rounds"] = static_cast<double>(faulty_rounds);
  result.diagnostics["faults_injected"] =
      static_cast<double>(faults.faults_injected());
  result.diagnostics["rounds_to_legitimate"] =
      static_cast<double>(recovery_rounds);
  result.diagnostics["horizon"] = static_cast<double>(solver.horizon());
  if (algorithm == SelfStabilizingSolver::Algorithm::kAveraging) {
    result.diagnostics["R"] = static_cast<double>(request.R);
  }
}

SolverRegistry make_builtin() {
  SolverRegistry registry;
  registry.add({
      .name = "safe",
      .description = "eq. (2) per-agent rule; horizon 1, Δ_I^V-approximation",
      .run =
          [](Session& session, const SolveRequest& request,
             SolveResult& result) {
            if (request.incremental) {
              IncrementalStats stats;
              result.x = safe_solution_incremental(session, &stats);
              attach_incremental_diagnostics(stats, result);
            } else {
              result.x = safe_solution_with(session);
            }
            result.has_solution = true;
          },
  });
  registry.add({
      .name = "averaging",
      .description =
          "Theorem 3 local averaging: view LPs + β damping (knobs: R, "
          "damping, collaboration_oblivious, simplex)",
      .run =
          [](Session& session, const SolveRequest& request,
             SolveResult& result) {
            // An incremental solve is served from the session's memo,
            // so only x is copied out of it.
            LocalAveragingResult owned;
            if (request.incremental) {
              IncrementalStats stats;
              const LocalAveragingResult& averaging =
                  local_averaging_incremental_in_place(
                      session, averaging_options(request), &stats, owned);
              result.x = averaging.x;
              attach_incremental_diagnostics(stats, result);
              attach_averaging_diagnostics(averaging, request.deduplicate,
                                           result);
            } else {
              owned = local_averaging_with(session, averaging_options(request));
              result.x = std::move(owned.x);
              attach_averaging_diagnostics(owned, request.deduplicate, result);
            }
            result.has_solution = true;
            result.diagnostics["R"] = static_cast<double>(request.R);
          },
  });
  registry.add({
      .name = "uniform",
      .description = "centralised baseline: one global activity level",
      .run =
          [](Session& session, const SolveRequest&, SolveResult& result) {
            result.x = uniform_solution_with(session);
            result.has_solution = true;
          },
  });
  registry.add({
      .name = "greedy",
      .description =
          "centralised water-filling baseline (knobs: greedy.max_steps, "
          "greedy.step_fraction, greedy.min_gain)",
      .run =
          [](Session& session, const SolveRequest& request,
             SolveResult& result) {
            GreedyResult greedy = greedy_waterfill_with(session, request.greedy);
            result.x = std::move(greedy.x);
            result.has_solution = true;
            result.diagnostics["steps"] = static_cast<double>(greedy.steps);
          },
  });
  registry.add({
      .name = "optimal",
      .description =
          "global optimum ω* via dense simplex, MWU fallback at scale "
          "(knobs: optimal.method, optimal.simplex_agent_limit, simplex)",
      .run =
          [](Session& session, const SolveRequest& request,
             SolveResult& result) {
            OptimalOptions options = request.optimal;
            options.simplex = request.simplex;
            OptimalResult optimal = solve_optimal_with(session, options);
            result.x = std::move(optimal.x);
            result.has_solution = true;
            result.diagnostics["exact"] = optimal.exact ? 1.0 : 0.0;
            result.diagnostics["used_simplex"] =
                optimal.method_used == OptimalMethod::kSimplex ? 1.0 : 0.0;
          },
  });
  registry.add({
      .name = "sublinear",
      .description =
          "sublinear-time mean-party-benefit estimate of the safe solution "
          "(knobs: samples, confidence, seed; no solution vector)",
      .run =
          [](Session& session, const SolveRequest& request,
             SolveResult& result) {
            SublinearOptions options;
            options.samples = request.samples;
            options.confidence = request.confidence;
            options.seed = request.seed;
            const SublinearEstimate estimate =
                estimate_mean_party_benefit_with(session, options);
            result.has_solution = false;
            result.diagnostics["mean_benefit"] = estimate.mean_benefit;
            result.diagnostics["half_width"] = estimate.half_width;
            result.diagnostics["value_bound"] = estimate.value_bound;
            result.diagnostics["agents_evaluated"] =
                static_cast<double>(estimate.agents_evaluated);
            result.diagnostics["samples"] =
                static_cast<double>(estimate.samples);
          },
  });
  registry.add({
      .name = "distributed-safe",
      .description =
          "LOCAL-model safe: flood 1 round, per-agent eq. (2); bitwise "
          "equal to safe (knobs: collaboration_oblivious)",
      .run =
          [](Session& session, const SolveRequest& request,
             SolveResult& result) {
            result.x = distributed_safe_with(session,
                                             request.collaboration_oblivious);
            result.has_solution = true;
          },
  });
  registry.add({
      .name = "distributed-averaging",
      .description =
          "LOCAL-model Theorem 3: flood 2R+1 rounds, per-agent re-solve; "
          "bitwise equal to averaging (knobs: R, collaboration_oblivious, "
          "simplex; damping fixed to the per-agent rule; deduplicate and "
          "incremental ignored)",
      .run =
          [](Session& session, const SolveRequest& request,
             SolveResult& result) {
            result.x = distributed_local_averaging_with(
                session, averaging_options(request));
            result.has_solution = true;
            result.diagnostics["R"] = static_cast<double>(request.R);
            // One materialize-and-solve pipeline per agent.
            result.diagnostics["lp_solves"] =
                static_cast<double>(result.x.size());
          },
  });
  registry.add({
      .name = "selfstab-safe",
      .description =
          "self-stabilizing safe: replay fault_plan, recover within "
          "horizon+1 clean rounds, then eq. (2); bitwise equal to safe "
          "(knobs: fault_plan, collaboration_oblivious)",
      .faultable = true,
      .run =
          [](Session& session, const SolveRequest& request,
             SolveResult& result) {
            run_selfstab(session, request, result,
                         SelfStabilizingSolver::Algorithm::kSafe);
          },
  });
  registry.add({
      .name = "selfstab-averaging",
      .description =
          "self-stabilizing Theorem 3: replay fault_plan, recover within "
          "2R+2 clean rounds, then the Section 5.1 pipeline; bitwise equal "
          "to distributed-averaging (knobs: fault_plan, R, "
          "collaboration_oblivious, simplex)",
      .faultable = true,
      .run =
          [](Session& session, const SolveRequest& request,
             SolveResult& result) {
            run_selfstab(session, request, result,
                         SelfStabilizingSolver::Algorithm::kAveraging);
          },
  });
  return registry;
}

/// The obs counters surfaced as SolveResult.counters, as
/// (registry name, diagnostics key) pairs.
constexpr std::pair<const char*, const char*> kSurfacedCounters[] = {
    {"simplex.solves", "simplex_solves"},
    {"simplex.pivots", "simplex_pivots"},
    {"bfs.ball_expansions", "bfs_ball_expansions"},
    {"scratch.leases", "scratch_leases"},
    {"fault.injected", "faults_injected"},
    {"selfstab.rounds_to_legitimate", "rounds_to_legitimate"},
    {"engine.timeouts", "timeouts"},
    {"engine.cancellations", "cancellations"},
    {"session.integrity_fallbacks", "integrity_fallbacks"},
};

std::int64_t counter_value(const obs::MetricsSnapshot& snapshot,
                           const char* name) {
  const auto it = snapshot.counters.find(name);
  return it != snapshot.counters.end() ? it->second : 0;
}

}  // namespace

void SolverRegistry::add(Entry entry) {
  MMLP_CHECK_MSG(!entry.name.empty(), "solver entry must be named");
  MMLP_CHECK_MSG(entry.run != nullptr,
                 "solver entry '" << entry.name << "' has no run function");
  const auto [it, inserted] = entries_.emplace(entry.name, std::move(entry));
  MMLP_CHECK_MSG(inserted, "duplicate solver entry '" << it->first << "'");
}

bool SolverRegistry::contains(const std::string& name) const {
  return entries_.find(name) != entries_.end();
}

const SolverRegistry::Entry& SolverRegistry::find(
    const std::string& name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::ostringstream known;
    for (const auto& [key, entry] : entries_) {
      known << (known.tellp() > 0 ? ", " : "") << key;
    }
    MMLP_CHECK_MSG(false, "unknown algorithm '" << name << "' (registered: "
                                                << known.str() << ")");
  }
  return it->second;
}

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    names.push_back(key);
  }
  return names;  // std::map iteration is already sorted
}

const SolverRegistry& SolverRegistry::builtin() {
  static const SolverRegistry registry = make_builtin();
  return registry;
}

const char* solve_status_name(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOk:
      return "ok";
    case SolveStatus::kTimeout:
      return "timeout";
    case SolveStatus::kCancelled:
      return "cancelled";
  }
  return "ok";
}

SolveResult run_request(const SolveRequest& request,
                        const SolverRegistry::Entry& entry,
                        std::size_t threads, std::int32_t shards,
                        const std::function<SessionStats()>& stats,
                        const std::function<void(SolveResult&)>& dispatch,
                        CancelToken* cancel) {
  MMLP_CHECK_MSG(request.threads == 0 || request.threads == threads,
                 "request wants " << request.threads << " threads but the "
                                  << "session pool has " << threads
                                  << " workers (size the session, not the "
                                     "request)");
  MMLP_CHECK_MSG(request.shards == 0 || request.shards == shards,
                 "request wants " << request.shards << " shards but the "
                                  << "serving session has " << shards
                                  << " (serve N shards through a "
                                     "ShardedSession, e.g. mmlp_batch "
                                     "--shards N)");
  MMLP_CHECK_MSG(request.deadline_ms >= 0,
                 "deadline_ms must be >= 0 (0 = unlimited), got "
                     << request.deadline_ms);
  MMLP_CHECK_MSG(request.fault_plan.empty() || entry.faultable,
                 "algorithm '" << entry.name
                               << "' does not replay fault plans (use a "
                               << "selfstab-* algorithm)");

  SolveResult result;
  result.algorithm = entry.name;

  // The caller's token (so an explicit cancel() is observed) or a
  // request-local one; either way deadline_ms arms it.
  CancelToken local_token;
  CancelToken* token = cancel != nullptr ? cancel : &local_token;
  if (request.deadline_ms > 0) {
    token->set_deadline_after_ms(request.deadline_ms);
  }

  const obs::ScopedTraceEnable trace_scope(request.trace);
  obs::Registry& metrics = obs::Registry::global();
  static obs::Counter& requests = metrics.counter("engine.requests");
  static obs::Counter& timeouts = metrics.counter("engine.timeouts");
  static obs::Counter& cancellations = metrics.counter("engine.cancellations");
  requests.increment();
  const obs::MetricsSnapshot counters_before = metrics.snapshot();

  const SessionStats before = stats();
  WallTimer timer;
  try {
    const cancel::CancelScope scope(token);
    token->raise_if_expired();
    dispatch(result);
  } catch (const CancelledError& error) {
    // Cooperative abort: the solver unwound through the bulk scheduler's
    // poison path, so no partial work escaped — session caches either
    // completed their build or were never inserted, and incremental
    // memos invalidate themselves before any in-place mutation. Report
    // through the status taxonomy instead of rethrowing.
    const SolveStatus status = error.reason() == CancelReason::kDeadline
                                   ? SolveStatus::kTimeout
                                   : SolveStatus::kCancelled;
    result = SolveResult{
        .algorithm = entry.name, .status = status, .error = error.what()};
    (status == SolveStatus::kTimeout ? timeouts : cancellations).increment();
  }
  result.total_ms = timer.milliseconds();
  const SessionStats after = stats();

  metrics.histogram("engine.request_ms").observe(result.total_ms);
  const obs::MetricsSnapshot counters_after = metrics.snapshot();
  for (const auto& [name, key] : kSurfacedCounters) {
    result.counters[key] = counter_value(counters_after, name) -
                           counter_value(counters_before, name);
  }
  // Stats are session-global, so when solves overlap on one session a
  // request may observe cache work another request paid for; clamp the
  // derived solve_ms so the breakdown stays sane (see SolveResult docs).
  result.cache_build_ms =
      std::min(after.cache_build_ms - before.cache_build_ms, result.total_ms);
  result.solve_ms = result.total_ms - result.cache_build_ms;
  result.cache_hits = after.cache_hits - before.cache_hits;
  result.cache_misses = after.cache_misses - before.cache_misses;
  return result;
}

SolveResult solve(Session& session, const SolveRequest& request,
                  const SolverRegistry& registry, CancelToken* cancel) {
  const SolverRegistry::Entry& entry = registry.find(request.algorithm);
  return run_request(
      request, entry, session.thread_count(), 1,
      [&] { return session.stats(); },
      [&](SolveResult& result) {
        {
          obs::ObsSpan span(entry.name.c_str(), "engine.solve");
          entry.run(session, request, result);
        }
        // eq. (1) evaluation is part of what the caller pays, so it runs
        // before the clock stops.
        if (result.has_solution) {
          obs::ObsSpan span("solve.evaluate", "engine");
          const Evaluation evaluation =
              evaluate(session.instance(), result.x, &result.party_benefit);
          result.omega = evaluation.omega;
          result.feasible = evaluation.feasible();
        }
      },
      cancel);
}

SolveResult solve(Session& session, const SolveRequest& request,
                  CancelToken* cancel) {
  return solve(session, request, SolverRegistry::builtin(), cancel);
}

}  // namespace mmlp::engine
