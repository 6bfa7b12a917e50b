// The unified request/response solver API.
//
// Every algorithm in the repo — safe, local averaging, the centralized
// baselines, the exact LP, the sublinear estimator, and the LOCAL-model
// re-derivations — answers the same max-min LP instance, so the engine
// exposes them behind one SolveRequest/SolveResult pair plus a
// name-keyed SolverRegistry. A request names the algorithm and carries
// the union of all tuning knobs (radius, damping, hypergraph mode,
// simplex settings, thread count, sampling parameters); the result
// carries the solution, the common evaluation (ω, feasibility,
// per-party benefits), algorithm-specific diagnostics, and a timing
// breakdown that separates the algorithm proper from session-cache
// building — the observable that warm repeat solves drive to zero.
//
// solve(session, request) is the single entry point callers use; the
// examples, the bench harness and tools/mmlp_batch all route through it
// instead of dispatching on algorithm names by hand.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "mmlp/core/baselines.hpp"
#include "mmlp/core/local_averaging.hpp"
#include "mmlp/core/optimal.hpp"
#include "mmlp/engine/session.hpp"
#include "mmlp/lp/simplex.hpp"
#include "mmlp/util/cancel.hpp"

namespace mmlp::engine {

/// One solve request against the session's instance. Fields outside an
/// algorithm's vocabulary are ignored by it (R means nothing to "safe");
/// the registry entry documents which knobs each solver reads.
struct SolveRequest {
  std::string algorithm = "safe";  ///< registry key; see SolverRegistry::names()

  std::int32_t R = 1;  ///< view radius (the three averaging solvers)
  AveragingDamping damping = AveragingDamping::kBetaPerAgent;
  bool collaboration_oblivious = false;  ///< drop party hyperedges from H
  /// averaging only: solve one view LP per view orbit (agents whose
  /// views are bit-identical local structures) instead of one per
  /// agent, so the output stays bitwise identical to the
  /// non-deduplicated solve; the session caches the orbit partition per
  /// (radius, mode). Diagnostics gain dedup_ratio (lp_solves is
  /// reported always). Other solvers ignore it.
  bool deduplicate = false;
  /// safe and averaging only: re-solve only the dirty region of the
  /// deltas applied (via Session::apply) since the previous solve of
  /// the same shape, and splice into the memoized result. Bitwise
  /// identical to a full solve of the mutated instance; the first solve,
  /// id-remapping deltas, and non-local option combinations run the full
  /// algorithm. Diagnostics gain incremental / dirty_agents /
  /// resolved_agents. Other solvers ignore it. Incremental requests must
  /// not run concurrently on one session.
  bool incremental = false;
  /// Enable the mmlp::obs span tracer for the duration of this request
  /// (no-op when a caller — e.g. mmlp_batch --trace-out — already turned
  /// it on globally). The collected spans stay in the process-wide
  /// Tracer; export them with obs::Tracer::instance().to_chrome_json().
  bool trace = false;
  SimplexOptions simplex;  ///< LP settings for view LPs and the exact solver
  /// Worker threads for this request: 0 = the session's pool. A nonzero
  /// value must currently match the session pool (requests do not spin
  /// up private pools); the engine checks and reports a CheckError on
  /// mismatch so a mis-sized deployment fails loudly.
  std::size_t threads = 0;
  /// Shard count for partitioned solving: 0 = whatever the serving
  /// session is. Any other value must match the serving layout: the
  /// shard count of a ShardedSession (engine::ShardedSession::solve), 1
  /// on a flat Session, so a request meant for a sharded deployment
  /// fails loudly instead of silently solving monolithically.
  std::int32_t shards = 0;

  std::uint64_t seed = 1;        ///< sublinear party sampling
  std::int32_t samples = 64;     ///< sublinear sample count
  double confidence = 0.95;      ///< sublinear Hoeffding level
  GreedyOptions greedy;          ///< greedy baseline tuning
  OptimalOptions optimal;        ///< exact-solver tuning (simplex field
                                 ///< overridden by `simplex` above)

  /// Wall-clock budget for this request in milliseconds; 0 = unlimited.
  /// When the budget runs out the solve stops cooperatively (workers
  /// finish their current chunk), the result carries status kTimeout
  /// with no solution, and the session's caches stay valid — the next
  /// request on the same session is bitwise-equal to a fresh-session
  /// run.
  std::int64_t deadline_ms = 0;
  /// Replayable fault schedule for the selfstab-* algorithms
  /// (FaultPlan::serialize grammar, e.g. "s7;0:drop:3:5;1:crash:2").
  /// Empty = fault-free. Other algorithms reject a non-empty plan.
  std::string fault_plan;
};

/// How a request ended. kTimeout/kCancelled results carry no solution
/// (has_solution false, x empty) and an explanatory `error` string.
enum class SolveStatus : std::uint8_t {
  kOk,         ///< ran to completion
  kTimeout,    ///< deadline_ms elapsed before the solver finished
  kCancelled,  ///< the caller's CancelToken was cancelled explicitly
};

/// Stable wire name: "ok", "timeout", "cancelled".
const char* solve_status_name(SolveStatus status);

/// The response. For estimator algorithms (sublinear) has_solution is
/// false and x is empty — the estimate lives in `diagnostics`.
struct SolveResult {
  std::string algorithm;

  /// kOk unless the request timed out or was cancelled; then `error`
  /// holds the reason and the solution fields below are empty.
  SolveStatus status = SolveStatus::kOk;
  std::string error;

  bool has_solution = false;
  std::vector<double> x;               ///< per-agent activities (when has_solution)
  double omega = 0.0;                  ///< min_k benefit of x (0 without a solution)
  bool feasible = false;               ///< evaluate(x).feasible()
  std::vector<double> party_benefit;   ///< Σ_v c_kv x_v per party k

  /// Algorithm diagnostics, e.g. averaging {"ratio_bound", "R"},
  /// greedy {"steps"}, optimal {"exact"}, sublinear {"mean_benefit",
  /// "half_width", "agents_evaluated"}.
  std::map<std::string, double> diagnostics;

  /// Timing breakdown. total_ms covers the solver and the eq. (1)
  /// evaluation of x (on a ShardedSession: the fan-out, the stitch and
  /// one evaluation of the stitched x), and total_ms = cache_build_ms +
  /// solve_ms up to clock granularity; cache_build_ms is the
  /// session-cache construction this request paid for (0 on a warm
  /// session — the acceptance observable of BENCH_engine.json), summed
  /// over the shard sessions on a ShardedSession. The cache numbers are
  /// derived from deltas of session-global counters: exact when solves
  /// on a session run one at a time (every current caller); when
  /// requests overlap on one session, or shard builds overlap in one
  /// fan-out, they may exceed the wall time (cache_build_ms is clamped
  /// to total_ms, so solve_ms never goes negative).
  double total_ms = 0.0;
  double cache_build_ms = 0.0;
  double solve_ms = 0.0;
  std::int64_t cache_hits = 0;    ///< warm cache lookups during this solve
  std::int64_t cache_misses = 0;  ///< cache entries built during this solve

  /// Deltas of the global obs::Registry counters across this request:
  /// simplex_solves / simplex_pivots, bfs_ball_expansions,
  /// scratch_leases, and the fault, timeout and integrity counters
  /// (kSurfacedCounters in registry.cpp). Session-global like the cache
  /// numbers above, with the same caveat under overlapping solves.
  std::map<std::string, std::int64_t> counters;
};

/// Name → solver dispatch. Entries wrap the *_with(Session&) overloads;
/// the common post-processing (evaluation, timing) happens in the
/// request shell, run_request().
class SolverRegistry {
 public:
  /// Fills x/has_solution/diagnostics; the request shell fills the rest.
  using SolverFn = std::function<void(Session&, const SolveRequest&, SolveResult&)>;

  struct Entry {
    std::string name;
    std::string description;  ///< one line, shown by tools and --help output
    bool faultable = false;   ///< reads request.fault_plan? (selfstab-*)
    SolverFn run;
  };

  SolverRegistry() = default;

  /// Register an entry; throws CheckError on a duplicate name.
  void add(Entry entry);

  bool contains(const std::string& name) const;

  /// Lookup; a CheckError on an unknown name spells out the requested
  /// algorithm and the registered ones.
  const Entry& find(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

  /// The built-in registry: safe, averaging, uniform, greedy, optimal,
  /// sublinear, distributed-safe, distributed-averaging, selfstab-safe,
  /// selfstab-averaging.
  static const SolverRegistry& builtin();

 private:
  std::map<std::string, Entry> entries_;
};

/// Run one request on a session through `registry`: the request shell
/// (run_request below) around the entry's run and the eq. (1)
/// evaluation of x.
///
/// `cancel`, when given, is the caller's cancellation handle: cancel()
/// from any thread stops the solve cooperatively (status kCancelled),
/// and request.deadline_ms arms its deadline. With cancel == nullptr a
/// request-local token still enforces deadline_ms. Expiry never throws
/// out of solve(); it is reported through SolveResult::status, and the
/// session's caches remain valid for the next request.
SolveResult solve(Session& session, const SolveRequest& request,
                  const SolverRegistry& registry,
                  CancelToken* cancel = nullptr);

/// As above with the built-in registry.
SolveResult solve(Session& session, const SolveRequest& request,
                  CancelToken* cancel = nullptr);

/// The request shell both front-ends share: engine::solve on a flat
/// Session and ShardedSession::solve, serving on a pool of `threads`
/// workers and `shards` shards (1 when flat). Once per request it
/// checks the request against `entry` and that layout, arms one cancel
/// token (the caller's, or a request-local one) with deadline_ms,
/// counts engine.requests and engine.request_ms, maps a CancelledError
/// to kTimeout / kCancelled, and fills the counters and the cache
/// breakdown from deltas of `stats`. `dispatch` fills x (already
/// evaluated against eq. (1)), has_solution and diagnostics; its time
/// is total_ms.
SolveResult run_request(const SolveRequest& request,
                        const SolverRegistry::Entry& entry,
                        std::size_t threads, std::int32_t shards,
                        const std::function<SessionStats()>& stats,
                        const std::function<void(SolveResult&)>& dispatch,
                        CancelToken* cancel);

}  // namespace mmlp::engine
