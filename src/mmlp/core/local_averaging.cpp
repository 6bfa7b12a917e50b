// Theorem 3 / Section 5.1: solve every agent's view LP (9), then damp
// the ball average by β_j (eq. (10)).
//
// Every solve mode runs the same executor over a plan. The modes differ
// only in two agent sets — which agents get a view LP, and which get
// their eq. (10) average re-gathered:
//
//   full         LP: every agent          gather: every agent
//   dedup        LP: orbit representatives, then each member copies
//                its representative's solution   gather: every agent
//   incremental  LP: B(T, R)              gather: B(T, 2R)
//
// The LP loop is chunked so each worker amortises one ViewScratch —
// view extraction, LP rows and the simplex tableau all reuse the same
// memory across the agents of a chunk; the outputs (view_omega, view_x)
// are per-agent slots, so the result is identical to the serial run.
// Agents in one view orbit have bit-identical view structures
// (view_class.hpp), so they provably solve the same LP and the verbatim
// copy is the bitwise per-agent result.
//
// The eq. (10) accumulation is a parallel *gather*: agent j sums
// x^u_j over u ∈ V^j in ascending u, which is exactly the addition
// order of the former serial scatter loop (u ∈ V^j ⇔ j ∈ V^u, and the
// scatter visited u ascending) — so the parallel result is bitwise
// identical to the serial one for any thread count. A scatter with
// per-worker partial buffers could not offer that: merging per-chunk
// partial sums regroups the additions, which changes the rounding. The
// index of j inside V^u comes from the session's ball-position cache
// (BallPositions, laid out like the balls), so the gather reads x^u_j
// directly instead of searching V^u for j per entry.
//
// Every expensive derived structure (communication graph, balls, ball
// positions, growth sets, view orbits, worker scratch) is pulled from an
// engine::Session;
// the classic free function simply runs against a session that lives
// for one call.
#include "mmlp/core/local_averaging.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>

#include "mmlp/core/solution.hpp"
#include "mmlp/engine/session.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/obs.hpp"
#include "mmlp/util/parallel.hpp"

namespace mmlp {

namespace {

/// Which agents one run touches. A null agent list means every agent.
struct AveragingPlan {
  const std::vector<AgentId>* lp_agents = nullptr;  ///< solve view LP (9)
  /// Dedup plans: lp_agents are this index's orbit representatives, and
  /// every other member copies its representative's view solution.
  const ViewClassIndex* orbits = nullptr;
  const std::vector<AgentId>* gather_agents = nullptr;  ///< re-gather eq. (10)

  bool incremental() const { return gather_agents != nullptr; }
};

AveragingPlan full_plan(engine::Session& session,
                        const LocalAveragingOptions& options) {
  AveragingPlan plan;
  if (options.deduplicate) {
    plan.orbits =
        &session.view_classes(options.R, options.collaboration_oblivious);
    plan.lp_agents = &plan.orbits->orbit_rep;
  }
  return plan;
}

std::size_t agent_at(const std::vector<AgentId>* agents, std::size_t index) {
  return agents != nullptr ? static_cast<std::size_t>((*agents)[index])
                           : index;
}

/// Lays `view_x` out like `balls`. An incremental plan keeps the layout
/// unless n grew or a ball of its LP set changed size (no other ball
/// can), and then moves every other agent's slot over; a full plan
/// writes every slot, so it keeps none.
void lay_out(const std::vector<std::vector<AgentId>>& balls,
             const AveragingPlan& plan, engine::ViewSolutions& view_x) {
  const std::size_t n = balls.size();
  const std::vector<AgentId>* lp = plan.lp_agents;
  const auto kept = [&](std::size_t u) {
    return u + 1 < view_x.offset.size() && view_x.size(u) == balls[u].size();
  };
  if (plan.incremental() && view_x.offset.size() == n + 1 &&
      std::ranges::all_of(*lp, kept)) {
    return;
  }
  engine::ViewSolutions fresh{std::vector<std::size_t>(n + 1, 0), nullptr};
  for (std::size_t u = 0; u < n; ++u) {
    fresh.offset[u + 1] = fresh.offset[u] + balls[u].size();
  }
  fresh.values = std::make_unique_for_overwrite<double[]>(fresh.offset[n]);
  for (std::size_t u = 0; plan.incremental() && u < n; ++u) {
    if (kept(u)) {
      std::copy_n(view_x.slot(u), balls[u].size(), fresh.slot(u));
    } else {
      MMLP_CHECK(std::binary_search(lp->begin(), lp->end(),
                                    static_cast<AgentId>(u)));
    }
  }
  view_x = std::move(fresh);
}

/// The one executor: runs `plan` against `result` and `view_x`, which
/// hold the previous run's state for an incremental plan and are
/// (re)sized to the instance here. Slots outside the plan's sets keep
/// their values.
void run_plan(engine::Session& session, const LocalAveragingOptions& options,
              const AveragingPlan& plan, LocalAveragingResult& result,
              engine::ViewSolutions& view_x) {
  MMLP_CHECK_GE(options.R, 1);
  const Instance& instance = session.instance();
  const auto n = static_cast<std::size_t>(instance.num_agents());
  if (n == 0) {
    result = LocalAveragingResult{};
    view_x = {};
    return;
  }
  const std::vector<std::vector<AgentId>>& balls =
      session.balls(options.R, options.collaboration_oblivious);
  const BallPositions& positions =
      session.ball_positions(options.R, options.collaboration_oblivious);
  const GrowthSets& sets =
      session.growth_sets(options.R, options.collaboration_oblivious);
  // An incremental run is one "averaging.incremental" stage; the full
  // and dedup runs report their LP, copy and gather stages separately.
  std::optional<obs::ObsSpan> incremental_stage;
  if (plan.incremental()) {
    incremental_stage.emplace("averaging.incremental", "solver");
  }
  // Added agents are always inside an incremental plan's sets, so
  // growing the vectors leaves no stale slot unrepaired.
  lay_out(balls, plan, view_x);
  result.view_omega.resize(n, 0.0);
  result.x.resize(n, 0.0);
  result.beta.resize(n, 0.0);
  result.ball_size.resize(n, 0);

  // 1. View LP (9) for every agent of the plan, each solved exactly as
  //    any other plan would solve it (same extraction, scratch and
  //    simplex), so a re-solved unchanged view reproduces its bits.
  const std::size_t lp_count =
      plan.lp_agents != nullptr ? plan.lp_agents->size() : n;
  {
    std::optional<obs::ObsSpan> stage;
    if (!plan.incremental()) {
      stage.emplace(plan.orbits != nullptr ? "averaging.rep_lps"
                                           : "averaging.view_lps",
                    "solver");
    }
    const char* const chunk_name =
        plan.incremental()       ? "averaging.incremental.view_lp.chunk"
        : plan.orbits != nullptr ? "averaging.rep_lp.chunk"
                                 : "averaging.view_lp.chunk";
    chunked_parallel_for(
        lp_count,
        [&](std::size_t begin, std::size_t end) {
          obs::ObsSpan chunk(chunk_name, "solver");
          auto scratch = session.view_scratch().acquire();
          LocalView view;
          for (std::size_t index = begin; index < end; ++index) {
            // One view LP per iteration: poll the cancel token here so
            // deadlines fire promptly even on a single-thread pool.
            cancel::checkpoint();
            const std::size_t u = agent_at(plan.lp_agents, index);
            extract_view_into(instance, static_cast<AgentId>(u), options.R,
                              balls[u], view, *scratch);
            ViewLpSolution solution = solve_view_lp(view, options.lp, *scratch);
            MMLP_CHECK_EQ(solution.x.size(), view_x.size(u));
            result.view_omega[u] = solution.omega;
            std::copy(solution.x.begin(), solution.x.end(), view_x.slot(u));
          }
        },
        session.pool());
  }

  // 2. Dedup plans: copy each representative's solution to the other
  //    members of its orbit.
  if (plan.orbits != nullptr) {
    obs::ObsSpan stage("averaging.scatter", "solver");
    const ViewClassIndex& orbits = *plan.orbits;
    chunked_parallel_for(
        n,
        [&](std::size_t begin, std::size_t end) {
          obs::ObsSpan chunk("averaging.scatter.chunk", "solver");
          for (std::size_t u = begin; u < end; ++u) {
            const auto rep = static_cast<std::size_t>(
                orbits.orbit_rep[static_cast<std::size_t>(orbits.orbit_of[u])]);
            if (rep != u) {
              MMLP_CHECK_EQ(view_x.size(u), view_x.size(rep));
              result.view_omega[u] = result.view_omega[rep];
              std::copy_n(view_x.slot(rep), view_x.size(u), view_x.slot(u));
            }
          }
        },
        session.pool());
  }

  // 3. x̃_j = (β_j / |V^j|) Σ_{u∈V^j} x^u_j, gathered in parallel: agent j
  //    owns its own sum and reads x^u_j for u ∈ V^j (u ∈ V^j ⇔ j ∈ V^u —
  //    balls are symmetric — so j's local index inside V^u exists; the
  //    cached position row of j holds it, and each entry is checked to
  //    point at j), adding in ascending u.
  //    The growth-derived fields come from the session (apply() repairs
  //    them in place) and are copied on the gather set only: β_j moves
  //    within B(T, R+1) and |V^j| within B(T, R), both inside B(T, 2R).
  //    The two maxima are stored in the sets, so reading them is O(1).
  result.ratio_bound = sets.ratio_bound;
  result.peak_ball = sets.peak_ball;
  double beta_global = 1.0;
  if (options.damping == AveragingDamping::kBetaGlobal) {
    for (const double beta : sets.beta) {
      beta_global = std::min(beta_global, beta);
    }
  }
  std::optional<obs::ObsSpan> gather_stage;
  if (!plan.incremental()) {
    gather_stage.emplace("averaging.gather", "solver");
  }
  const char* const gather_chunk_name =
      plan.incremental() ? "averaging.incremental.gather.chunk"
                         : "averaging.gather.chunk";
  chunked_parallel_for(
      plan.incremental() ? plan.gather_agents->size() : n,
      [&](std::size_t begin, std::size_t end) {
        obs::ObsSpan chunk(gather_chunk_name, "solver");
        for (std::size_t index = begin; index < end; ++index) {
          const std::size_t j = agent_at(plan.gather_agents, index);
          const std::vector<AgentId>& ball_j = balls[j];
          MMLP_CHECK_EQ(ball_j.size(), view_x.size(j));
          MMLP_CHECK_EQ(ball_j.size(), positions.size(j));
          result.beta[j] = sets.beta[j];
          result.ball_size[j] = sets.ball_size[j];
          const AgentId self = static_cast<AgentId>(j);
          const std::uint16_t* const row = positions.row(j);
          double sum = 0.0;
          for (std::size_t t = 0; t < ball_j.size(); ++t) {
            const auto u = static_cast<std::size_t>(ball_j[t]);
            const std::size_t pos = row[t];
            MMLP_CHECK(pos < balls[u].size() && balls[u][pos] == self);
            sum += view_x.slot(u)[pos];
          }
          MMLP_CHECK_GT(result.ball_size[j], 0u);
          const double average =
              sum / static_cast<double>(result.ball_size[j]);
          switch (options.damping) {
            case AveragingDamping::kBetaPerAgent:
              result.x[j] = result.beta[j] * average;
              break;
            case AveragingDamping::kBetaGlobal:
              result.x[j] = beta_global * average;
              break;
            case AveragingDamping::kNone:
            case AveragingDamping::kNoneThenScale:
              result.x[j] = average;
              break;
          }
        }
      },
      session.pool());
  // Only full plans reach here with kNoneThenScale (it is not spliceable).
  if (options.damping == AveragingDamping::kNoneThenScale) {
    scale_to_feasible(instance, result.x);
  }

  result.lp_solves = lp_count;
  result.dedup_ratio =
      plan.orbits != nullptr ? plan.orbits->dedup_ratio() : 0.0;
}

/// Everything the memoized state depends on. deduplicate is excluded on
/// purpose: the orbit copy is bitwise equal to dedup-off, so their
/// memos are interchangeable.
std::string averaging_fingerprint(const LocalAveragingOptions& options) {
  std::ostringstream key;
  key << "averaging|R=" << options.R
      << "|oblivious=" << options.collaboration_oblivious
      << "|damping=" << static_cast<int>(options.damping)
      << "|lp=" << fingerprint(options.lp);
  return key.str();
}

}  // namespace

LocalAveragingResult local_averaging(const Instance& instance,
                                     const LocalAveragingOptions& options) {
  engine::Session session(instance);
  return local_averaging_with(session, options);
}

LocalAveragingResult local_averaging_with(engine::Session& session,
                                          const LocalAveragingOptions& options) {
  LocalAveragingResult result;
  engine::ViewSolutions view_x;
  run_plan(session, options, full_plan(session, options), result, view_x);
  return result;
}

const LocalAveragingResult& local_averaging_incremental_in_place(
    engine::Session& session, const LocalAveragingOptions& options,
    IncrementalStats* stats, LocalAveragingResult& fallback) {
  const auto n = static_cast<std::size_t>(session.instance().num_agents());
  IncrementalStats accounting;
  accounting.dirty_agents = n;
  accounting.resolved_agents = n;

  // Splicing needs per-agent locality. kBetaGlobal couples every output
  // to the global β minimum and kNoneThenScale rescales through a global
  // feasibility factor — one edit can move every coordinate, so those
  // run the full plan without a memo.
  const bool spliceable = options.damping == AveragingDamping::kBetaPerAgent ||
                          options.damping == AveragingDamping::kNone;
  if (!spliceable) {
    if (stats != nullptr) {
      *stats = accounting;
    }
    return fallback = local_averaging_with(session, options);
  }

  engine::AveragingMemo& memo =
      session.averaging_memo(averaging_fingerprint(options));
  std::optional<std::vector<AgentId>> dirty_view;
  std::optional<std::vector<AgentId>> dirty_gather;
  if (memo.valid) {
    dirty_view = session.dirty_since(memo.revision, options.R,
                                     options.collaboration_oblivious);
    if (dirty_view.has_value()) {
      dirty_gather = session.dirty_since(memo.revision, 2 * options.R,
                                         options.collaboration_oblivious);
    }
  }
  // The first solve and a remap or pruned log (dirty_since nullopt) run
  // the full plan; otherwise an edit with touched set T changes view LPs
  // only inside B(T, R) and x̃_j only inside B(T, 2R).
  AveragingPlan plan;
  if (dirty_gather.has_value()) {
    plan.lp_agents = &*dirty_view;
    plan.gather_agents = &*dirty_gather;
    accounting.incremental = true;
    accounting.dirty_agents = dirty_view->size();
    accounting.resolved_agents = dirty_gather->size();
  } else {
    plan = full_plan(session, options);
  }

  // Invalidate before any in-place mutation: an abandoned run
  // (cancellation, deadline, a thrown check) must leave the memo marked
  // stale so the next request runs the full plan instead of serving
  // half-spliced state.
  memo.valid = false;
  run_plan(session, options, plan, memo.result, memo.view_x);
  memo.revision = session.revision();
  memo.valid = true;
  if (stats != nullptr) {
    *stats = accounting;
  }
  return memo.result;
}

}  // namespace mmlp
