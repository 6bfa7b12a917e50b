// Theorem 3 / Section 5.1: solve every agent's view LP (9), then damp
// the ball average by β_j (eq. (10)). The per-agent loop is chunked so
// each worker amortises one ViewScratch — view extraction, LP rows and
// the simplex tableau all reuse the same memory across the agents of a
// chunk; the outputs (view_omega, view_x) are per-agent slots, so the
// result is identical to the serial run.
//
// With options.deduplicate the LP loop runs over view-orbit
// representatives instead of agents (view_class.hpp): the view LP is a
// pure function of the view's local structure, so agents in the same
// orbit provably solve the same LP, and the representative's solution
// is copied verbatim to every member.
//
// The eq. (10) accumulation is a parallel *gather*: agent j sums
// x^u_j over u ∈ V^j in ascending u, which is exactly the addition
// order of the former serial scatter loop (u ∈ V^j ⇔ j ∈ V^u, and the
// scatter visited u ascending) — so the parallel result is bitwise
// identical to the serial one for any thread count. A scatter with
// per-worker partial buffers could not offer that: merging per-chunk
// partial sums regroups the additions, which changes the rounding.
//
// The implementation lives in local_averaging_with: every expensive
// derived structure (communication graph, balls, growth sets, view
// classes, worker scratch) is pulled from an engine::Session, and the
// classic free function simply runs against a session that lives for
// one call.
#include "mmlp/core/local_averaging.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "mmlp/core/solution.hpp"
#include "mmlp/engine/session.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/obs.hpp"
#include "mmlp/util/parallel.hpp"

namespace mmlp {

namespace {

LocalAveragingResult local_averaging_impl(
    engine::Session& session, const LocalAveragingOptions& options,
    std::vector<std::vector<double>>* keep_view_x);

}  // namespace

LocalAveragingResult local_averaging(const Instance& instance,
                                     const LocalAveragingOptions& options) {
  engine::Session session(instance);
  return local_averaging_with(session, options);
}

LocalAveragingResult local_averaging_with(engine::Session& session,
                                          const LocalAveragingOptions& options) {
  return local_averaging_impl(session, options, nullptr);
}

namespace {

/// The full algorithm; `keep_view_x` (optional) receives every agent's
/// view-LP solution so an incremental memo can splice later edits.
LocalAveragingResult local_averaging_impl(
    engine::Session& session, const LocalAveragingOptions& options,
    std::vector<std::vector<double>>* keep_view_x) {
  MMLP_CHECK_GE(options.R, 1);
  const Instance& instance = session.instance();
  const auto n = static_cast<std::size_t>(instance.num_agents());
  LocalAveragingResult result;
  result.x.assign(n, 0.0);
  if (n == 0) {
    return result;
  }

  const std::vector<std::vector<AgentId>>& balls =
      session.balls(options.R, options.collaboration_oblivious);

  // Solve the local LP (9) — once per agent, or once per view orbit
  // when deduplicating. Parallel loops are chunked so each task leases
  // one scratch workspace from the session pool.
  std::vector<std::vector<double>> view_x(n);
  result.view_omega.assign(n, 0.0);
  const auto solve_all_agents = [&] {
    obs::ObsSpan stage("averaging.view_lps", "solver");
    chunked_parallel_for(
        n,
        [&](std::size_t begin, std::size_t end) {
          obs::ObsSpan chunk("averaging.view_lp.chunk", "solver");
          auto scratch = session.view_scratch().acquire();
          LocalView view;
          for (std::size_t u = begin; u < end; ++u) {
            // One view LP per iteration: poll the cancel token here so
            // deadlines fire promptly even on a single-thread pool.
            cancel::checkpoint();
            extract_view_into(instance, static_cast<AgentId>(u), options.R,
                              balls[u], view, *scratch);
            ViewLpSolution solution = solve_view_lp(view, options.lp, *scratch);
            result.view_omega[u] = solution.omega;
            view_x[u] = std::move(solution.x);
          }
        },
        session.pool());
  };
  if (!options.deduplicate) {
    result.lp_solves = n;
    solve_all_agents();
  } else {
    const ViewClassIndex& orbits =
        session.view_classes(options.R, options.collaboration_oblivious);
    const std::vector<AgentId>& reps = orbits.orbit_rep;
    result.lp_solves = reps.size();
    result.dedup_ratio = orbits.dedup_ratio();
    if (reps.size() == n) {
      // Every orbit is a singleton (no symmetry to exploit — typical on
      // random instances): representatives ARE the agents in ascending
      // order, so the plain per-agent loop produces bitwise the same
      // result while skipping the rep_x staging and the scatter pass.
      solve_all_agents();
    } else {
      // One representative LP per orbit, solved exactly as the per-agent
      // path would solve it (same extraction, same scratch, same simplex).
      std::vector<std::vector<double>> rep_x(reps.size());
      std::vector<double> rep_omega(reps.size(), 0.0);
      {
        obs::ObsSpan stage("averaging.rep_lps", "solver");
        chunked_parallel_for(
            reps.size(),
            [&](std::size_t begin, std::size_t end) {
              obs::ObsSpan chunk("averaging.rep_lp.chunk", "solver");
              auto scratch = session.view_scratch().acquire();
              LocalView view;
              for (std::size_t g = begin; g < end; ++g) {
                cancel::checkpoint();
                const auto u = static_cast<std::size_t>(reps[g]);
                extract_view_into(instance, reps[g], options.R, balls[u], view,
                                  *scratch);
                ViewLpSolution solution =
                    solve_view_lp(view, options.lp, *scratch);
                rep_omega[g] = solution.omega;
                rep_x[g] = std::move(solution.x);
              }
            },
            session.pool());
      }

      // Scatter each representative solution to its orbit: members share
      // the representative's exact local structure, so a verbatim copy is
      // the bitwise per-agent result.
      obs::ObsSpan stage("averaging.scatter", "solver");
      chunked_parallel_for(
          n,
          [&](std::size_t begin, std::size_t end) {
            obs::ObsSpan chunk("averaging.scatter.chunk", "solver");
            for (std::size_t u = begin; u < end; ++u) {
              const auto g = static_cast<std::size_t>(orbits.orbit_of[u]);
              result.view_omega[u] = rep_omega[g];
              if (orbits.orbit_size[g] == 1) {
                // u is its orbit's only member, so the solution can move.
                view_x[u] = std::move(rep_x[g]);
              } else {
                view_x[u] = rep_x[g];
              }
            }
          },
          session.pool());
    }
  }

  // β_j from the growth sets (Figure 2 machinery).
  const GrowthSets& sets =
      session.growth_sets(options.R, options.collaboration_oblivious);
  result.beta = sets.beta;
  result.ball_size = sets.ball_size;
  result.ratio_bound = sets.ratio_bound();

  // x̃_j = (β_j / |V^j|) Σ_{u∈V^j} x^u_j, gathered in parallel: agent j
  // owns its own sum and reads x^u_j for u ∈ V^j (u ∈ V^j ⇔ j ∈ V^u —
  // balls are symmetric — so j's local index inside V^u exists and is
  // found by binary search in the sorted ball). Adding in ascending u is
  // the exact addition order of the former serial scatter loop, so the
  // result is bitwise identical to it regardless of the thread count.
  std::vector<double> accumulated(n, 0.0);
  obs::ObsSpan gather_stage("averaging.gather", "solver");
  chunked_parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        obs::ObsSpan chunk("averaging.gather.chunk", "solver");
        for (std::size_t j = begin; j < end; ++j) {
          // The shape check rides inside the chunk (it used to be a
          // serial O(n) pre-scan ahead of the parallel region).
          MMLP_CHECK_EQ(balls[j].size(), view_x[j].size());
          const AgentId self = static_cast<AgentId>(j);
          double sum = 0.0;
          for (const AgentId u : balls[j]) {
            const auto& ball_u = balls[static_cast<std::size_t>(u)];
            const auto it =
                std::lower_bound(ball_u.begin(), ball_u.end(), self);
            MMLP_CHECK(it != ball_u.end() && *it == self);
            sum += view_x[static_cast<std::size_t>(u)]
                         [static_cast<std::size_t>(it - ball_u.begin())];
          }
          accumulated[j] = sum;
        }
      },
      session.pool());
  // β_min is a serial O(n) fold (cheap, and the min must be global);
  // the damping tail itself writes per-agent slots only, so it runs as
  // one more parallel pass instead of the former serial loop.
  double beta_global = 1.0;
  for (const double beta : result.beta) {
    beta_global = std::min(beta_global, beta);
  }
  chunked_parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t j = begin; j < end; ++j) {
          MMLP_CHECK_GT(result.ball_size[j], 0u);
          const double average =
              accumulated[j] / static_cast<double>(result.ball_size[j]);
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
  if (options.damping == AveragingDamping::kNoneThenScale) {
    scale_to_feasible(instance, result.x);
  }
  if (keep_view_x != nullptr) {
    *keep_view_x = std::move(view_x);
  }
  return result;
}

/// Everything the memoized state depends on. deduplicate is excluded on
/// purpose: the orbit scatter is bitwise equal to dedup-off, so their
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

LocalAveragingResult local_averaging_incremental(
    engine::Session& session, const LocalAveragingOptions& options,
    IncrementalStats* stats) {
  MMLP_CHECK_GE(options.R, 1);
  const Instance& instance = session.instance();
  const auto n = static_cast<std::size_t>(instance.num_agents());
  IncrementalStats accounting;
  accounting.dirty_agents = n;
  accounting.resolved_agents = n;

  // Splicing needs per-agent locality. kBetaGlobal couples every output
  // to the global β minimum and kNoneThenScale rescales through a global
  // feasibility factor — one edit can move every coordinate, so those
  // run the full algorithm.
  const bool spliceable = options.damping == AveragingDamping::kBetaPerAgent ||
                          options.damping == AveragingDamping::kNone;
  if (!spliceable) {
    LocalAveragingResult result = local_averaging_impl(session, options, nullptr);
    if (stats != nullptr) {
      *stats = accounting;
    }
    return result;
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
  if (!memo.valid || !dirty_view.has_value()) {
    memo.result = local_averaging_impl(session, options, &memo.view_x);
    memo.revision = session.revision();
    memo.valid = true;
    if (stats != nullptr) {
      *stats = accounting;
    }
    return memo.result;
  }

  // Invalidate before any in-place mutation: an abandoned splice
  // (cancellation, deadline, a thrown check) must leave the memo marked
  // stale so the next request falls back to a full solve instead of
  // serving half-spliced state.
  memo.valid = false;
  const std::vector<std::vector<AgentId>>& balls =
      session.balls(options.R, options.collaboration_oblivious);
  const GrowthSets& sets =
      session.growth_sets(options.R, options.collaboration_oblivious);
  // Added agents are always inside the dirty region, so growing the
  // memoized vectors leaves no stale slot unrepaired.
  memo.view_x.resize(n);
  memo.result.view_omega.resize(n, 0.0);
  memo.result.x.resize(n, 0.0);

  // 1. Re-solve the view LPs of B(T, R) — same extraction, scratch and
  //    simplex as the full loop, so a re-solved unchanged view
  //    reproduces its previous bits exactly.
  const std::vector<AgentId>& resolve = *dirty_view;
  obs::ObsSpan incremental_span("averaging.incremental", "solver");
  chunked_parallel_for(
      resolve.size(),
      [&](std::size_t begin, std::size_t end) {
        obs::ObsSpan chunk("averaging.incremental.view_lp.chunk", "solver");
        auto scratch = session.view_scratch().acquire();
        LocalView view;
        for (std::size_t idx = begin; idx < end; ++idx) {
          cancel::checkpoint();
          const AgentId u = resolve[idx];
          const auto uu = static_cast<std::size_t>(u);
          extract_view_into(instance, u, options.R, balls[uu], view, *scratch);
          ViewLpSolution solution = solve_view_lp(view, options.lp, *scratch);
          memo.result.view_omega[uu] = solution.omega;
          memo.view_x[uu] = std::move(solution.x);
        }
      },
      session.pool());

  // 2. The growth-derived fields were repaired in place by apply();
  //    mirror them into the memoized result.
  memo.result.beta = sets.beta;
  memo.result.ball_size = sets.ball_size;
  memo.result.ratio_bound = sets.ratio_bound();

  // 3. Re-gather eq. (10) over B(T, 2R): the same ascending-u addition
  //    order as the full gather, over the spliced view solutions.
  const std::vector<AgentId>& regather = *dirty_gather;
  chunked_parallel_for(
      regather.size(),
      [&](std::size_t begin, std::size_t end) {
        obs::ObsSpan chunk("averaging.incremental.gather.chunk", "solver");
        for (std::size_t idx = begin; idx < end; ++idx) {
          const AgentId j = regather[idx];
          const auto jj = static_cast<std::size_t>(j);
          double sum = 0.0;
          for (const AgentId u : balls[jj]) {
            const auto& ball_u = balls[static_cast<std::size_t>(u)];
            const auto it = std::lower_bound(ball_u.begin(), ball_u.end(), j);
            MMLP_CHECK(it != ball_u.end() && *it == j);
            sum += memo.view_x[static_cast<std::size_t>(u)]
                              [static_cast<std::size_t>(it - ball_u.begin())];
          }
          MMLP_CHECK_GT(memo.result.ball_size[jj], 0u);
          const double average =
              sum / static_cast<double>(memo.result.ball_size[jj]);
          memo.result.x[jj] = options.damping == AveragingDamping::kBetaPerAgent
                                  ? memo.result.beta[jj] * average
                                  : average;
        }
      },
      session.pool());

  memo.result.lp_solves = resolve.size();
  memo.result.dedup_ratio = 0.0;
  memo.revision = session.revision();
  memo.valid = true;
  accounting.incremental = true;
  accounting.dirty_agents = resolve.size();
  accounting.resolved_agents = regather.size();
  if (stats != nullptr) {
    *stats = accounting;
  }
  return memo.result;
}

}  // namespace mmlp
