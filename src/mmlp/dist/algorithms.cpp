// run_local, the one per-agent LOCAL loop, and the two decision rules it
// applies. The loop is chunked so each worker carries one knowledge
// buffer + RestrictArena + world + ViewScratch across all its agents:
// world materialization, view extraction and the view-LP tableau then
// recycle the same memory agent after agent, while the decisions
// themselves stay bit-for-bit equal to the centralized run (same balls,
// same LP rows in the same order, same deterministic simplex pivoting).
#include "mmlp/dist/algorithms.hpp"

#include <algorithm>
#include <limits>

#include "mmlp/core/safe.hpp"
#include "mmlp/core/view.hpp"
#include "mmlp/dist/runtime.hpp"
#include "mmlp/engine/session.hpp"
#include "mmlp/graph/bfs.hpp"
#include "mmlp/util/cancel.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/parallel.hpp"

namespace mmlp {

namespace {

/// One agent's eq. (2) decision computed purely from its context
/// (radius 1: own resources and their support sizes).
double safe_from_context(const AgentContext& ctx) {
  const CoefSpan resources = ctx.agent_resources(ctx.self());
  std::vector<std::size_t> sizes;
  sizes.reserve(resources.size());
  for (const Coef& entry : resources) {
    sizes.push_back(ctx.resource_support(entry.id).size());
  }
  return safe_choice(resources, sizes);
}

/// One agent's execution of the Section 5.1 algorithm on its world.
/// `scratch` is the owning worker's reusable view/LP workspace.
double averaging_decision(const Instance& world, AgentId self_local,
                          const Hypergraph& h,
                          const LocalAveragingOptions& options,
                          ViewScratch& scratch) {
  BallCollector collector(h);
  const std::vector<AgentId> my_ball =  // copy: the collector is reused
      collector.collect(self_local, options.R);

  // Σ_{u∈V^j} x^u_j, accumulated in ascending agent order — the same
  // addition sequence as the centralized eq. (10) accumulation.
  double sum = 0.0;
  LocalView view;
  for (const AgentId u : my_ball) {
    const auto& ball_u = collector.collect(u, options.R);
    extract_view_into(world, u, options.R, ball_u, view, scratch);
    const ViewLpSolution solution = solve_view_lp(view, options.lp, scratch);
    const std::int32_t self_in_view = view.local_index(self_local);
    MMLP_CHECK_GE(self_in_view, 0);  // u ∈ V^j ⇔ j ∈ V^u
    sum += solution.x[static_cast<std::size_t>(self_in_view)];
  }

  // β_j = min_{i∈I_j} n_i / N_i over the agent's own resources; V_i is
  // fully known (one hop) and the members' balls lie inside the world.
  double beta = std::numeric_limits<double>::infinity();
  std::vector<AgentId> union_set;
  std::vector<AgentId> next;
  for (const Coef& entry : world.agent_resources(self_local)) {
    const CoefSpan support = world.resource_support(entry.id);
    union_set.clear();
    std::size_t min_ball = std::numeric_limits<std::size_t>::max();
    for (const Coef& member : support) {
      const auto& ball_m = collector.collect(member.id, options.R);
      min_ball = std::min(min_ball, ball_m.size());
      next.clear();
      std::set_union(union_set.begin(), union_set.end(), ball_m.begin(),
                     ball_m.end(), std::back_inserter(next));
      union_set.swap(next);
    }
    beta = std::min(beta, static_cast<double>(min_ball) /
                              static_cast<double>(union_set.size()));
  }

  const double average = sum / static_cast<double>(my_ball.size());
  return beta * average;
}

/// One agent's full Section 5.1 pipeline: materialize the radius-(2R+1)
/// world from its context, then run the averaging rule inside it.
double averaging_pipeline(const AgentContext& ctx,
                          const LocalAveragingOptions& options,
                          engine::DistScratch& scratch) {
  ctx.materialize_into(scratch.world, scratch.arena);
  const Hypergraph h = scratch.world.instance.communication_graph(
      options.collaboration_oblivious);
  return averaging_decision(scratch.world.instance,
                            scratch.world.local_agent(ctx.self()), h, options,
                            scratch.view);
}

/// run_local over the session's radius-h balls: the knowledge h
/// fault-free flooding rounds deliver.
std::vector<double> run_on_balls(engine::Session& session,
                                 LocalAlgorithm algorithm,
                                 const LocalAveragingOptions& options) {
  const std::vector<std::vector<AgentId>>& balls = session.balls(
      local_horizon(algorithm, options), options.collaboration_oblivious);
  return run_local(
      session,
      [&balls](AgentId v, std::vector<AgentId>&) {
        return std::span<const AgentId>(balls[static_cast<std::size_t>(v)]);
      },
      algorithm, options);
}

}  // namespace

std::int32_t local_horizon(LocalAlgorithm algorithm,
                           const LocalAveragingOptions& options) {
  if (algorithm == LocalAlgorithm::kSafe) {
    return 1;
  }
  MMLP_CHECK_GE(options.R, 1);
  MMLP_CHECK_MSG(options.damping == AveragingDamping::kBetaPerAgent,
                 "only the per-agent damping of eq. (10) is a local rule");
  return 2 * options.R + 1;
}

std::vector<double> run_local(engine::Session& session,
                              const KnowledgeSource& knowledge,
                              LocalAlgorithm algorithm,
                              const LocalAveragingOptions& options) {
  const Instance& instance = session.instance();
  const auto n = static_cast<std::size_t>(instance.num_agents());
  std::vector<double> x(n, 0.0);
  // Leases come from the session pool so the buffers stay warm across
  // solves.
  chunked_parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        auto scratch = session.dist_scratch().acquire();
        for (std::size_t j = begin; j < end; ++j) {
          // Per-agent cancellation poll: an averaging iteration is a
          // full materialize-and-solve pipeline, coarse enough that
          // chunk boundaries alone would let a deadline overshoot badly.
          cancel::checkpoint();
          const auto agent = static_cast<AgentId>(j);
          const AgentContext ctx(instance, agent,
                                 knowledge(agent, scratch->knowledge));
          x[j] = algorithm == LocalAlgorithm::kSafe
                     ? safe_from_context(ctx)
                     : averaging_pipeline(ctx, options, *scratch);
        }
      },
      session.pool());
  return x;
}

std::vector<double> distributed_safe(const Instance& instance,
                                     bool collaboration_oblivious) {
  engine::Session session(instance);
  return distributed_safe_with(session, collaboration_oblivious);
}

std::vector<double> distributed_safe_with(engine::Session& session,
                                          bool collaboration_oblivious) {
  return run_on_balls(session, LocalAlgorithm::kSafe,
                      {.collaboration_oblivious = collaboration_oblivious});
}

std::vector<double> distributed_local_averaging(
    const Instance& instance, const LocalAveragingOptions& options) {
  engine::Session session(instance);
  return distributed_local_averaging_with(session, options);
}

std::vector<double> distributed_local_averaging_with(
    engine::Session& session, const LocalAveragingOptions& options) {
  return run_on_balls(session, LocalAlgorithm::kAveraging, options);
}

}  // namespace mmlp
