// Per-agent executions of eq. (2) and the Section 5.1 averaging rule on
// AgentContext worlds. The distributed averaging loop is chunked so each
// worker carries one RestrictArena + world + ViewScratch across
// all its agents: world materialization, view extraction and the view-LP
// tableau then recycle the same memory agent after agent, while the
// decisions themselves stay bit-for-bit equal to the centralized run
// (same balls, same LP rows in the same order, same deterministic
// simplex pivoting).
#include "mmlp/dist/algorithms.hpp"

#include <algorithm>
#include <limits>

#include "mmlp/core/safe.hpp"
#include "mmlp/core/view.hpp"
#include "mmlp/dist/runtime.hpp"
#include "mmlp/engine/session.hpp"
#include "mmlp/graph/bfs.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/parallel.hpp"

namespace mmlp {

double safe_from_context(const AgentContext& ctx) {
  const CoefSpan resources = ctx.agent_resources(ctx.self());
  std::vector<std::size_t> sizes;
  sizes.reserve(resources.size());
  for (const Coef& entry : resources) {
    sizes.push_back(ctx.resource_support(entry.id).size());
  }
  return safe_choice(resources, sizes);
}

std::vector<double> distributed_safe(const Instance& instance,
                                     bool collaboration_oblivious) {
  engine::Session session(instance);
  return distributed_safe_with(session, collaboration_oblivious);
}

std::vector<double> distributed_safe_with(engine::Session& session,
                                          bool collaboration_oblivious) {
  const Instance& instance = session.instance();
  // flood(1) produces exactly B_H(v, 1) per agent (the LocalRuntime
  // simulator is tested against ball()), so the session's ball cache IS
  // the flooded knowledge.
  const std::vector<std::vector<AgentId>>& knowledge =
      session.balls(1, collaboration_oblivious);
  const auto n = static_cast<std::size_t>(instance.num_agents());
  std::vector<double> x(n, 0.0);
  parallel_for(
      n,
      [&](std::size_t v) {
        const AgentContext ctx(instance, static_cast<AgentId>(v), knowledge[v]);
        x[v] = safe_from_context(ctx);
      },
      session.pool());
  return x;
}

namespace {

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

}  // namespace

double averaging_pipeline(const Instance& instance, AgentId j,
                          const std::vector<AgentId>& knowledge_j,
                          const LocalAveragingOptions& options,
                          engine::DistScratch& scratch) {
  const AgentContext ctx(instance, j, knowledge_j);
  ctx.materialize_into(scratch.world, scratch.arena);
  const Hypergraph h = scratch.world.instance.communication_graph(
      options.collaboration_oblivious);
  return averaging_decision(scratch.world.instance,
                            scratch.world.local_agent(j), h, options,
                            scratch.view);
}

std::vector<double> distributed_local_averaging(
    const Instance& instance, const LocalAveragingOptions& options) {
  engine::Session session(instance);
  return distributed_local_averaging_with(session, options);
}

std::vector<double> distributed_local_averaging_with(
    engine::Session& session, const LocalAveragingOptions& options) {
  MMLP_CHECK_GE(options.R, 1);
  MMLP_CHECK_MSG(options.damping == AveragingDamping::kBetaPerAgent,
                 "only the per-agent damping of eq. (10) is a local rule");
  const Instance& instance = session.instance();
  // flood(2R+1) == B_H(v, 2R+1): serve the knowledge sets from the
  // session ball cache (see distributed_safe_with).
  const std::vector<std::vector<AgentId>>& knowledge =
      session.balls(2 * options.R + 1, options.collaboration_oblivious);
  const auto n = static_cast<std::size_t>(instance.num_agents());
  std::vector<double> x(n, 0.0);

  // Chunked so each worker leases one materialization arena and one
  // view/LP scratch for all its agents; leases come from the session
  // pool so the buffers stay warm across solves.
  chunked_parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        auto scratch = session.dist_scratch().acquire();
        for (std::size_t j = begin; j < end; ++j) {
          // Per-agent cancellation poll: each iteration is a full
          // materialize-and-solve pipeline, coarse enough that chunk
          // boundaries alone would let a deadline overshoot badly.
          cancel::checkpoint();
          x[j] = averaging_pipeline(instance, static_cast<AgentId>(j),
                                    knowledge[j], options, *scratch);
        }
      },
      session.pool());
  return x;
}

}  // namespace mmlp
