// Long-chain incremental soak.
//
// One session survives 200 seeded random deltas — coefficient edits,
// support inserts and erases, agent births and deaths — with an
// incremental re-solve after every step. The test is that drift is
// impossible: after the full chain, the incrementally-maintained
// answer is bitwise-equal to a cold solve of the final instance on a
// fresh session. A splice that leaked one stale view anywhere in the
// chain shows up here as a solution mismatch.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "mmlp/core/instance.hpp"
#include "mmlp/engine/session.hpp"
#include "mmlp/engine/sharded_session.hpp"
#include "mmlp/engine/solver.hpp"
#include "mmlp/gen/grid.hpp"
#include "mmlp/util/rng.hpp"
#include "test_helpers.hpp"

namespace mmlp {
namespace {

using engine::Session;
using engine::SolveRequest;
using engine::SolveResult;

AgentId pick_agent(Rng& rng, const Instance& instance) {
  return static_cast<AgentId>(
      rng.next_below(static_cast<std::uint64_t>(instance.num_agents())));
}

/// True when removing v keeps every incident resource and party
/// support nonempty (the builder's standing assumption).
bool removable(const Instance& instance, AgentId v) {
  for (const Coef& entry : instance.agent_resources(v)) {
    if (instance.resource_support(entry.id).size() < 2) {
      return false;
    }
  }
  for (const Coef& entry : instance.agent_parties(v)) {
    if (instance.party_support(entry.id).size() < 2) {
      return false;
    }
  }
  return true;
}

/// One random, always-valid delta. Mostly value edits (the common
/// case incremental splicing is built for), with a steady trickle of
/// structural churn.
InstanceDelta random_delta(Rng& rng, const Instance& instance) {
  InstanceDelta delta;
  const std::uint64_t kind = rng.next_below(100);
  if (kind < 55) {  // re-weight an existing usage entry
    const AgentId v = pick_agent(rng, instance);
    const CoefSpan row = instance.agent_resources(v);
    const Coef& entry = row[rng.next_below(row.size())];
    delta.set_usage(entry.id, v, rng.uniform(0.1, 2.0));
  } else if (kind < 70) {  // re-weight an existing benefit entry
    const AgentId v = pick_agent(rng, instance);
    const CoefSpan row = instance.agent_parties(v);
    if (row.empty()) {
      return random_delta(rng, instance);
    }
    const Coef& entry = row[rng.next_below(row.size())];
    delta.set_benefit(entry.id, v, rng.uniform(0.1, 1.0));
  } else if (kind < 80) {  // grow a support: new (resource, agent) pair
    const AgentId v = pick_agent(rng, instance);
    const ResourceId i = static_cast<ResourceId>(
        rng.next_below(static_cast<std::uint64_t>(instance.num_resources())));
    bool present = false;
    for (const Coef& entry : instance.agent_resources(v)) {
      present = present || entry.id == i;
    }
    if (present) {
      return random_delta(rng, instance);
    }
    delta.set_usage(i, v, rng.uniform(0.1, 1.0));
  } else if (kind < 88) {  // shrink a support, keeping both sides nonempty
    const AgentId v = pick_agent(rng, instance);
    const CoefSpan row = instance.agent_resources(v);
    if (row.size() < 2) {
      return random_delta(rng, instance);
    }
    const Coef& entry = row[rng.next_below(row.size())];
    if (instance.resource_support(entry.id).size() < 2) {
      return random_delta(rng, instance);
    }
    delta.erase_usage(entry.id, v);
  } else if (kind < 94) {  // a new agent, attached to a random neighborhood
    const AgentId anchor = pick_agent(rng, instance);
    const AgentId fresh = instance.num_agents();
    delta.add_agents(1);
    delta.set_usage(instance.agent_resources(anchor).front().id, fresh,
                    rng.uniform(0.1, 1.0));
    const CoefSpan parties = instance.agent_parties(anchor);
    if (!parties.empty()) {
      delta.set_benefit(parties.front().id, fresh, rng.uniform(0.1, 1.0));
    }
  } else {  // an agent leaves (ids remap; the session rebuilds)
    const AgentId v = pick_agent(rng, instance);
    if (!removable(instance, v) || instance.num_agents() < 20) {
      return random_delta(rng, instance);
    }
    delta.remove_agent(v);
  }
  return delta;
}

TEST(IncrementalSoak, TwoHundredDeltasNeverDrift) {
  Instance instance = make_grid_instance(
      {.dims = {10, 10}, .torus = true, .randomize = true, .seed = 21});
  Session session(instance);

  SolveRequest averaging;
  averaging.algorithm = "averaging";
  averaging.R = 1;
  averaging.incremental = true;
  SolveRequest safe;
  safe.algorithm = "safe";
  safe.incremental = true;

  // Prime the memo the splices build on.
  SolveResult latest = engine::solve(session, averaging);
  ASSERT_TRUE(latest.has_solution);

  Rng rng(1234);
  std::size_t incremental_solves = 0;
  std::size_t structural_deltas = 0;
  for (std::size_t step = 0; step < 200; ++step) {
    const InstanceDelta delta = random_delta(rng, instance);
    const Session::ApplyReport report = session.apply(delta);
    structural_deltas += report.structural ? 1 : 0;

    latest = engine::solve(session, averaging);
    ASSERT_TRUE(latest.has_solution) << "step " << step;
    // The stored growth maxima follow every delta: equal to a recompute
    // from the repaired vectors, and what the request reports.
    const GrowthSets& sets = session.growth_sets(1, false);
    const testing::GrowthMaxima maxima = testing::growth_maxima(sets);
    ASSERT_EQ(sets.ratio_bound, maxima.ratio_bound) << "step " << step;
    ASSERT_EQ(sets.peak_ball, maxima.peak_ball) << "step " << step;
    ASSERT_EQ(latest.diagnostics.at("ratio_bound"), sets.ratio_bound)
        << "step " << step;
    ASSERT_EQ(latest.diagnostics.at("peak_ball"),
              static_cast<double>(sets.peak_ball))
        << "step " << step;
    if (latest.diagnostics.at("incremental") == 1.0) {
      ++incremental_solves;
    }
    if (step % 10 == 9) {  // interleave another algorithm on the same caches
      const SolveResult check = engine::solve(session, safe);
      ASSERT_TRUE(check.feasible) << "step " << step;
    }
  }

  // The chain must have exercised both paths: plenty of genuine
  // incremental splices AND structural fallbacks.
  EXPECT_GT(incremental_solves, 100u);
  EXPECT_GT(structural_deltas, 5u);

  // The verdict: a cold solve of the final instance, on a fresh
  // session, bit for bit.
  Session cold_session(instance);
  SolveRequest cold = averaging;
  cold.incremental = false;
  const SolveResult expected = engine::solve(cold_session, cold);
  ASSERT_EQ(expected.x.size(), latest.x.size());
  for (std::size_t v = 0; v < expected.x.size(); ++v) {
    ASSERT_EQ(expected.x[v], latest.x[v]) << "agent " << v;
  }
  EXPECT_EQ(expected.omega, latest.omega);
  EXPECT_EQ(expected.feasible, latest.feasible);
  ASSERT_EQ(expected.party_benefit, latest.party_benefit);
}

TEST(IncrementalSoak, ShardedSessionSurvivesTheSameChain) {
  // A shorter chain through the sharded front end: value edits only
  // (the routed fast path), checked against a monolithic twin every
  // step — the routing itself is the thing under soak here.
  Instance flat_instance = make_grid_instance(
      {.dims = {10, 10}, .torus = true, .randomize = true, .seed = 21});
  Instance sharded_instance = flat_instance;
  Session flat(flat_instance);
  engine::ShardedSession sharded(
      sharded_instance, engine::ShardedOptions{.shards = 4, .halo_radius = 3});

  SolveRequest request;
  request.algorithm = "averaging";
  request.R = 1;
  request.incremental = true;

  Rng rng(77);
  for (std::size_t step = 0; step < 40; ++step) {
    const AgentId v = pick_agent(rng, flat_instance);
    const CoefSpan row = flat_instance.agent_resources(v);
    const Coef& entry = row[rng.next_below(row.size())];
    InstanceDelta delta;
    delta.set_usage(entry.id, v, rng.uniform(0.1, 2.0));
    (void)flat.apply(delta);
    (void)sharded.apply(delta);

    const SolveResult expected = engine::solve(flat, request);
    const SolveResult actual = sharded.solve(request);
    ASSERT_EQ(expected.x.size(), actual.x.size()) << "step " << step;
    for (std::size_t a = 0; a < expected.x.size(); ++a) {
      ASSERT_EQ(expected.x[a], actual.x[a])
          << "step " << step << " agent " << a;
    }
    ASSERT_EQ(expected.omega, actual.omega) << "step " << step;
  }
}

}  // namespace
}  // namespace mmlp
