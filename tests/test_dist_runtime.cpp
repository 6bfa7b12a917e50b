#include "mmlp/dist/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "mmlp/util/check.hpp"

#include "mmlp/dist/self_stabilize.hpp"
#include "mmlp/gen/grid.hpp"
#include "mmlp/graph/bfs.hpp"
#include "mmlp/graph/hypertree.hpp"
#include "test_helpers.hpp"

namespace mmlp {
namespace {

/// A complete (d, D)-ary hypertree as an instance: type I hyperedges
/// become resources, type II hyperedges parties (a = c = 1). The height
/// must be odd (2R−1) so that every node lies in some type I edge and
/// the standing assumption I_v ≠ ∅ holds.
Instance hypertree_instance(std::int32_t d, std::int32_t D,
                            std::int32_t height) {
  const auto tree = Hypertree::complete(d, D, height);
  Instance::Builder builder;
  builder.reserve(tree.num_nodes(), 0, 0);
  for (const HypertreeEdge& edge : tree.edges()) {
    if (edge.type == HyperedgeType::kTypeI) {
      const ResourceId i = builder.add_resource();
      builder.set_usage(i, edge.parent, 1.0);
      for (const std::int32_t child : edge.children) {
        builder.set_usage(i, child, 1.0);
      }
    } else {
      const PartyId k = builder.add_party();
      builder.set_benefit(k, edge.parent, 1.0);
      for (const std::int32_t child : edge.children) {
        builder.set_benefit(k, child, 1.0);
      }
    }
  }
  return std::move(builder).build();
}

/// Cold start: from clear(), horizon + 1 rounds of the flood reach the
/// legitimate state, where every agent knows exactly B_H(v, horizon) —
/// the defining property of the LOCAL model.
void expect_flood_equals_balls(const Instance& instance, std::int32_t horizon,
                               bool collaboration_oblivious) {
  const Hypergraph h = instance.communication_graph(collaboration_oblivious);
  SelfStabilizingFlood flood(h, horizon);
  flood.clear();
  for (std::int32_t round = 0; round <= horizon; ++round) {
    flood.step();
  }
  EXPECT_TRUE(flood.is_legitimate()) << "horizon " << horizon;
  for (AgentId v = 0; v < instance.num_agents(); ++v) {
    EXPECT_EQ(flood.knowledge(v), ball(h, v, horizon))
        << "agent " << v << " horizon " << horizon;
  }
}

TEST(SelfStabilizingFlood, ZeroRoundsKnowsOnlySelf) {
  const auto instance = testing::path_instance(4);
  expect_flood_equals_balls(instance, 0, false);
  const Hypergraph h = instance.communication_graph();
  SelfStabilizingFlood flood(h, 0);
  for (AgentId v = 0; v < 4; ++v) {
    EXPECT_EQ(flood.knowledge(v), (std::vector<AgentId>{v}));
  }
}

TEST(SelfStabilizingFlood, FloodEqualsBalls) {
  const auto instance = make_grid_instance({.dims = {4, 4}, .torus = true});
  for (const std::int32_t horizon : {1, 2, 3}) {
    expect_flood_equals_balls(instance, horizon, false);
  }
}

TEST(SelfStabilizingFlood, ObliviousFloodEqualsObliviousBalls) {
  // The flood-equals-balls property must hold on whichever graph the
  // flood was asked to use, not just the full hypergraph.
  const auto instance = hypertree_instance(2, 2, 3);
  for (const std::int32_t horizon : {1, 2, 3}) {
    expect_flood_equals_balls(instance, horizon, true);
  }
}

TEST(SelfStabilizingFlood, CollaborationObliviousUsesSmallerGraph) {
  // The graph carries the mode: the flood runs on the graph it is given.
  const auto instance = testing::two_agent_instance();
  const Hypergraph full_graph = instance.communication_graph(false);
  const Hypergraph oblivious_graph = instance.communication_graph(true);
  const SelfStabilizingFlood full(full_graph, 1);
  const SelfStabilizingFlood oblivious(oblivious_graph, 1);
  EXPECT_EQ(&full.graph(), &full_graph);
  EXPECT_EQ(&oblivious.graph(), &oblivious_graph);
  EXPECT_EQ(full.graph().num_edges(), 3);
  EXPECT_EQ(oblivious.graph().num_edges(), 1);
}

TEST(MessageCount, ScalesWithRounds) {
  const auto instance = make_grid_instance({.dims = {4, 4}, .torus = true});
  const Hypergraph h = instance.communication_graph(false);
  const auto one = message_count(h, 1);
  EXPECT_GT(one, 0);
  EXPECT_EQ(message_count(h, 3), 3 * one);
  EXPECT_EQ(message_count(h, 0), 0);
  EXPECT_THROW(message_count(h, -1), CheckError);
}

TEST(MessageCount, ObliviousDropsPartyTraffic) {
  // Every grid cell hosts one resource and one party over the same
  // support, so dropping party hyperedges halves each agent's degree —
  // and with it the per-round message bill.
  const auto instance = make_grid_instance({.dims = {4, 4}, .torus = true});
  const Hypergraph full = instance.communication_graph(false);
  const Hypergraph oblivious = instance.communication_graph(true);
  EXPECT_GT(message_count(oblivious, 1), 0);
  EXPECT_EQ(message_count(full, 1), 2 * message_count(oblivious, 1));
  EXPECT_EQ(message_count(oblivious, 4), 4 * message_count(oblivious, 1));
  EXPECT_EQ(message_count(oblivious, 0), 0);
}

/// B_H(v, radius) on the full hypergraph: the knowledge a fault-free
/// flood of `radius` rounds delivers.
std::vector<AgentId> knowledge_of(const Instance& instance, AgentId v,
                                  std::int32_t radius) {
  return ball(instance.communication_graph(false), v, radius);
}

TEST(AgentContext, HypertreeRootSeesOnlyItsOwnHyperedge) {
  // (2,2)-ary hypertree of height 3 (15 nodes): the root's radius-1 view
  // is exactly its type I resource {0, 1, 2}; everything deeper is out.
  const auto instance = hypertree_instance(2, 2, 3);
  const auto knowledge = knowledge_of(instance, 0, 1);
  const AgentContext ctx(instance, 0, knowledge);
  EXPECT_EQ(knowledge, (std::vector<AgentId>{0, 1, 2}));
  EXPECT_NO_THROW(ctx.agent_resources(1));
  EXPECT_THROW(ctx.agent_resources(3), CheckError);
  // Resource 1 = {3, 7, 8}: no member within the root's horizon.
  EXPECT_THROW(ctx.resource_support(1), CheckError);
  // Party 0 = {1, 3, 4}: visible through its known member 1.
  EXPECT_NO_THROW(ctx.party_support(0));
}

TEST(AgentContext, HypertreeMaterializeTruncatesDeeperLevels) {
  const auto instance = hypertree_instance(2, 2, 3);

  // Radius 1: only the root's resource survives; both parties reach
  // level 2 and are dropped as truncated.
  const auto near = knowledge_of(instance, 0, 1);
  const auto world1 = AgentContext(instance, 0, near).materialize();
  world1.instance.validate();
  EXPECT_EQ(world1.instance.num_agents(), 3);
  EXPECT_EQ(world1.instance.num_resources(), 1);
  EXPECT_EQ(world1.instance.num_parties(), 0);

  // Radius 2 reaches the level-2 nodes through the party hyperedges:
  // both parties become fully known, and the level-2 nodes drag in their
  // own type I resources truncated to a single member.
  const auto far = knowledge_of(instance, 0, 2);
  const auto world2 = AgentContext(instance, 0, far).materialize();
  world2.instance.validate();
  EXPECT_EQ(world2.agents, (std::vector<AgentId>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(world2.instance.num_parties(), 2);
  EXPECT_EQ(world2.instance.num_resources(), 5);
  std::int32_t truncated = 0;
  for (ResourceId i = 0; i < world2.instance.num_resources(); ++i) {
    if (world2.instance.resource_support(i).size() == 1u) {
      ++truncated;
    }
  }
  EXPECT_EQ(truncated, 4);  // the four level-2 resources lost their leaves
  EXPECT_EQ(world2.local_agent(0), 0);
}

TEST(AgentContext, EnforcesKnowledgeBoundary) {
  const auto instance = testing::path_instance(5);
  const auto knowledge = knowledge_of(instance, 0, 1);
  const AgentContext ctx(instance, 0, knowledge);
  EXPECT_TRUE(ctx.knows(0));
  EXPECT_TRUE(ctx.knows(1));
  EXPECT_FALSE(ctx.knows(2));
  EXPECT_NO_THROW(ctx.agent_resources(1));
  EXPECT_THROW(ctx.agent_resources(2), CheckError);   // out of horizon
  EXPECT_THROW(ctx.agent_parties(4), CheckError);
}

TEST(AgentContext, HyperedgeVisibilityThroughMembers) {
  const auto instance = testing::path_instance(5);
  const auto knowledge = knowledge_of(instance, 0, 1);
  const AgentContext ctx(instance, 0, knowledge);
  // Resource 1 couples agents {1,2}; agent 1 is known, so the member list
  // is visible even though agent 2 is not.
  EXPECT_NO_THROW(ctx.resource_support(1));
  // Resource 3 couples {3,4}: invisible from agent 0's radius-1 view.
  EXPECT_THROW(ctx.resource_support(3), CheckError);
}

TEST(AgentContext, RequiresSelfKnowledge) {
  const auto instance = testing::path_instance(3);
  const std::vector<AgentId> others{1, 2};
  EXPECT_THROW(AgentContext(instance, 0, others), CheckError);
}

TEST(AgentContext, RejectsEmptyKnowledge) {
  const auto instance = testing::path_instance(3);
  EXPECT_THROW(AgentContext(instance, 0, std::span<const AgentId>()),
               CheckError);
}

TEST(AgentContext, RejectsUnsortedKnowledge) {
  // The context borrows the set as given; it no longer sorts a copy, so
  // an out-of-order set would break every binary search behind knows().
  const auto instance = testing::path_instance(3);
  const std::vector<AgentId> unsorted{1, 0};
  EXPECT_THROW(AgentContext(instance, 1, unsorted), CheckError);
}

TEST(AgentContext, RejectsDuplicatedKnowledge) {
  const auto instance = testing::path_instance(3);
  const std::vector<AgentId> duplicated{0, 1, 1};
  EXPECT_THROW(AgentContext(instance, 0, duplicated), CheckError);
}

TEST(AgentContext, RejectsOutOfRangeKnowledge) {
  const auto instance = testing::path_instance(3);
  const std::vector<AgentId> negative{-1, 0};
  const std::vector<AgentId> past_end{0, 3};
  EXPECT_THROW(AgentContext(instance, 0, negative), CheckError);
  EXPECT_THROW(AgentContext(instance, 0, past_end), CheckError);
}

TEST(AgentContext, MaterializeKeepsOwnResourcesOfEveryKnownAgent) {
  const auto instance = make_grid_instance({.dims = {5, 5}, .torus = true});
  const auto knowledge = knowledge_of(instance, 12, 1);
  const AgentContext ctx(instance, 12, knowledge);
  const auto world = ctx.materialize();
  world.instance.validate();  // I_v nonempty for every local agent
  EXPECT_EQ(world.agents, knowledge);
  // Local ids are positions in the sorted knowledge set.
  const auto self_position =
      std::find(knowledge.begin(), knowledge.end(), 12) - knowledge.begin();
  EXPECT_EQ(world.local_agent(12), self_position);
  EXPECT_EQ(world.local_agent(9999), -1);
}

TEST(AgentContext, MaterializeDropsTruncatedParties) {
  const auto instance = testing::path_instance(6);
  const auto knowledge = knowledge_of(instance, 0, 1);
  // Agent 0 knows {0, 1}; parties of agents 0 and 1 (singletons) are fully
  // known; nothing else survives.
  const AgentContext ctx(instance, 0, knowledge);
  const auto world = ctx.materialize();
  EXPECT_EQ(world.instance.num_parties(), 2);
}

TEST(AgentContext, MaterializeTruncatesBoundaryResources) {
  const auto instance = testing::path_instance(6);
  const auto knowledge = knowledge_of(instance, 0, 1);
  const AgentContext ctx(instance, 0, knowledge);
  const auto world = ctx.materialize();
  // Resource 1 couples {1, 2}; only agent 1 is known, so the local copy
  // keeps it with a single member.
  bool found_truncated = false;
  for (ResourceId i = 0; i < world.instance.num_resources(); ++i) {
    if (world.instance.resource_support(i).size() == 1u) {
      found_truncated = true;
    }
  }
  EXPECT_TRUE(found_truncated);
}

TEST(AgentContext, FullKnowledgeReproducesWholeInstance) {
  const auto instance = testing::path_instance(5);
  const auto knowledge = knowledge_of(instance, 2, 10);  // beyond the diameter
  const AgentContext ctx(instance, 2, knowledge);
  const auto world = ctx.materialize();
  EXPECT_EQ(world.instance.num_agents(), instance.num_agents());
  EXPECT_EQ(world.instance.num_resources(), instance.num_resources());
  EXPECT_EQ(world.instance.num_parties(), instance.num_parties());
  EXPECT_TRUE(world.instance == instance);
}

}  // namespace
}  // namespace mmlp
