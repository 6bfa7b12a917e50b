#include "mmlp/graph/bfs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace mmlp {
namespace {

/// Path 0-1-2-3-4 as pairwise hyperedges.
Hypergraph path5() {
  return Hypergraph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
}

/// One big hyperedge makes everything pairwise adjacent.
Hypergraph clique_edge() { return Hypergraph::from_edges(4, {{0, 1, 2, 3}}); }

/// d_H(source, v) for every v from one collect(): radius num_nodes()
/// is the full BFS. -1 marks a node outside the collected ball.
std::vector<std::int32_t> distances(const Hypergraph& h, NodeId source,
                                    std::int32_t radius = -1) {
  BallCollector collector(h);
  collector.collect(source, radius < 0 ? h.num_nodes() : radius);
  std::vector<std::int32_t> dist;
  for (NodeId v = 0; v < h.num_nodes(); ++v) {
    dist.push_back(collector.last_distance(v));
  }
  return dist;
}

TEST(Bfs, DistancesOnPath) {
  const auto h = path5();
  EXPECT_EQ(distances(h, 0), (std::vector<std::int32_t>{0, 1, 2, 3, 4}));
}

TEST(Bfs, DistancesFromMiddle) {
  const auto h = path5();
  EXPECT_EQ(distances(h, 2), (std::vector<std::int32_t>{2, 1, 0, 1, 2}));
}

TEST(Bfs, RadiusCapLeavesFarNodesUnreached) {
  const auto h = path5();
  EXPECT_EQ(distances(h, 0, 2), (std::vector<std::int32_t>{0, 1, 2, -1, -1}));
}

TEST(Bfs, HyperedgeMembersAreMutuallyAdjacent) {
  const auto h = clique_edge();
  EXPECT_EQ(distances(h, 0), (std::vector<std::int32_t>{0, 1, 1, 1}));
}

TEST(Bfs, UnreachableNodesStayMinusOne) {
  const auto h = Hypergraph::from_edges(3, {{0, 1}});
  EXPECT_EQ(distances(h, 0)[2], -1);
}

TEST(Ball, RadiusZeroIsSelf) {
  const auto h = path5();
  EXPECT_EQ(ball(h, 2, 0), (std::vector<NodeId>{2}));
}

TEST(Ball, GrowsAlongPath) {
  const auto h = path5();
  EXPECT_EQ(ball(h, 2, 1), (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(ball(h, 2, 2), (std::vector<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ball(h, 0, 1), (std::vector<NodeId>{0, 1}));
}

TEST(BallCollector, ReusableAcrossCalls) {
  const auto h = path5();
  BallCollector collector(h);
  EXPECT_EQ(collector.collect(0, 1), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(collector.collect(4, 1), (std::vector<NodeId>{3, 4}));
  // Second call must fully reset: node 0 no longer present.
  EXPECT_EQ(collector.last_distance(0), -1);
  EXPECT_EQ(collector.last_distance(3), 1);
  EXPECT_EQ(collector.last_distance(4), 0);
}

TEST(BallCollector, MatchesFreeFunction) {
  const auto h = clique_edge();
  BallCollector collector(h);
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_EQ(collector.collect(v, 1), ball(h, v, 1));
  }
}

TEST(AllBalls, MatchesPerNodeBalls) {
  const auto h = path5();
  for (std::int32_t r = 0; r <= 3; ++r) {
    const auto balls = all_balls(h, r);
    ASSERT_EQ(balls.size(), 5u);
    for (NodeId v = 0; v < 5; ++v) {
      EXPECT_EQ(balls[static_cast<std::size_t>(v)], ball(h, v, r));
    }
  }
}

TEST(AllBalls, BallMembershipIsSymmetric) {
  const auto h = path5();
  const auto balls = all_balls(h, 2);
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = 0; v < 5; ++v) {
      const bool u_in_v = std::binary_search(
          balls[static_cast<std::size_t>(v)].begin(),
          balls[static_cast<std::size_t>(v)].end(), u);
      const bool v_in_u = std::binary_search(
          balls[static_cast<std::size_t>(u)].begin(),
          balls[static_cast<std::size_t>(u)].end(), v);
      EXPECT_EQ(u_in_v, v_in_u);
    }
  }
}

TEST(MultiSourceBall, MatchesUnionOfSingleSourceBalls) {
  const auto h = path5();
  const std::vector<NodeId> sources = {0, 3};
  for (std::int32_t r = 0; r <= 4; ++r) {
    std::vector<NodeId> expected;
    for (const NodeId s : sources) {
      const auto b = ball(h, s, r);
      expected.insert(expected.end(), b.begin(), b.end());
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    EXPECT_EQ(multi_source_ball(h, sources, r), expected) << "r=" << r;
  }
}

TEST(MultiSourceBall, DistanceIsToTheNearestSource) {
  const auto h = path5();
  const std::vector<NodeId> sources = {0, 4};
  BallCollector collector(h);
  EXPECT_EQ(collector.collect(sources, 1), (std::vector<NodeId>{0, 1, 3, 4}));
  EXPECT_EQ(collector.last_distance(2), -1);
  EXPECT_EQ(collector.collect(sources, 2), multi_source_ball(h, sources, 2));
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(collector.last_distance(v), std::min(v, 4 - v)) << "v=" << v;
  }
  // A single-source call afterwards resets every multi-source entry.
  EXPECT_EQ(collector.collect(2, 0), (std::vector<NodeId>{2}));
  EXPECT_EQ(collector.last_distance(0), -1);
}

TEST(MultiSourceBall, RadiusZeroIsTheDedupedSourceSet) {
  const auto h = path5();
  const std::vector<NodeId> sources = {4, 1, 1};
  EXPECT_EQ(multi_source_ball(h, sources, 0), (std::vector<NodeId>{1, 4}));
  EXPECT_TRUE(multi_source_ball(h, {}, 2).empty());
}

TEST(RepairBalls, DirtyRegionRepairMatchesFromScratch) {
  // Path 0-1-2-3-4 gains a chord hyperedge {0, 4}: both endpoints of the
  // new adjacency form the touched set, and the radius-r dirty region
  // around it is exactly what repair must recompute.
  const auto h_old = path5();
  const Hypergraph h_new =
      Hypergraph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}});
  const std::vector<NodeId> touched = {0, 4};
  for (std::int32_t r = 0; r <= 4; ++r) {
    auto balls = all_balls(h_old, r);
    const auto dirty = multi_source_ball(h_new, touched, r);
    repair_balls(h_new, r, dirty, balls);
    EXPECT_EQ(balls, all_balls(h_new, r)) << "r=" << r;
  }
}

TEST(RepairBalls, EdgeRemovalIsCoveredByTheTouchedClosure) {
  // Reverse direction: the chord disappears. A single BFS on the *new*
  // graph from the removed edge's members still covers every node whose
  // ball shrank, because both endpoints of every removed adjacency are
  // sources.
  const Hypergraph h_old =
      Hypergraph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}});
  const auto h_new = path5();
  const std::vector<NodeId> touched = {0, 4};
  for (std::int32_t r = 0; r <= 4; ++r) {
    auto balls = all_balls(h_old, r);
    const auto dirty = multi_source_ball(h_new, touched, r);
    repair_balls(h_new, r, dirty, balls);
    EXPECT_EQ(balls, all_balls(h_new, r)) << "r=" << r;
  }
}

TEST(RepairBalls, GrowsTheCacheForAddedNodes) {
  const auto h_old = path5();
  // Node 5 joins via a new hyperedge {4, 5}.
  const Hypergraph h_new =
      Hypergraph::from_edges(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  const std::vector<NodeId> touched = {4, 5};
  for (std::int32_t r = 0; r <= 3; ++r) {
    auto balls = all_balls(h_old, r);
    const auto dirty = multi_source_ball(h_new, touched, r);
    repair_balls(h_new, r, dirty, balls);
    EXPECT_EQ(balls, all_balls(h_new, r)) << "r=" << r;
  }
}

}  // namespace
}  // namespace mmlp
