#include "mmlp/graph/growth.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "mmlp/gen/geometric.hpp"
#include "mmlp/gen/grid.hpp"
#include "mmlp/gen/random_instance.hpp"
#include "mmlp/graph/bfs.hpp"

namespace mmlp {
namespace {

Hypergraph cycle(std::int32_t n) {
  std::vector<std::vector<NodeId>> edges;
  for (NodeId v = 0; v < n; ++v) {
    edges.push_back({v, (v + 1) % n});
  }
  return Hypergraph::from_edges(n, edges);
}

TEST(BallProfile, CycleBallSizes) {
  const auto h = cycle(12);
  const auto profile = ball_size_profile(h, 0, 4);
  // On a cycle |B(v, r)| = 2r + 1 while 2r + 1 <= n.
  EXPECT_EQ(profile, (std::vector<std::size_t>{1, 3, 5, 7, 9}));
}

TEST(BallProfile, SaturatesAtComponentSize) {
  const auto h = cycle(6);
  const auto profile = ball_size_profile(h, 0, 5);
  EXPECT_EQ(profile.back(), 6u);
  EXPECT_EQ(profile[3], 6u);  // saturated at r = 3 already
}

TEST(Growth, CycleGamma) {
  const auto h = cycle(64);
  // γ(r) = (2r+3)/(2r+1) on a long cycle.
  EXPECT_NEAR(growth_gamma(h, 0), 3.0, 1e-12);
  EXPECT_NEAR(growth_gamma(h, 1), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(growth_gamma(h, 2), 7.0 / 5.0, 1e-12);
}

TEST(Growth, ProfileMatchesPointwiseGamma) {
  const auto h = cycle(32);
  const auto profile = growth_profile(h, 3);
  for (std::int32_t r = 0; r <= 3; ++r) {
    EXPECT_NEAR(profile[static_cast<std::size_t>(r)], growth_gamma(h, r), 1e-12);
  }
}

TEST(Growth, GammaDecreasesOnGrids) {
  // The paper's point: on d-dimensional grids γ(r) = 1 + Θ(1/r).
  const auto instance = make_grid_instance({.dims = {9, 9}, .torus = true});
  const auto h = instance.communication_graph();
  const auto profile = growth_profile(h, 3);
  EXPECT_GT(profile[0], profile[1]);
  EXPECT_GT(profile[1], profile[2]);
  EXPECT_GE(profile[2], 1.0);
}

TEST(Growth, Theorem3BoundIsProductOfGammas) {
  const auto h = cycle(64);
  const auto profile = growth_profile(h, 2);
  EXPECT_NEAR(theorem3_bound(h, 2), profile[1] * profile[2], 1e-12);
  EXPECT_NEAR(theorem3_bound(h, 1), profile[0] * profile[1], 1e-12);
}

TEST(Growth, CliqueSaturatesImmediately) {
  const auto h = Hypergraph::from_edges(5, {{0, 1, 2, 3, 4}});
  EXPECT_NEAR(growth_gamma(h, 1), 1.0, 1e-12);  // B(v,1) is already everything
  EXPECT_NEAR(growth_gamma(h, 0), 5.0, 1e-12);
}

TEST(Growth, ProfileMatchesBruteForceBallRatios) {
  // γ(r) = max_v |B(v, r+1)| / |B(v, r)| straight from the definition,
  // one ball() per (v, r), against the one-pass profile — bitwise, since
  // both divide the same two integers.
  const Hypergraph graphs[] = {
      make_random_instance({.num_agents = 60, .seed = 9}).communication_graph(),
      make_geometric_instance({.num_agents = 60, .seed = 4})
          .instance.communication_graph()};
  for (const Hypergraph& h : graphs) {
    const auto profile = growth_profile(h, 3);
    ASSERT_EQ(profile.size(), 4u);
    for (std::int32_t r = 0; r <= 3; ++r) {
      double expected = 0.0;
      for (NodeId v = 0; v < h.num_nodes(); ++v) {
        expected = std::max(
            expected, static_cast<double>(ball(h, v, r + 1).size()) /
                          static_cast<double>(ball(h, v, r).size()));
      }
      EXPECT_EQ(profile[static_cast<std::size_t>(r)], expected) << "r=" << r;
    }
    for (NodeId v = 0; v < h.num_nodes(); ++v) {
      const auto sizes = ball_size_profile(h, v, 3);
      for (std::int32_t r = 0; r <= 3; ++r) {
        EXPECT_EQ(sizes[static_cast<std::size_t>(r)], ball(h, v, r).size());
      }
    }
  }
}

}  // namespace
}  // namespace mmlp
