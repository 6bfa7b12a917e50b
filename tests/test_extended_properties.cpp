// Deeper cross-cutting properties tying the subsystems together.
#include <gtest/gtest.h>

#include "mmlp/core/local_averaging.hpp"
#include "mmlp/core/solution.hpp"
#include "mmlp/core/view.hpp"
#include "mmlp/dist/self_stabilize.hpp"
#include "mmlp/gen/geometric.hpp"
#include "mmlp/gen/grid.hpp"
#include "mmlp/gen/isp.hpp"
#include "mmlp/gen/lowerbound.hpp"
#include "mmlp/gen/random_instance.hpp"
#include "mmlp/gen/sensor.hpp"
#include "mmlp/graph/bfs.hpp"
#include "mmlp/lp/maxmin_reduction.hpp"

namespace mmlp {
namespace {

TEST(FullViewLimit, AveragingWithGlobalViewsIsOptimal) {
  // When R covers the whole (connected) graph, every view LP is the
  // global LP, S_k = U_i = V so β_j = 1, and x̃ equals the common optimal
  // solution: the averaging algorithm degenerates to the exact optimum.
  // This is the R → ∞ limit of Theorem 3 (γ(∞) = 1).
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto instance = make_random_instance({
        .num_agents = 20,
        .resources_per_agent = 2,
        .parties_per_agent = 1,
        .max_support = 3,
        .seed = seed,
    });
    const auto h = instance.communication_graph();
    if (!h.connected()) {
      continue;  // the limit statement needs one component
    }
    const auto exact = solve_maxmin_simplex(instance);
    ASSERT_EQ(exact.status, LpStatus::kOptimal);
    const auto result = local_averaging(instance, {.R = 25});
    EXPECT_NEAR(result.ratio_bound, 1.0, 1e-12) << "seed " << seed;
    EXPECT_NEAR(objective_omega(instance, result.x), exact.omega, 1e-6)
        << "seed " << seed;
  }
}

TEST(Serialization, RoundTripAcrossEveryFamily) {
  const Instance instances[] = {
      make_random_instance({.num_agents = 30, .seed = 1}),
      make_grid_instance(
          {.dims = {4, 4}, .torus = true, .randomize = true, .seed = 2}),
      make_geometric_instance({.num_agents = 40, .seed = 3}).instance,
      make_sensor_network({.num_sensors = 25,
                           .num_relays = 8,
                           .num_areas = 4,
                           .radio_range = 0.4,
                           .seed = 4})
          .instance,
      make_isp_network({.num_customers = 5, .seed = 5}).instance,
  };
  for (const Instance& instance : instances) {
    const auto restored = Instance::deserialize(instance.serialize());
    EXPECT_TRUE(instance == restored);
    // Exact coefficient fidelity (full double precision).
    for (ResourceId i = 0; i < instance.num_resources(); ++i) {
      for (const Coef& entry : instance.resource_support(i)) {
        EXPECT_EQ(restored.usage(i, entry.id), entry.value);
      }
    }
  }
}

TEST(ViewConsistency, ViewOfViewIsStable) {
  // Extracting a view from a materialised view (same center, same R)
  // reproduces the same local LP: extract is idempotent on its image.
  const auto instance = make_grid_instance({.dims = {5, 5}, .torus = true});
  const auto h = instance.communication_graph();
  const AgentId center = 12;
  const std::int32_t R = 1;
  const auto view = extract_view(instance, h, center, R);
  // Build a standalone instance out of the view (resources restricted,
  // parties full) and re-extract with full radius.
  Instance::Builder builder;
  builder.reserve(static_cast<AgentId>(view.agents.size()), 0, 0);
  for (std::size_t r = 0; r < view.resources.size(); ++r) {
    const ResourceId id = builder.add_resource();
    for (const Coef& entry : view.resource_entries(r)) {
      builder.set_usage(id, entry.id, entry.value);
    }
  }
  for (std::size_t p = 0; p < view.parties.size(); ++p) {
    const PartyId id = builder.add_party();
    for (const Coef& entry : view.party_entries(p)) {
      builder.set_benefit(id, entry.id, entry.value);
    }
  }
  const auto materialised = std::move(builder).build();
  // Same LP ⇒ same optimal value.
  const auto direct = solve_view_lp(view);
  const auto relifted = solve_maxmin_simplex(materialised);
  ASSERT_EQ(relifted.status, LpStatus::kOptimal);
  EXPECT_NEAR(direct.omega, relifted.omega, 1e-9);
}

struct LbConfig {
  std::int32_t d, D, R;
};

class LowerBoundStructure : public ::testing::TestWithParam<LbConfig> {};

TEST_P(LowerBoundStructure, InvariantsAcrossParameters) {
  const auto [d, D, R] = GetParam();
  LowerBoundParams params;
  params.d = d;
  params.D = D;
  params.r = 1;
  params.R = R;
  params.seed = 41;
  const auto lb = build_lower_bound_instance(params);

  // Degree Δ = d^R D^(R−1) and the leaf pairing is a perfect matching of
  // all leaves across trees.
  std::int64_t expected_degree = 1;
  for (std::int32_t e = 0; e < R; ++e) expected_degree *= d;
  for (std::int32_t e = 0; e + 1 < R; ++e) expected_degree *= D;
  EXPECT_EQ(lb.degree, expected_degree);

  // The communication graph of S is connected iff Q is connected; in all
  // cases every tree is internally connected — check one tree's span.
  const auto h = lb.instance.communication_graph(false);
  BallCollector bfs(h);
  bfs.collect(lb.agent_id(0, 0), h.num_nodes());
  for (std::int32_t local = 0; local < lb.tree_size; ++local) {
    EXPECT_GE(bfs.last_distance(lb.agent_id(0, local)), 0);
  }

  // The S′ pipeline works from any p and x̂ certifies ω*(S′) ≥ 1.
  const auto sub = build_s_prime(lb, lb.num_trees / 2);
  const auto x_hat = alternating_solution(sub);
  const auto eval = evaluate(sub.instance, x_hat);
  EXPECT_TRUE(eval.feasible());
  EXPECT_NEAR(eval.omega, 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Configs, LowerBoundStructure,
                         ::testing::Values(LbConfig{2, 2, 2}, LbConfig{2, 3, 2},
                                           LbConfig{3, 2, 2}, LbConfig{2, 1, 2},
                                           LbConfig{2, 1, 3}, LbConfig{1, 2, 2}));

TEST(MessageComplexity, FloodMessagesScaleWithDegreeSum) {
  // LOCAL-model accounting: one message per (agent, hyperedge, round).
  const auto instance = make_grid_instance({.dims = {4, 4}, .torus = true});
  const Hypergraph h = instance.communication_graph(false);
  std::int64_t degree_sum = 0;
  for (NodeId v = 0; v < h.num_nodes(); ++v) {
    degree_sum += static_cast<std::int64_t>(h.degree(v));
  }
  EXPECT_EQ(message_count(h, 5), 5 * degree_sum);
}

}  // namespace
}  // namespace mmlp
