#include "mmlp/core/transform.hpp"

#include <gtest/gtest.h>

#include "mmlp/core/solution.hpp"
#include "mmlp/gen/grid.hpp"
#include "mmlp/gen/random_instance.hpp"
#include "mmlp/graph/bfs.hpp"
#include "mmlp/lp/maxmin_reduction.hpp"
#include "mmlp/util/check.hpp"
#include "test_helpers.hpp"

namespace mmlp {
namespace {

TEST(Relabel, PreservesStructure) {
  const auto instance = testing::single_party_instance();
  Rng rng(3);
  const auto perm = rng.permutation(instance.num_agents());
  const auto relabeled = relabel_agents(instance, perm);
  EXPECT_EQ(relabeled.num_agents(), instance.num_agents());
  EXPECT_EQ(relabeled.num_nonzeros(), instance.num_nonzeros());
  // Coefficients follow the agents.
  for (ResourceId i = 0; i < instance.num_resources(); ++i) {
    for (const Coef& entry : instance.resource_support(i)) {
      EXPECT_DOUBLE_EQ(
          relabeled.usage(i, perm[static_cast<std::size_t>(entry.id)]),
          entry.value);
    }
  }
}

TEST(Relabel, IdentityIsNoop) {
  const auto instance = testing::two_agent_instance();
  EXPECT_TRUE(relabel_agents(instance, {0, 1}) == instance);
}

TEST(Relabel, RejectsNonPermutations) {
  const auto instance = testing::two_agent_instance();
  EXPECT_THROW(relabel_agents(instance, {0, 0}), CheckError);
  EXPECT_THROW(relabel_agents(instance, {0}), CheckError);
  EXPECT_THROW(relabel_agents(instance, {0, 2}), CheckError);
}

TEST(Relabel, OptimumIsInvariant) {
  const auto instance = make_random_instance({.num_agents = 30, .seed = 5});
  Rng rng(7);
  const auto perm = rng.permutation(instance.num_agents());
  const auto relabeled = relabel_agents(instance, perm);
  const auto base = solve_maxmin_simplex(instance);
  const auto mapped = solve_maxmin_simplex(relabeled);
  EXPECT_NEAR(base.omega, mapped.omega, 1e-9);
}

TEST(Relabel, SolutionRoundTrip) {
  const std::vector<double> x{0.1, 0.2, 0.3};
  const std::vector<AgentId> perm{2, 0, 1};
  const auto mapped = relabel_solution(x, perm);
  EXPECT_EQ(mapped, (std::vector<double>{0.2, 0.3, 0.1}));
  // ω is label-free: evaluate mapped solution on mapped instance.
  const auto instance = testing::single_party_instance();
  const auto relabeled = relabel_agents(instance, perm);
  const std::vector<double> y{0.4, 0.1, 0.5};
  EXPECT_NEAR(objective_omega(instance, y),
              objective_omega(relabeled, relabel_solution(y, perm)), 1e-12);
}

TEST(Scaling, UsageScalingLaw) {
  // Halving every a_iv doubles ω*.
  const auto instance = make_random_instance({.num_agents = 25, .seed = 9});
  const auto base = solve_maxmin_simplex(instance);
  const auto halved = solve_maxmin_simplex(scale_usages(instance, 0.5));
  EXPECT_NEAR(halved.omega, 2.0 * base.omega, 1e-7);
  const auto doubled = solve_maxmin_simplex(scale_usages(instance, 2.0));
  EXPECT_NEAR(doubled.omega, 0.5 * base.omega, 1e-7);
}

TEST(Scaling, BenefitScalingLaw) {
  const auto instance = make_random_instance({.num_agents = 25, .seed = 11});
  const auto base = solve_maxmin_simplex(instance);
  const auto tripled = solve_maxmin_simplex(scale_benefits(instance, 3.0));
  EXPECT_NEAR(tripled.omega, 3.0 * base.omega, 1e-7);
}

TEST(Scaling, RejectsNonPositiveFactor) {
  const auto instance = testing::two_agent_instance();
  EXPECT_THROW(scale_usages(instance, 0.0), CheckError);
  EXPECT_THROW(scale_benefits(instance, -1.0), CheckError);
}

TEST(DisjointUnion, CountsAdd) {
  const auto a = testing::two_agent_instance();
  const auto b = testing::single_party_instance();
  const auto joined = disjoint_union(a, b);
  EXPECT_EQ(joined.num_agents(), a.num_agents() + b.num_agents());
  EXPECT_EQ(joined.num_resources(), a.num_resources() + b.num_resources());
  EXPECT_EQ(joined.num_parties(), a.num_parties() + b.num_parties());
  joined.validate();
}

TEST(DisjointUnion, OmegaIsTheMin) {
  const auto a = make_random_instance({.num_agents = 15, .seed = 2});
  const auto b = make_random_instance({.num_agents = 20, .seed = 3});
  const double omega_a = solve_maxmin_simplex(a).omega;
  const double omega_b = solve_maxmin_simplex(b).omega;
  const double omega_union = solve_maxmin_simplex(disjoint_union(a, b)).omega;
  EXPECT_NEAR(omega_union, std::min(omega_a, omega_b), 1e-7);
}

TEST(DisjointUnion, ComponentsStayDisconnected) {
  const auto a = testing::path_instance(3);
  const auto b = testing::path_instance(4);
  const auto joined = disjoint_union(a, b);
  EXPECT_FALSE(joined.communication_graph().connected());
}

TEST(Induce, WholeSetIsIdentity) {
  const auto instance = testing::single_party_instance();
  std::vector<AgentId> all{0, 1, 2};
  const auto sub = induce(instance, all);
  EXPECT_TRUE(sub.instance == instance);
  EXPECT_EQ(sub.resources.size(), 2u);
  EXPECT_EQ(sub.parties.size(), 1u);
}

TEST(Induce, KeepsOnlyContainedHyperedges) {
  const auto instance = testing::path_instance(5);
  // Agents {0, 1, 2}: resources 0 (0-1) and 1 (1-2) survive; resource 2
  // (2-3) does not. Singleton parties of 0..2 survive.
  const auto sub = induce(instance, {0, 1, 2});
  EXPECT_EQ(sub.instance.num_agents(), 3);
  EXPECT_EQ(sub.instance.num_resources(), 2);
  EXPECT_EQ(sub.instance.num_parties(), 3);
  EXPECT_EQ(sub.resources, (std::vector<ResourceId>{0, 1}));
}

TEST(Induce, BallSubsetsAreAlwaysValid) {
  // Unions of balls are "closed enough": every kept agent keeps >= 1
  // resource. (Single-agent cuts may not be; this mirrors Section 4.3's
  // choice of V'.)
  const auto instance = make_grid_instance({.dims = {5, 5}, .torus = true});
  const auto h = instance.communication_graph();
  const auto members = ball(h, 12, 2);
  const auto sub = induce(instance, members);
  sub.instance.validate();
  EXPECT_EQ(sub.instance.num_agents(),
            static_cast<AgentId>(members.size()));
}

TEST(Induce, OmegaOfSubinstanceCanExceedParent) {
  // Removing parties can only raise the min; removing agents can lower
  // benefits. Check ω*(sub) against a direct solve (consistency, not a
  // fixed inequality).
  const auto instance = make_grid_instance({.dims = {4, 4}, .torus = true});
  const auto h = instance.communication_graph();
  const auto sub = induce(instance, ball(h, 0, 1));
  const auto result = solve_maxmin_simplex(sub.instance);
  EXPECT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_GT(result.omega, 0.0);
}

TEST(Induce, RejectsUnsortedOrDuplicateInput) {
  const auto instance = testing::path_instance(4);
  EXPECT_THROW(induce(instance, {2, 1}), CheckError);
  EXPECT_THROW(induce(instance, {1, 1, 2}), CheckError);
}

}  // namespace
}  // namespace mmlp
