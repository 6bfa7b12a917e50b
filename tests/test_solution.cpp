#include "mmlp/core/solution.hpp"

#include <gtest/gtest.h>

#include "mmlp/core/local_averaging.hpp"
#include "mmlp/gen/grid.hpp"
#include "mmlp/gen/random_instance.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/rng.hpp"

#include <cmath>
#include <cstdint>
#include <limits>

#include "test_helpers.hpp"

namespace mmlp {
namespace {

TEST(Solution, PartyBenefitAndResourceLoad) {
  const auto instance = testing::two_agent_instance();
  const std::vector<double> x{0.25, 0.5};
  EXPECT_DOUBLE_EQ(party_benefit(instance, x, 0), 0.25);
  EXPECT_DOUBLE_EQ(party_benefit(instance, x, 1), 0.5);
  EXPECT_DOUBLE_EQ(resource_load(instance, x, 0), 0.75);
}

TEST(Solution, ObjectiveIsMinOverParties) {
  const auto instance = testing::two_agent_instance();
  EXPECT_DOUBLE_EQ(objective_omega(instance, {0.25, 0.5}), 0.25);
  EXPECT_DOUBLE_EQ(objective_omega(instance, {0.5, 0.1}), 0.1);
}

TEST(Solution, EvaluateTracksArgmins) {
  const auto instance = testing::two_agent_instance();
  const auto eval = evaluate(instance, {0.25, 0.5});
  EXPECT_DOUBLE_EQ(eval.omega, 0.25);
  EXPECT_EQ(eval.argmin_party, 0);
  EXPECT_EQ(eval.argmax_resource, 0);
  EXPECT_TRUE(eval.feasible());
  EXPECT_DOUBLE_EQ(eval.worst_violation, 0.0);
}

TEST(Solution, EvaluateFlagsOverload) {
  const auto instance = testing::two_agent_instance();
  const auto eval = evaluate(instance, {1.0, 0.5});
  EXPECT_FALSE(eval.feasible());
  EXPECT_NEAR(eval.worst_violation, 0.5, 1e-12);
}

TEST(Solution, EvaluateFlagsNegativity) {
  const auto instance = testing::two_agent_instance();
  const auto eval = evaluate(instance, {-0.1, 0.2});
  EXPECT_FALSE(eval.feasible());
  EXPECT_NEAR(eval.worst_violation, 0.1, 1e-12);
}

TEST(Solution, FeasibleWithinTolerance) {
  const auto instance = testing::two_agent_instance();
  const auto eval = evaluate(instance, {0.5, 0.5 + 0.5e-7});
  EXPECT_TRUE(eval.feasible(kFeasTol));
  EXPECT_FALSE(eval.feasible(1e-9));
}

TEST(Solution, ScaleToFeasibleShrinksOverloaded) {
  const auto instance = testing::two_agent_instance();
  std::vector<double> x{2.0, 2.0};  // load 4
  const double scale = scale_to_feasible(instance, x);
  EXPECT_NEAR(scale, 0.25, 1e-12);
  EXPECT_NEAR(x[0], 0.5, 1e-12);
  EXPECT_TRUE(evaluate(instance, x).feasible());
}

TEST(Solution, ScaleToFeasibleLeavesFeasibleAlone) {
  const auto instance = testing::two_agent_instance();
  std::vector<double> x{0.25, 0.25};
  EXPECT_DOUBLE_EQ(scale_to_feasible(instance, x), 1.0);
  EXPECT_DOUBLE_EQ(x[0], 0.25);
}

TEST(Solution, ScaleToFeasibleClampsNegatives) {
  const auto instance = testing::two_agent_instance();
  std::vector<double> x{-1.0, 0.5};
  scale_to_feasible(instance, x);
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 0.5);
}

TEST(Solution, NoPartiesMeansInfiniteOmega) {
  Instance::Builder builder;
  const AgentId v = builder.add_agent();
  const ResourceId i = builder.add_resource();
  builder.set_usage(i, v, 1.0);
  const auto instance = std::move(builder).build();
  EXPECT_TRUE(std::isinf(objective_omega(instance, {0.0})));
  EXPECT_EQ(evaluate(instance, {0.0}).argmin_party, -1);
}

TEST(Solution, ApproximationRatioConventions) {
  EXPECT_DOUBLE_EQ(approximation_ratio(1.0, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(approximation_ratio(0.0, 0.0), 1.0);
  EXPECT_TRUE(std::isinf(approximation_ratio(1.0, 0.0)));
  EXPECT_THROW(approximation_ratio(-1.0, 0.5), CheckError);
}

// FNV-1a over the raw bits of everything evaluate() reports: ω, both
// arg-indices, the worst violation and the per-party benefits. The
// benefits and objective_omega must agree with the evaluation.
std::uint64_t evaluation_hash(const Instance& instance,
                              const std::vector<double>& x) {
  std::vector<double> benefits;
  const Evaluation eval = evaluate(instance, x, &benefits);
  EXPECT_EQ(benefits.size(), static_cast<std::size_t>(instance.num_parties()));
  for (PartyId k = 0; k < instance.num_parties(); ++k) {
    EXPECT_EQ(party_benefit(instance, x, k),
              benefits[static_cast<std::size_t>(k)]);
  }
  EXPECT_EQ(objective_omega(instance, x), eval.omega);
  testing::Fnv1a hash;
  hash.add(eval.omega);
  hash.add(static_cast<std::uint64_t>(eval.argmin_party));
  hash.add(static_cast<std::uint64_t>(eval.argmax_resource));
  hash.add(eval.worst_violation);
  hash.add(benefits);
  return hash.value();
}

// The constants were recorded on the row-by-row evaluate() that preceded
// the one-pass rewrite: every row must still be summed in CSR order, and
// ties must still resolve to the lowest party and the first maximal
// resource (the torus with uniform x ties everywhere).
TEST(Solution, EvaluateBitsMatchTheParent) {
  const Instance torus =
      make_grid_instance({.dims = {100, 100}, .torus = true});
  const std::vector<double> uniform(
      static_cast<std::size_t>(torus.num_agents()), 0.2);

  const Instance random = make_random_instance({.num_agents = 2000,
                                                .resources_per_agent = 3,
                                                .parties_per_agent = 2,
                                                .max_support = 4,
                                                .seed = 7});
  const std::vector<double> averaged = local_averaging(random, {.R = 1}).x;
  Rng rng(11);
  std::vector<double> signed_x(static_cast<std::size_t>(random.num_agents()));
  for (double& value : signed_x) {
    value = rng.uniform(-1.0, 1.0);
  }

  EXPECT_EQ(evaluation_hash(torus, uniform), 0xee6002ddfe87e145ULL);
  EXPECT_EQ(evaluation_hash(random, averaged), 0xb83c3b204ba3d715ULL);
  EXPECT_EQ(evaluation_hash(random, signed_x), 0x3b53f01e9ac23561ULL);
}

TEST(Solution, NonFiniteXIsNeverFeasible) {
  // std::max drops nan, so a nan x once read as feasible with
  // worst_violation 0 and ω = +inf. Any inf or nan among x, the
  // benefits and the loads now reports an infinite violation.
  const Instance torus = make_grid_instance({.dims = {4, 4}, .torus = true});
  const auto n = static_cast<std::size_t>(torus.num_agents());
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Evaluation all_nan = evaluate(torus, std::vector<double>(n, nan));
  EXPECT_FALSE(all_nan.feasible());
  EXPECT_EQ(all_nan.worst_violation, inf);
  for (const double bad : {nan, inf, -inf}) {
    std::vector<double> x(n, 0.1);
    x[5] = bad;
    const Evaluation eval = evaluate(torus, x);
    EXPECT_FALSE(eval.feasible()) << bad;
    EXPECT_EQ(eval.worst_violation, inf) << bad;
  }
  // Finite x far from feasibility still gets its finite violation.
  const Evaluation overloaded = evaluate(torus, std::vector<double>(n, 1.0));
  EXPECT_TRUE(std::isfinite(overloaded.worst_violation));
  EXPECT_GT(overloaded.worst_violation, 0.0);
}

TEST(Solution, SizeMismatchThrows) {
  const auto instance = testing::two_agent_instance();
  EXPECT_THROW(objective_omega(instance, {0.1}), CheckError);
  EXPECT_THROW(evaluate(instance, {0.1, 0.2, 0.3}), CheckError);
}

}  // namespace
}  // namespace mmlp
