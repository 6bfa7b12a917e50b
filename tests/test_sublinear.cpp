#include "mmlp/core/sublinear.hpp"

#include <gtest/gtest.h>

#include "mmlp/core/safe.hpp"
#include "mmlp/core/solution.hpp"
#include "mmlp/gen/random_instance.hpp"
#include "mmlp/util/check.hpp"
#include "test_helpers.hpp"

namespace mmlp {
namespace {

TEST(LocalOutput, SafePerAgentMatchesFullRun) {
  const auto instance = make_random_instance({.num_agents = 50, .seed = 3});
  const auto full = safe_solution(instance);
  for (AgentId v = 0; v < instance.num_agents(); ++v) {
    EXPECT_DOUBLE_EQ(local_output_safe(instance, v),
                     full[static_cast<std::size_t>(v)]);
  }
}

double exact_mean_benefit(const Instance& instance,
                          const std::vector<double>& x) {
  double total = 0.0;
  for (PartyId k = 0; k < instance.num_parties(); ++k) {
    total += party_benefit(instance, x, k);
  }
  return total / static_cast<double>(instance.num_parties());
}

TEST(Sublinear, EstimateWithinConfidenceInterval) {
  const auto instance = make_random_instance({.num_agents = 300, .seed = 9});
  const auto exact = exact_mean_benefit(instance, safe_solution(instance));
  const auto estimate = estimate_mean_party_benefit(
      instance, {.samples = 200, .seed = 5});
  EXPECT_NEAR(estimate.mean_benefit, exact, estimate.half_width)
      << "exact " << exact << " est " << estimate.mean_benefit << " ± "
      << estimate.half_width;
  EXPECT_GT(estimate.half_width, 0.0);
  EXPECT_GT(estimate.value_bound, 0.0);
}

TEST(Sublinear, WorkScalesWithSamplesNotWithN) {
  // The defining property: doubling n (at fixed samples) must not double
  // the number of per-agent evaluations.
  SublinearOptions options;
  options.samples = 32;
  options.seed = 4;
  const auto small = make_random_instance({.num_agents = 200, .seed = 6});
  const auto large = make_random_instance({.num_agents = 2000, .seed = 6});
  const auto est_small = estimate_mean_party_benefit(small, options);
  const auto est_large = estimate_mean_party_benefit(large, options);
  // Each sampled party touches at most max_support agents.
  EXPECT_LE(est_small.agents_evaluated, 32 * 3);
  EXPECT_LE(est_large.agents_evaluated, 32 * 3);
}

TEST(Sublinear, HalfWidthShrinksWithSamples) {
  const auto instance = make_random_instance({.num_agents = 100, .seed = 8});
  const auto few = estimate_mean_party_benefit(instance, {.samples = 16});
  const auto many = estimate_mean_party_benefit(instance, {.samples = 256});
  EXPECT_LT(many.half_width, few.half_width);
  // Hoeffding: quadrupling samples halves the width.
  EXPECT_NEAR(many.half_width, few.half_width / 4.0, 1e-9);
}

TEST(Sublinear, DeterministicBySeed) {
  const auto instance = make_random_instance({.num_agents = 100, .seed = 8});
  const auto a = estimate_mean_party_benefit(instance, {.samples = 50, .seed = 3});
  const auto b = estimate_mean_party_benefit(instance, {.samples = 50, .seed = 3});
  EXPECT_DOUBLE_EQ(a.mean_benefit, b.mean_benefit);
}

TEST(Sublinear, RejectsBadOptions) {
  const auto instance = testing::two_agent_instance();
  EXPECT_THROW(estimate_mean_party_benefit(instance, {.samples = 0}),
               CheckError);
  EXPECT_THROW(
      estimate_mean_party_benefit(instance, {.samples = 10, .confidence = 1.0}),
      CheckError);
}

}  // namespace
}  // namespace mmlp
