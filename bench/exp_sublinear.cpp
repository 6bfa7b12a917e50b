// Section 1.1 claim: a local algorithm yields a sublinear-time estimator
// of its solution value (additive error, failure probability). Shows the
// Hoeffding interval tightening with samples and the work counter
// staying flat as n grows 10x.
#include <cmath>
#include <cstdio>

#include "mmlp/core/solution.hpp"
#include "mmlp/core/safe.hpp"
#include "mmlp/core/sublinear.hpp"
#include "mmlp/gen/random_instance.hpp"
#include "mmlp/util/table.hpp"

namespace {

double exact_mean(const mmlp::Instance& instance) {
  const auto x = mmlp::safe_solution(instance);
  double total = 0.0;
  for (mmlp::PartyId k = 0; k < instance.num_parties(); ++k) {
    total += mmlp::party_benefit(instance, x, k);
  }
  return total / static_cast<double>(instance.num_parties());
}

}  // namespace

int main() {
  using namespace mmlp;
  std::printf("=== Sublinear estimation from local algorithms "
              "(Section 1.1) ===\n\n");

  {
    const auto instance = make_random_instance({.num_agents = 2000, .seed = 1});
    const double exact = exact_mean(instance);
    TableWriter table({"samples", "estimate", "exact", "abs error",
                       "95% half-width", "within CI"},
                      4);
    for (const std::int32_t samples : {16, 64, 256, 1024}) {
      const auto estimate = estimate_mean_party_benefit(
          instance, {.samples = samples, .seed = 11});
      const double error = std::abs(estimate.mean_benefit - exact);
      table.add_row({static_cast<std::int64_t>(samples),
                     estimate.mean_benefit, exact, error,
                     estimate.half_width,
                     std::string(error <= estimate.half_width ? "yes" : "NO")});
    }
    table.print("Mean party benefit of the safe solution, n = 2000 "
                "(error shrinks ~1/sqrt(samples))");
  }
  std::printf("\n");
  {
    TableWriter table({"n", "samples", "agents evaluated", "estimate"}, 4);
    for (const AgentId n : {500, 5000, 50000}) {
      const auto instance = make_random_instance({.num_agents = n, .seed = 2});
      const auto estimate = estimate_mean_party_benefit(
          instance, {.samples = 128, .seed = 13});
      table.add_row({static_cast<std::int64_t>(n), std::int64_t{128},
                     estimate.agents_evaluated, estimate.mean_benefit});
    }
    table.print("Work at fixed sample count as n grows 100x "
                "(agents evaluated stays O(samples), not O(n))");
  }
  return 0;
}
