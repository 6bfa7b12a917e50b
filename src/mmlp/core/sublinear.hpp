// Sublinear-time estimation from local algorithms (Section 1.1).
//
// The paper observes (citing Parnas–Ron) that a local approximation
// algorithm yields a sublinear-time estimator of the solution value,
// tolerating an additive error and a failure probability. Concretely:
// the output x_v of the safe algorithm for one agent is computable from
// its radius-1 neighbourhood, so the benefit of one sampled party costs
// O(ball volume) work — independent of n. Sampling parties
// uniformly estimates the *mean* party benefit with a Hoeffding
// confidence interval (the minimum ω is not estimable from samples; the
// additive-error regime of the reduction is about aggregate values).
#pragma once

#include <cstdint>
#include <vector>

#include "mmlp/core/instance.hpp"

namespace mmlp {

namespace engine {
class Session;
}  // namespace engine

struct SublinearOptions {
  std::int32_t samples = 64;
  double confidence = 0.95;      ///< two-sided Hoeffding level
  std::uint64_t seed = 1;
};

struct SublinearEstimate {
  double mean_benefit = 0.0;   ///< estimate of (1/|K|) Σ_k benefit_k
  double half_width = 0.0;     ///< Hoeffding half-width at the confidence level
  double value_bound = 0.0;    ///< a-priori per-party benefit bound used by Hoeffding
  std::int64_t agents_evaluated = 0;  ///< total x_v computations (work ∝ samples, not n)
  std::int32_t samples = 0;
};

/// Compute the safe algorithm's output for a single agent, touching only
/// its radius-1 neighbourhood. Bitwise equal to the corresponding
/// coordinate of the full run (same formula).
double local_output_safe(const Instance& instance, AgentId v);

/// Estimate the mean party benefit of the safe solution by sampling
/// parties with replacement.
SublinearEstimate estimate_mean_party_benefit(const Instance& instance,
                                              const SublinearOptions& options);

/// Session variant, the registry's entry point: estimates on the
/// session's instance. Identical output for identical options.
SublinearEstimate estimate_mean_party_benefit_with(
    engine::Session& session, const SublinearOptions& options);

}  // namespace mmlp
