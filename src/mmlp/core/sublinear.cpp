#include "mmlp/core/sublinear.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "mmlp/core/safe.hpp"
#include "mmlp/engine/session.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/rng.hpp"

namespace mmlp {

double local_output_safe(const Instance& instance, AgentId v) {
  const auto& resources = instance.agent_resources(v);
  std::vector<std::size_t> sizes;
  sizes.reserve(resources.size());
  for (const Coef& entry : resources) {
    sizes.push_back(instance.resource_support(entry.id).size());
  }
  return safe_choice(resources, sizes);
}

SublinearEstimate estimate_mean_party_benefit(const Instance& instance,
                                              const SublinearOptions& options) {
  MMLP_CHECK_GT(instance.num_parties(), 0);
  MMLP_CHECK_GT(options.samples, 0);
  MMLP_CHECK_GT(options.confidence, 0.0);
  MMLP_CHECK_LT(options.confidence, 1.0);

  // A-priori per-party benefit bound for Hoeffding: any feasible output
  // has x_v <= min_{i in I_v} 1/a_iv, so
  //   benefit_k <= Σ_{v in V_k} c_kv / max_{i} a_iv.
  // One linear pass over the coefficient data (not over balls).
  std::vector<double> x_cap(static_cast<std::size_t>(instance.num_agents()),
                            std::numeric_limits<double>::infinity());
  for (AgentId v = 0; v < instance.num_agents(); ++v) {
    for (const Coef& entry : instance.agent_resources(v)) {
      x_cap[static_cast<std::size_t>(v)] =
          std::min(x_cap[static_cast<std::size_t>(v)], 1.0 / entry.value);
    }
  }
  double value_bound = 0.0;
  for (PartyId k = 0; k < instance.num_parties(); ++k) {
    double bound = 0.0;
    for (const Coef& entry : instance.party_support(k)) {
      bound += entry.value * x_cap[static_cast<std::size_t>(entry.id)];
    }
    value_bound = std::max(value_bound, bound);
  }

  Rng rng(options.seed);
  SublinearEstimate estimate;
  estimate.samples = options.samples;
  estimate.value_bound = value_bound;

  // Memoise agent outputs across samples: repeated parties share agents.
  std::vector<double> cache(static_cast<std::size_t>(instance.num_agents()),
                            -1.0);
  auto output_of = [&](AgentId v) {
    double& slot = cache[static_cast<std::size_t>(v)];
    if (slot < 0.0) {
      ++estimate.agents_evaluated;
      slot = local_output_safe(instance, v);
    }
    return slot;
  };

  double total = 0.0;
  for (std::int32_t s = 0; s < options.samples; ++s) {
    const auto k = static_cast<PartyId>(
        rng.next_below(static_cast<std::uint64_t>(instance.num_parties())));
    double benefit = 0.0;
    for (const Coef& entry : instance.party_support(k)) {
      benefit += entry.value * output_of(entry.id);
    }
    total += benefit;
  }
  estimate.mean_benefit = total / static_cast<double>(options.samples);

  // Two-sided Hoeffding: P(|est − mean| >= t) <= 2 exp(−2 m t² / B²).
  const double failure = 1.0 - options.confidence;
  estimate.half_width =
      value_bound * std::sqrt(std::log(2.0 / failure) /
                              (2.0 * static_cast<double>(options.samples)));
  return estimate;
}

SublinearEstimate estimate_mean_party_benefit_with(
    engine::Session& session, const SublinearOptions& options) {
  return estimate_mean_party_benefit(session.instance(), options);
}

}  // namespace mmlp
