#include "mmlp/core/solution.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "mmlp/util/check.hpp"

namespace mmlp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Σ_v coef_v x_v over one CSR row, added in row order: every eq. (1)
/// figure is this sum, so they all round alike.
double row_sum(CoefSpan row, const double* x) {
  double sum = 0.0;
  for (const Coef& entry : row) {
    sum += entry.value * x[static_cast<std::size_t>(entry.id)];
  }
  return sum;
}

void check_size(const Instance& instance, const std::vector<double>& x) {
  MMLP_CHECK_EQ(x.size(), static_cast<std::size_t>(instance.num_agents()));
}

}  // namespace

double party_benefit(const Instance& instance, const std::vector<double>& x,
                     PartyId k) {
  check_size(instance, x);
  return row_sum(instance.party_support(k), x.data());
}

double resource_load(const Instance& instance, const std::vector<double>& x,
                     ResourceId i) {
  check_size(instance, x);
  return row_sum(instance.resource_support(i), x.data());
}

double objective_omega(const Instance& instance, const std::vector<double>& x) {
  check_size(instance, x);
  double omega = kInf;
  for (PartyId k = 0; k < instance.num_parties(); ++k) {
    omega = std::min(omega, row_sum(instance.party_support(k), x.data()));
  }
  return omega;
}

Evaluation evaluate(const Instance& instance, const std::vector<double>& x) {
  return evaluate(instance, x, nullptr);
}

Evaluation evaluate(const Instance& instance, const std::vector<double>& x,
                    std::vector<double>* party_benefits) {
  check_size(instance, x);
  const double* const values = x.data();
  Evaluation eval;
  // Any inf or nan among x, the benefits and the loads; std::max and
  // the strict comparisons below would drop a nan silently.
  bool nonfinite = false;

  // ω: the strict < keeps the lowest-indexed minimal party.
  eval.omega = kInf;
  double* benefits = nullptr;
  if (party_benefits != nullptr) {
    party_benefits->resize(static_cast<std::size_t>(instance.num_parties()));
    benefits = party_benefits->data();
  }
  for (PartyId k = 0; k < instance.num_parties(); ++k) {
    const double benefit = row_sum(instance.party_support(k), values);
    if (benefits != nullptr) {
      benefits[k] = benefit;
    }
    nonfinite |= !std::isfinite(benefit);
    if (benefit < eval.omega) {
      eval.omega = benefit;
      eval.argmin_party = k;
    }
  }

  // Loads: the strict > keeps the first maximal resource.
  double max_load = -kInf;
  for (ResourceId i = 0; i < instance.num_resources(); ++i) {
    const double load = row_sum(instance.resource_support(i), values);
    nonfinite |= !std::isfinite(load);
    if (load > max_load) {
      max_load = load;
      eval.argmax_resource = i;
    }
    eval.worst_violation = std::max(eval.worst_violation, load - 1.0);
  }
  for (const double value : x) {
    nonfinite |= !std::isfinite(value);
    eval.worst_violation = std::max(eval.worst_violation, -value);
  }
  if (nonfinite) {
    eval.worst_violation = kInf;
  }
  return eval;
}

double scale_to_feasible(const Instance& instance, std::vector<double>& x) {
  check_size(instance, x);
  for (double& value : x) {
    value = std::max(0.0, value);
  }
  double max_load = 0.0;
  for (ResourceId i = 0; i < instance.num_resources(); ++i) {
    max_load = std::max(max_load, row_sum(instance.resource_support(i), x.data()));
  }
  if (max_load <= 1.0) {
    return 1.0;
  }
  const double scale = 1.0 / max_load;
  for (double& value : x) {
    value *= scale;
  }
  return scale;
}

double approximation_ratio(double optimal_omega, double achieved_omega) {
  MMLP_CHECK_GE(optimal_omega, 0.0);
  MMLP_CHECK_GE(achieved_omega, -kFeasTol);
  if (optimal_omega <= 0.0) {
    return 1.0;
  }
  if (achieved_omega <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return optimal_omega / achieved_omega;
}

}  // namespace mmlp
