// Solution vectors and their evaluation against an Instance.
#pragma once

#include <vector>

#include "mmlp/core/instance.hpp"

namespace mmlp {

/// Default feasibility tolerance used across the library.
inline constexpr double kFeasTol = 1e-7;

/// Evaluation of a candidate x against eq. (1), from one pass over the
/// party rows and one over the resource rows (|A| + |C| products), each
/// row summed in CSR order.
///
/// A non-finite x is never feasible: when any x_v, party benefit or
/// resource load is inf or nan, worst_violation is +inf (ω and the
/// arg-indices are then whatever the comparisons give).
struct Evaluation {
  double omega = 0.0;            ///< min_k Σ_v c_kv x_v (benefit of the worst party; +inf if K is empty)
  double worst_violation = 0.0;  ///< max over resources of (a_i x − 1)+ and over v of (−x_v)+
  PartyId argmin_party = -1;     ///< the lowest-indexed party attaining ω (−1 if K is empty)
  ResourceId argmax_resource = -1;  ///< the first resource attaining max a_i x

  bool feasible(double tol = kFeasTol) const { return worst_violation <= tol; }
};

/// Benefit of party k under x: Σ_{v∈V_k} c_kv x_v.
double party_benefit(const Instance& instance, const std::vector<double>& x,
                     PartyId k);

/// Load of resource i under x: Σ_{v∈V_i} a_iv x_v.
double resource_load(const Instance& instance, const std::vector<double>& x,
                     ResourceId i);

/// ω(x) = min_k benefit; +infinity when the instance has no parties.
double objective_omega(const Instance& instance, const std::vector<double>& x);

/// Full evaluation (objective + feasibility in one pass).
Evaluation evaluate(const Instance& instance, const std::vector<double>& x);

/// As above; when `party_benefits` is non-null it is resized to |K| and
/// overwritten with the per-party benefits the ω scan computes anyway
/// (no second benefit sweep for callers that want both).
Evaluation evaluate(const Instance& instance, const std::vector<double>& x,
                    std::vector<double>* party_benefits);

/// Scale x down (if needed) so that every resource constraint holds
/// exactly; returns the scale factor applied (1 when already feasible).
/// Negative entries are clamped to zero first.
double scale_to_feasible(const Instance& instance, std::vector<double>& x);

/// ω*/ω(x) with conventions: 1 if both are zero, +inf if ω(x)=0 < ω*.
double approximation_ratio(double optimal_omega, double achieved_omega);

}  // namespace mmlp
