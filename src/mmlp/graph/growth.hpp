// Relative neighbourhood growth (Section 5).
//
//   γ(r) = max_{v∈V} |B_H(v, r+1)| / |B_H(v, r)|
//
// Theorem 3 bounds the local-averaging approximation ratio by
// γ(R−1)·γ(R); these helpers compute γ and related profiles so that
// experiments can report both the a-priori bound and the measured ratio.
#pragma once

#include <cstdint>
#include <vector>

#include "mmlp/graph/hypergraph.hpp"

namespace mmlp {

/// |B(v, r)| for r = 0..max_radius, for one node.
std::vector<std::size_t> ball_size_profile(const Hypergraph& h, NodeId v,
                                           std::int32_t max_radius);

/// γ(r) for a single r (maximised over all nodes). Computed in parallel
/// over nodes.
double growth_gamma(const Hypergraph& h, std::int32_t r);

/// γ(0..max_radius) in one pass: one radius-(max_radius + 1) ball per node
/// through for_each_ball, shared across radii, so the cost is
/// O(Σ_v |B(v, max_radius + 1)|·deg).
std::vector<double> growth_profile(const Hypergraph& h, std::int32_t max_radius);

/// The Theorem 3 a-priori ratio bound γ(R−1)·γ(R) for horizon parameter R ≥ 1.
double theorem3_bound(const Hypergraph& h, std::int32_t R);

}  // namespace mmlp
