// Shared fixtures and builders for the mmlp test suite.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "mmlp/core/instance.hpp"
#include "mmlp/core/view.hpp"

namespace mmlp::testing {

/// FNV-1a over 64-bit words, for pinning the raw bits of an output.
class Fnv1a {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(const std::vector<double>& values) {
    add(static_cast<std::uint64_t>(values.size()));
    for (const double value : values) {
      add(value);
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// GrowthSets::ratio_bound and peak_ball recomputed from the sets'
/// vectors by their definitions, to check the stored values against.
struct GrowthMaxima {
  double ratio_bound = 1.0;
  std::size_t peak_ball = 0;
};
inline GrowthMaxima growth_maxima(const GrowthSets& sets) {
  double party_ratio = 1.0;
  for (std::size_t k = 0; k < sets.m_k.size(); ++k) {
    party_ratio = sets.m_k[k] == 0
                      ? std::numeric_limits<double>::infinity()
                      : std::max(party_ratio, static_cast<double>(sets.M_k[k]) /
                                                  static_cast<double>(sets.m_k[k]));
  }
  double resource_ratio = 1.0;
  for (std::size_t i = 0; i < sets.N_i.size(); ++i) {
    resource_ratio = std::max(resource_ratio, static_cast<double>(sets.N_i[i]) /
                                                  static_cast<double>(sets.n_i[i]));
  }
  GrowthMaxima maxima;
  maxima.ratio_bound = party_ratio * resource_ratio;
  for (const std::size_t size : sets.ball_size) {
    maxima.peak_ball = std::max(maxima.peak_ball, size);
  }
  return maxima;
}

/// The simplest nontrivial instance: two agents sharing one resource,
/// two singleton parties.
///   max min(x0, x1)  s.t.  x0 + x1 <= 1  =>  ω* = 1/2 at x = (1/2, 1/2).
inline Instance two_agent_instance() {
  Instance::Builder builder;
  const AgentId v0 = builder.add_agent();
  const AgentId v1 = builder.add_agent();
  const ResourceId i = builder.add_resource();
  builder.set_usage(i, v0, 1.0).set_usage(i, v1, 1.0);
  const PartyId k0 = builder.add_party();
  const PartyId k1 = builder.add_party();
  builder.set_benefit(k0, v0, 1.0).set_benefit(k1, v1, 1.0);
  return std::move(builder).build();
}

/// A path of `n` agents: resource i_j couples agents j and j+1
/// (a = 1), and every agent has its own singleton party (c = 1).
/// The communication graph is a path, useful for ball/growth tests.
inline Instance path_instance(AgentId n) {
  Instance::Builder builder;
  for (AgentId v = 0; v < n; ++v) {
    builder.add_agent();
  }
  for (AgentId v = 0; v + 1 < n; ++v) {
    const ResourceId i = builder.add_resource();
    builder.set_usage(i, v, 1.0).set_usage(i, v + 1, 1.0);
  }
  if (n == 1) {  // keep I_v nonempty
    const ResourceId i = builder.add_resource();
    builder.set_usage(i, 0, 1.0);
  }
  for (AgentId v = 0; v < n; ++v) {
    const PartyId k = builder.add_party();
    builder.set_benefit(k, v, 1.0);
  }
  return std::move(builder).build();
}

/// The packing special case |K| = 1 (Section 1.3): maximise c·x subject
/// to Ax <= 1 with every agent benefitting the sole party.
inline Instance single_party_instance() {
  Instance::Builder builder;
  const AgentId v0 = builder.add_agent();
  const AgentId v1 = builder.add_agent();
  const AgentId v2 = builder.add_agent();
  const ResourceId i0 = builder.add_resource();
  const ResourceId i1 = builder.add_resource();
  builder.set_usage(i0, v0, 1.0).set_usage(i0, v1, 2.0);
  builder.set_usage(i1, v1, 1.0).set_usage(i1, v2, 1.0);
  const PartyId k = builder.add_party();
  builder.set_benefit(k, v0, 1.0);
  builder.set_benefit(k, v1, 1.0);
  builder.set_benefit(k, v2, 1.0);
  return std::move(builder).build();
}

}  // namespace mmlp::testing
