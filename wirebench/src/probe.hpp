// The core.view / lp.simplex probe: time the three steps of one view LP
// separately, over a fixed seeded sample of agents, from balls a warm
// session already cached.
#pragma once

#include <cstdint>
#include <vector>

#include "mmlp/core/instance.hpp"

namespace wirebench {

struct ProbeResult {
  double extract_us = 0.0;   ///< extract_view_into, mean per agent
  double lp_build_us = 0.0;  ///< view_lp_into, mean per agent
  double solve_us = 0.0;     ///< solve_lp with a reused workspace, mean per LP
  double pivots_per_lp = 0.0;
};

/// Timed passes of the probe; each figure is the lowest of them, so a
/// short stall of a shared host stays out of it.
inline constexpr int kTimedPasses = 3;

/// Probe `samples` agents drawn with `seed` (all agents when fewer). The
/// sample is processed once untimed, so buffer growth stays out of the
/// numbers, and then kTimedPasses times timed.
ProbeResult probe_view_lps(const mmlp::Instance& instance,
                           const std::vector<std::vector<mmlp::AgentId>>& balls,
                           std::int32_t radius, std::uint64_t seed,
                           std::size_t samples);

}  // namespace wirebench
