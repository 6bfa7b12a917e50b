// The safe algorithm (Papadimitriou–Yannakakis; Section 3/4, eq. (2)).
//
//   x_v = min_{i ∈ I_v} 1 / (a_iv · |V_i|)
//
// Horizon r = 1: agent v needs only its own resources, their coefficients
// and their support sizes. The solution is always feasible (each resource
// i receives ≤ |V_i| · a_iv · 1/(a_iv|V_i|) = 1 in total) and is a
// Δ_I^V-approximation of (1) (Section 4, first display).
#pragma once

#include <span>
#include <vector>

#include "mmlp/core/incremental.hpp"
#include "mmlp/core/instance.hpp"

namespace mmlp {

namespace engine {
class Session;  // engine/session.hpp
}

/// The safe solution for the whole instance. The hot loop reads the CSR
/// blocks directly (I_v scan plus O(1) |V_i| offset lookups) and performs
/// no per-agent allocation.
std::vector<double> safe_solution(const Instance& instance);

/// Warm-session variant: identical output, run on the session's worker
/// pool. The safe rule derives no cacheable state (horizon 1 reads the
/// CSR blocks directly), so warm and cold cost the same — the overload
/// exists so every registered solver speaks the Session API.
std::vector<double> safe_solution_with(engine::Session& session);

/// Incremental re-solve against the session's edit log: re-evaluates
/// eq. (2) only for agents the deltas since the last safe solve could
/// have reached (the touched set itself — the rule reads radius-1 data,
/// and an edit's touched closure already contains every agent whose
/// a_iv or |V_i| inputs moved) and splices them into the memoized
/// previous solution. Runs every agent on the first call, on id remaps,
/// or when no memo exists; either way the result is bitwise identical
/// to safe_solution on the mutated instance.
std::vector<double> safe_solution_incremental(engine::Session& session,
                                              IncrementalStats* stats = nullptr);

/// The single-agent rule, usable from per-agent (distributed) code:
/// needs I_v with coefficients and |V_i| for each i ∈ I_v.
double safe_choice(CoefSpan agent_resources,
                   std::span<const std::size_t> support_sizes);

}  // namespace mmlp
