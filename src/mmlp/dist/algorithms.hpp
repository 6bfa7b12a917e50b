// Per-agent re-derivations of the paper's algorithms in the LOCAL model.
//
// Each function floods the exact horizon the algorithm needs, then runs
// every agent's decision rule on an AgentContext (so out-of-horizon
// reads are impossible by construction) and returns the assembled
// solution vector. Both are required — and tested — to match their
// centralized counterparts bit for bit: the per-agent views reproduce
// the same LPs in the same row/column order, and the deterministic
// simplex then pivots identically.
//
//   distributed_safe              horizon 1      (Theorem 2, eq. (2))
//   distributed_local_averaging   horizon 2R+1   (Theorem 3, Section 5.1)
//
// The 2R+1 horizon is what agent j needs to recompute x^u for every
// u ∈ V^j = B(j, R): each view LP reads B(u, R) plus the supports of the
// resources touching it, which reach one hop further — all within
// B(j, 2R+1). The per-agent work is fanned out through util/parallel.
#pragma once

#include <vector>

#include "mmlp/core/instance.hpp"
#include "mmlp/core/local_averaging.hpp"
#include "mmlp/dist/runtime.hpp"

namespace mmlp {

namespace engine {
struct DistScratch;
}  // namespace engine

/// One agent's eq. (2) decision computed purely from its context
/// (needs radius 1: own resources and their support sizes). Shared by
/// distributed_safe and SelfStabilizingFlood::safe_output.
double safe_from_context(const AgentContext& ctx);

/// One agent's full Section 5.1 pipeline: materialize the radius-(2R+1)
/// world from its knowledge set, then run the averaging rule inside it.
/// A pure function of (instance, j, knowledge_j, options): the
/// per-agent loop and the self-stabilizing solver both call it, so both
/// produce the same bits for the same knowledge.
double averaging_pipeline(const Instance& instance, AgentId j,
                          const std::vector<AgentId>& knowledge_j,
                          const LocalAveragingOptions& options,
                          engine::DistScratch& scratch);

/// The safe algorithm run distributedly: flood 1 round, then every agent
/// applies eq. (2) to its own resources. The safe rule reads only
/// resource data, so it works (and matches) in both hypergraph modes.
std::vector<double> distributed_safe(const Instance& instance,
                                     bool collaboration_oblivious = false);

/// Warm-session variant: the radius-1 knowledge sets come from the
/// session's ball cache (flood(r) is defined — and tested — to equal
/// B_H(v, r), so the cached balls ARE the flooded knowledge). Output is
/// bitwise identical to distributed_safe(); the free function is a thin
/// wrapper over a throwaway session.
std::vector<double> distributed_safe_with(engine::Session& session,
                                          bool collaboration_oblivious = false);

/// The Theorem 3 averaging algorithm run distributedly: flood 2R+1
/// rounds, then every agent j materializes its world, re-solves the view
/// LP of every u ∈ V^j with the same deterministic simplex, and applies
/// eq. (10) with its locally computed β_j. Only the per-agent damping is
/// a local rule, so options.damping must be kBetaPerAgent.
std::vector<double> distributed_local_averaging(
    const Instance& instance, const LocalAveragingOptions& options = {});

/// Warm-session variant: the radius-(2R+1) knowledge sets come from the
/// session's ball cache and the per-worker materialization/view/LP
/// bundles from its scratch pool. Bitwise identical to
/// distributed_local_averaging().
///
/// This is the LOCAL-model reference, so every agent runs its own
/// pipeline: there is no orbit-dedup or incremental variant. Those modes
/// serve bitwise the same x through local_averaging_with and
/// local_averaging_incremental.
std::vector<double> distributed_local_averaging_with(
    engine::Session& session, const LocalAveragingOptions& options = {});

}  // namespace mmlp
