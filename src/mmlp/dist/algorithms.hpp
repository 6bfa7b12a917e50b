// The paper's local algorithms in the LOCAL model, run by one executor.
//
// run_local is the only per-agent LOCAL loop. For every agent v it reads
// v's knowledge set (the sorted agent ids v has heard of), opens an
// AgentContext over it (so out-of-horizon reads are impossible by
// construction) and applies one decision rule:
//
//   kSafe       horizon 1      eq. (2) on the known supports (Theorem 2)
//   kAveraging  horizon 2R+1   the Section 5.1 pipeline on the
//                              materialized knowledge world (Theorem 3)
//
// Section 1.1 remarks that a local algorithm run on its *current*
// knowledge is self-stabilizing, so the distributed and the
// self-stabilizing solvers differ only in where the knowledge comes
// from: distributed_* pass the session balls B_H(v, h), which are what
// h fault-free flooding rounds deliver, and SelfStabilizingSolver passes
// its SelfStabilizingFlood's current tables. Both are required — and
// tested — to match their centralized counterparts bit for bit: the
// per-agent views reproduce the same LPs in the same row/column order,
// and the deterministic simplex then pivots identically.
//
// The 2R+1 horizon is what agent j needs to recompute x^u for every
// u ∈ V^j = B(j, R): each view LP reads B(u, R) plus the supports of the
// resources touching it, which reach one hop further — all within
// B(j, 2R+1).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "mmlp/core/instance.hpp"
#include "mmlp/core/local_averaging.hpp"

namespace mmlp {

namespace engine {
class Session;
}  // namespace engine

/// The decision rule run_local applies at every agent.
enum class LocalAlgorithm : std::uint8_t {
  kSafe,       ///< eq. (2); knowledge horizon 1
  kAveraging,  ///< Section 5.1; knowledge horizon 2R+1
};

/// The knowledge horizon `algorithm` needs: 1 for kSafe, 2R+1 for
/// kAveraging. For kAveraging, checks R >= 1 and the per-agent damping
/// (the only damping of eq. (10) that is a local rule).
std::int32_t local_horizon(LocalAlgorithm algorithm,
                           const LocalAveragingOptions& options);

/// Agent v's knowledge set, sorted ascending. `buffer` belongs to the
/// calling worker: a source that has to assemble the set writes it there
/// and returns a view of it; a source that stores the set returns a view
/// of its own storage.
using KnowledgeSource = std::function<std::span<const AgentId>(
    AgentId v, std::vector<AgentId>& buffer)>;

/// Every agent's decision under `algorithm`, computed from knowledge(v)
/// alone. Chunked on session.pool(): each chunk leases one
/// session.dist_scratch() bundle for all its agents and polls the active
/// cancel token once per agent. `options` is read by kAveraging only.
/// Throws CheckError when a knowledge set breaks the AgentContext
/// invariants or lacks what the rule reads.
std::vector<double> run_local(engine::Session& session,
                              const KnowledgeSource& knowledge,
                              LocalAlgorithm algorithm,
                              const LocalAveragingOptions& options = {});

/// The safe algorithm run distributedly: every agent applies eq. (2) to
/// its radius-1 knowledge. The safe rule reads only resource data, so it
/// works (and matches) in both hypergraph modes.
std::vector<double> distributed_safe(const Instance& instance,
                                     bool collaboration_oblivious = false);

/// Warm-session variant: run_local over session.balls(1, mode). Bitwise
/// identical to distributed_safe(); the free function is a thin wrapper
/// over a throwaway session.
std::vector<double> distributed_safe_with(engine::Session& session,
                                          bool collaboration_oblivious = false);

/// The Theorem 3 averaging algorithm run distributedly: every agent j
/// materializes its radius-(2R+1) world, re-solves the view LP of every
/// u ∈ V^j with the same deterministic simplex, and applies eq. (10) with
/// its locally computed β_j. Only the per-agent damping is a local rule,
/// so options.damping must be kBetaPerAgent.
std::vector<double> distributed_local_averaging(
    const Instance& instance, const LocalAveragingOptions& options = {});

/// Warm-session variant: run_local over session.balls(2R+1, mode).
/// Bitwise identical to distributed_local_averaging().
///
/// This is the LOCAL-model reference, so every agent runs its own
/// pipeline: there is no orbit-dedup or incremental variant. Those modes
/// serve bitwise the same x through local_averaging_with and
/// local_averaging_incremental.
std::vector<double> distributed_local_averaging_with(
    engine::Session& session, const LocalAveragingOptions& options = {});

}  // namespace mmlp
