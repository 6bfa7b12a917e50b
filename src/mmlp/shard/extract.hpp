// Halo extraction: materialize one shard as a standalone sub-Instance.
//
// The paper's locality theorem is what makes sharding exact: the output
// of every local algorithm at agent j is a function of j's radius-r
// knowledge ball only. So a shard that owns core agents C can be solved
// on the restriction of the instance to B_H(C, halo_radius) — the core plus a
// halo of `halo_radius` graph hops — and its core outputs are bitwise
// identical to the monolithic solve, provided the halo covers the
// algorithm's knowledge horizon:
//
//   * safe / distributed-safe read I_v plus |V_i| per incident resource:
//     horizon 1.
//   * averaging / distributed-averaging at radius R gather x^u over
//     u ∈ B(j, R); each view LP reads B(u, R) and the full support of
//     every party meeting it (members are one hop away in full-H mode),
//     and β_j reads the balls of B(j, 1): horizon 2R+1.
//
// Why the sub-solve is bitwise equal and not merely close: the id maps
// are monotone (global order preserved), so every CSR row of the
// sub-instance is the order-preserving restriction of the global row,
// every ball enumeration visits the same agents in the same order, every
// view LP is the identical double matrix fed to the deterministic
// simplex, and the eq. (10) gather folds in the identical order. Nothing
// is approximated, so no floating-point difference can appear.
//
// A shard is the LOCAL world of its halo ball: extract_shard is one
// multi-source BFS (graph/bfs) for B_H(C, halo_radius), then
// restrict_to_agents (core/transform) — the same restriction that
// AgentContext::materialize applies to one agent's knowledge set. So a
// shard keeps every resource incident to the ball, truncated to it, and
// only the parties whose support lies fully inside. A party that the
// ball truncates has every in-ball member exactly halo_radius hops from
// the core (party members are pairwise adjacent in H), and no view,
// ball or β_j of a core agent reaches that far, so dropping it leaves
// the core outputs unchanged.
//
// Caveat: the horizon argument above needs party hyperedges in H
// (full-collaboration mode). Under collaboration_oblivious a party's
// members can be arbitrarily far apart, the view of a core agent could
// meet a party the ball truncates, and the sub-solve would diverge —
// ShardedSession therefore rejects oblivious requests.
#pragma once

#include <cstdint>
#include <vector>

#include "mmlp/core/instance.hpp"
#include "mmlp/core/transform.hpp"
#include "mmlp/graph/hypergraph.hpp"

namespace mmlp::shard {

/// One shard: the restriction of the global instance to core ∪ halo
/// (ids shard-local, maps monotone — see Subinstance), plus the core the
/// stitcher reads back.
struct ShardInstance : Subinstance {
  std::vector<AgentId> core;  ///< owned agents, global ids, sorted

  /// Local ids of the core agents, ascending (positions of `core` inside
  /// `agents`); stitching reads instance-local x at these indices.
  std::vector<AgentId> core_local;

  std::size_t halo_agents() const { return agents.size() - core.size(); }
};

/// Extract the sub-instance over B_H(core, halo_radius). `graph` must be
/// the full-collaboration communication graph of `global` (see the file
/// comment for why oblivious mode is out of scope); `core` must be
/// sorted, nonempty, and in range.
ShardInstance extract_shard(const Instance& global, const Hypergraph& graph,
                            std::vector<AgentId> core,
                            std::int32_t halo_radius);

}  // namespace mmlp::shard
