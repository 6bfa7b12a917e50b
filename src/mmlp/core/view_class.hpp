// View orbits: the symmetry layer under Theorem 3's per-agent LP loop.
//
// The paper's local algorithms are *anonymous*: what an agent computes
// from its radius-R view depends only on the view's structure, never on
// global identifiers. The view LP (9) is built from the LocalView's
// local-index CSR rows alone, and the LOCAL-model decision of
// mmlp/dist/algorithms is a function of the materialized world, which is
// the same structure (AgentContext::materialize keeps exactly the
// truncated resource rows and the fully visible parties — a party
// touching any agent of an inner ball is always fully visible, which is
// why distributed == centralized holds bitwise).
//
// This module partitions the agents into *orbits*: agents whose views
// are bit-identical as local structures (same CSR rows, same
// coefficients, same center position). Members of an orbit provably run
// the byte-for-byte same solve, so reusing the representative's
// solution is *bitwise* equal to solving per agent. On structured
// instances (grids, tori, regular constructions) almost all of the n
// per-agent solves collapse onto a handful of orbits; on a 316×316 torus
// at R = 1 there are 49.
//
// The orbit key is the view's local structure serialized to bytes — not
// a hash — so equal keys *prove* identical LPs. The index keeps one key
// per orbit, so every index can be repaired: after an instance delta
// only the dirty agents re-serialize, and each clean agent regroups
// under its old orbit's key. The cold build is that repair with every
// agent dirty on an empty index. Both stream the dirty agents in
// ascending blocks of a few thousand: a block is serialized on the pool,
// grouped, and freed before the next one, so at most one block of fresh
// keys is alive beside the one key per orbit (not one key per agent).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mmlp/core/instance.hpp"

namespace mmlp {

class ThreadPool;  // util/parallel.hpp

/// The per-agent orbit partition of one (radius, hypergraph-mode) view
/// family, cached by engine::Session and consumed by the dedup solve
/// paths.
struct ViewClassIndex {
  std::int32_t radius = 0;
  bool collaboration_oblivious = false;

  std::vector<std::int32_t> orbit_of;  ///< per agent: its orbit

  // Per orbit, numbered by first appearance (ascending representative).
  std::vector<AgentId> orbit_rep;  ///< smallest member of each orbit
  std::vector<std::int32_t> orbit_size;
  std::vector<std::string> orbit_key;  ///< the serialized view of the orbit

  std::size_t num_agents() const { return orbit_of.size(); }
  std::size_t num_orbits() const { return orbit_rep.size(); }

  /// 1 − orbits/n: the fraction of per-agent LP solves the dedup path
  /// eliminates (0 on an empty instance).
  double dedup_ratio() const;
};

/// Partition all agents by the local structure of their radius-`radius`
/// views: repair_view_class_index with every agent dirty on an empty
/// index. `balls` must be all_balls of the matching hypergraph mode (the
/// engine::Session cache provides both). Extracts and serializes the
/// views block by block in parallel on `pool` (nullptr = global pool),
/// grouping each block before the next is serialized; the grouping is
/// deterministic and independent of the thread count.
ViewClassIndex build_view_class_index(
    const Instance& instance, const std::vector<std::vector<AgentId>>& balls,
    std::int32_t radius, bool collaboration_oblivious,
    ThreadPool* pool = nullptr);

/// Surgical repair of an index after an instance delta: only the `dirty`
/// agents (strictly ascending ids in [0, n), else CheckError before the
/// index is touched; every agent whose radius-`index.radius` view
/// structure could have changed, i.e. the dirty ball of the delta) are
/// re-serialized. Every agent is then regrouped in ascending order, a
/// clean agent under its old orbit's key, so orbit ids, representatives,
/// sizes and keys come out exactly as a from-scratch build on the
/// mutated instance would produce them. `balls` is the repaired ball
/// cache of the index's (radius, mode). Agent additions grow the index
/// (new agents must be dirty); removals need a full rebuild.
void repair_view_class_index(const Instance& instance,
                             const std::vector<std::vector<AgentId>>& balls,
                             std::span<const AgentId> dirty,
                             ViewClassIndex& index, ThreadPool* pool = nullptr);

}  // namespace mmlp
