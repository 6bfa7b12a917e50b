// The Theorem 1 / Corollary 2 lower-bound construction (Section 4).
//
// Given ∆_I^V = d+1 and ∆_K^V = D+1 with dD > 1, a horizon r and a
// parameter R > r, instance S is built as follows (Figure 1):
//   * Q: a ∆-regular bipartite graph, ∆ = d^R·D^(R−1), with no cycle
//     shorter than 4r + 2;
//   * one complete (d,D)-ary hypertree T_q of height 2R−1 per vertex
//     q ∈ Q (each has exactly ∆ leaves);
//   * each leaf of T_q is associated with a distinct edge of Q incident
//     to q; the two leaves of an edge {q, w} are paired by the
//     involution f and joined by a type III hyperedge {v, f(v)};
//   * type I hyperedges become resources with a_iv = 1, type II
//     hyperedges become parties with c_kv = 1/D, type III hyperedges
//     become parties with c_kv = 1.
// Then ∆_I^V = d+1, ∆_K^V = D+1, ∆_V^I = ∆_V^K = 1 and a_iv ∈ {0,1}.
//
// S′ (Section 4.3) restricts S to V′ = T_p ∪ ∪_{u∈L_p} B_H(u, 2r) for a
// vertex p with δ(p) ≥ 0 (eq. (3)); S′ is tree-like, admits the
// alternating solution x̂ with ω = 1 (Section 4.5), and the radius-r
// views of all agents of T_p are identical in S and S′ — which forces
// any horizon-r deterministic algorithm to repeat its S-choices on S′.
#pragma once

#include <cstdint>
#include <vector>

#include "mmlp/core/instance.hpp"
#include "mmlp/core/transform.hpp"
#include "mmlp/graph/hypertree.hpp"
#include "mmlp/graph/simple_graph.hpp"
#include "mmlp/util/rng.hpp"

namespace mmlp {

struct LowerBoundParams {
  std::int32_t d = 2;  ///< ∆_I^V − 1 (type I fanout)
  std::int32_t D = 2;  ///< ∆_K^V − 1 (type II fanout); D = 1 gives Corollary 2
  std::int32_t r = 1;  ///< adversary's local horizon
  std::int32_t R = 2;  ///< tree parameter; must satisfy R > r
  /// Vertices per side of Q; 0 = auto (≈ 2∆² + 8, enough slack for the
  /// girth-6 repair loop; raise it for r ≥ 2).
  std::int32_t q_nodes_per_side = 0;
  std::uint64_t seed = 1;
};

/// Instance S with full structural metadata.
struct LowerBoundInstance {
  Instance instance;  ///< S
  LowerBoundParams params;
  std::int32_t degree = 0;      ///< ∆ = d^R·D^(R−1)
  SimpleGraph q;                ///< template graph Q (2·n_side vertices)
  Hypertree tree;               ///< the (d,D)-ary hypertree template
  std::int32_t num_trees = 0;   ///< |Q|
  std::int32_t tree_size = 0;   ///< agents per copy

  /// f as a permutation of all agents (identity off the leaves).
  std::vector<AgentId> pairing;

  /// Agent id of node `local` inside copy `tree_index`.
  AgentId agent_id(std::int32_t tree_index, std::int32_t local) const;
  std::int32_t tree_of(AgentId agent) const;
  std::int32_t local_of(AgentId agent) const;
  std::int32_t level_of(AgentId agent) const;
  /// Leaves of copy `tree_index` (L_q), in leaf-slot order (slot j pairs
  /// with the j-th neighbour of q in Q's adjacency order).
  std::vector<AgentId> leaves_of(std::int32_t tree_index) const;
};

/// Build S. Fails (CheckError) if Q cannot be sampled at the requested
/// size; enlarge q_nodes_per_side in that case.
LowerBoundInstance build_lower_bound_instance(const LowerBoundParams& params);

/// δ(q) of eq. (3) for every q ∈ Q, given a solution x of S.
std::vector<double> compute_delta(const LowerBoundInstance& lb,
                                  const std::vector<double>& x);

/// An index p with δ(p) maximal (≥ 0 always exists since Σ_q δ(q) = 0).
std::int32_t select_p(const std::vector<double>& delta);

/// S′ (the induced subinstance of S on V′) and its embedding back into S.
struct SPrime : Subinstance {
  AgentId root_local = -1;              ///< root of T_p, local id
  std::vector<AgentId> tp_local;        ///< T_p agents, local ids
};

SPrime build_s_prime(const LowerBoundInstance& lb, std::int32_t p);

/// The alternating solution x̂ of Section 4.5 (local indexing): 1 on
/// agents at even H′-distance from the root of T_p, 0 otherwise.
/// Feasible with ω = 1 by Theorem 1's proof; tests verify both.
std::vector<double> alternating_solution(const SPrime& sub);

/// Asymptotic bound of Theorem 1: ∆_I^V/2 + 1/2 − 1/(2∆_K^V − 2)
/// = d/2 + 1 − 1/(2D).
double theorem1_bound(std::int32_t d, std::int32_t D);

/// Finite-R bound from the end of Section 4.6:
/// d/2 + 1 − 1/(2D) + (d + 2 − 2dD − 1/D)/(2·d^R·D^R − 2).
double theorem1_bound_finite(std::int32_t d, std::int32_t D, std::int32_t R);

}  // namespace mmlp
