// Local views and the set machinery of Section 5 (Figure 2).
//
// For an agent u with horizon parameter R:
//   V^u   = B_H(u, R)                       (the agents u can see)
//   K^u   = {k ∈ K : V_k ⊆ V^u}             (parties fully visible to u)
//   V^u_i = V_i ∩ V^u
//   I^u   = {i ∈ I : V^u_i ≠ ∅}             (resources touching the view)
// and the local LP (9):
//   maximise ω^u = min_{k∈K^u} Σ_{v∈V_k} c_kv x^u_v
//   s.t. Σ_{v∈V^u_i} a_iv x^u_v ≤ 1  ∀ i ∈ I^u,  x^u ≥ 0.
//
// For the feasibility/benefit analysis (and the β_j of eq. (10)):
//   S_k = ∩_{j∈V_k} V^j,  m_k = |S_k|,  M_k = max_{j∈V_k} |V^j|,
//   U_i = ∪_{j∈V_i} V^j,  N_i = |U_i|,  n_i = min_{j∈V_i} |V^j|,
//   β_j = min_{i∈I_j} n_i / N_i.
//
// A LocalView stores its per-resource/per-party entry lists in flat CSR
// form (one Coef array + offsets per side), mirroring Instance; the hot
// extraction path (one view per agent inside Theorem 3's algorithm) goes
// through extract_view_into + ViewScratch, which reuses an O(1)
// global→local stamp map and all intermediate buffers so a steady-state
// extraction performs no heap allocation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mmlp/core/instance.hpp"
#include "mmlp/lp/simplex.hpp"

namespace mmlp {

/// The subinstance visible to one agent.
struct LocalView {
  AgentId center = -1;
  std::int32_t radius = 0;

  std::vector<AgentId> agents;  ///< V^u, sorted global ids; local index = position

  std::vector<ResourceId> resources;  ///< I^u (global ids)
  std::vector<PartyId> parties;       ///< K^u (global ids)

  /// CSR entry storage: resource r of `resources` owns
  /// resource_data[resource_offsets[r] .. resource_offsets[r+1]) with
  /// (local agent, a_iv) pairs for v ∈ V^u_i; parties analogous with V_k.
  std::vector<std::int32_t> resource_offsets{0};
  std::vector<Coef> resource_data;
  std::vector<std::int32_t> party_offsets{0};
  std::vector<Coef> party_data;

  /// Entries of the r-th resource in `resources` (local agent ids).
  CoefSpan resource_entries(std::size_t r) const {
    return {resource_data.data() + resource_offsets[r],
            static_cast<std::size_t>(resource_offsets[r + 1] - resource_offsets[r])};
  }
  /// Entries of the p-th party in `parties` (local agent ids).
  CoefSpan party_entries(std::size_t p) const {
    return {party_data.data() + party_offsets[p],
            static_cast<std::size_t>(party_offsets[p + 1] - party_offsets[p])};
  }

  /// Local index of a global agent id, or −1 when outside the view.
  std::int32_t local_index(AgentId global) const;

  /// Reset to an empty view, keeping buffer capacity.
  void clear();
};

/// Reusable workspace for view extraction and view-LP solving. One per
/// worker thread; every buffer (including the global→local agent map,
/// kept all −1 between calls and reset via the touched list) survives
/// across agents so the per-agent loops of Theorem 3 do not allocate.
struct ViewScratch {
  std::vector<std::int32_t> agent_local;  ///< global agent -> local id, −1 outside
  std::vector<ResourceId> resource_ids;
  std::vector<PartyId> party_ids;
  std::vector<std::int32_t> id_slots;  ///< rank slots of the id dedupe
  LpProblem lp;                 ///< reused row storage for view_lp_into
  SimplexWorkspace simplex;     ///< reused tableau memory for solve_lp
};

/// Extract the view of `u` given its precomputed ball B_H(u, R)
/// (sorted). The ball must have been computed on the same hypergraph the
/// caller derived from `instance`.
LocalView extract_view(const Instance& instance, AgentId u, std::int32_t radius,
                       const std::vector<AgentId>& ball_of_u);

/// Convenience: compute the ball, then extract.
LocalView extract_view(const Instance& instance, const Hypergraph& h, AgentId u,
                       std::int32_t radius);

/// Allocation-free (steady state) extraction into a reused view.
void extract_view_into(const Instance& instance, AgentId u, std::int32_t radius,
                       const std::vector<AgentId>& ball_of_u, LocalView& view,
                       ViewScratch& scratch);

/// The local LP (9) of a view: variables are the view agents (local
/// order) plus ω^u at index |agents|.
LpProblem view_lp(const LocalView& view);

/// As view_lp, but reusing the row storage of `out` (capacity persists
/// across calls).
void view_lp_into(const LocalView& view, LpProblem& out);

/// Optimal x^u of (9) (indexed like view.agents). When K^u is empty the
/// objective "min over nothing" is vacuous and x^u = 0 is returned (the
/// Theorem 3 analysis only uses x^u for u ∈ S_k, which forces k ∈ K^u).
/// The reported omega is the LP value (0 when K^u is empty).
struct ViewLpSolution {
  std::vector<double> x;
  double omega = 0.0;
  LpStatus status = LpStatus::kOptimal;
};
ViewLpSolution solve_view_lp(const LocalView& view,
                             const SimplexOptions& options = {});

/// Hot-loop variant: builds the LP into scratch.lp and solves with
/// scratch.simplex, so repeated solves reuse all tableau memory.
ViewLpSolution solve_view_lp(const LocalView& view,
                             const SimplexOptions& options,
                             ViewScratch& scratch);

/// The Figure 2 quantities for a fixed R, over all parties/resources.
///
/// The two maxima a solve reports, ratio_bound and peak_ball, are
/// stored: repair_growth_sets (which compute_growth_sets also runs)
/// derives them after every repair, so a solve reads them in O(1) and a
/// value-only edit, which repairs nothing, never rescans the vectors.
struct GrowthSets {
  std::vector<std::size_t> ball_size;  ///< |V^j| per agent j
  std::vector<std::size_t> m_k;        ///< |S_k| per party
  std::vector<std::size_t> M_k;        ///< max ball size over V_k
  std::vector<std::size_t> N_i;        ///< |U_i| per resource
  std::vector<std::size_t> n_i;        ///< min ball size over V_i
  std::vector<double> beta;            ///< β_j per agent

  /// The proof's overall ratio max_k M_k/m_k · max_i N_i/n_i
  /// (≤ γ(R−1)γ(R)); +inf when some m_k = 0.
  double ratio_bound = 1.0;
  std::size_t peak_ball = 0;  ///< max_j |V^j|

  /// max_k M_k/m_k (Theorem 3: ≤ γ(R−1)); an O(|K|) scan.
  double max_party_ratio() const;
  /// max_i N_i/n_i (Theorem 3: ≤ γ(R)); an O(|I|) scan.
  double max_resource_ratio() const;
};

/// Compute the sets from per-agent balls (as returned by all_balls(H, R)):
/// repair_growth_sets with every agent dirty on empty sets.
/// Requires every V_k to be a clique in the ball structure, which holds
/// when the balls come from the full hypergraph H (not the
/// collaboration-oblivious one) — then S_k ⊇ V_k is nonempty.
GrowthSets compute_growth_sets(const Instance& instance,
                               const std::vector<std::vector<AgentId>>& balls);

/// Surgical repair of a cached GrowthSets after an instance delta.
/// `balls` is the repaired ball cache of the same radius; `dirty` is the
/// sorted dirty region (every agent whose ball or incident support
/// membership changed — the multi_source_ball of the delta's touched set
/// at this radius). Only party/resource rows whose support intersects
/// `dirty` are recomputed, plus the β_j of agents adjacent to a
/// recomputed resource; all other entries are reused. The result is
/// element-for-element identical to compute_growth_sets on the mutated
/// instance. Entity additions grow the vectors (new rows are always
/// recomputed); removals need a from-scratch recompute instead. Ends by
/// re-deriving ratio_bound and peak_ball from the vectors (O(n)).
void repair_growth_sets(const Instance& instance,
                        const std::vector<std::vector<AgentId>>& balls,
                        std::span<const AgentId> dirty, GrowthSets& sets);

}  // namespace mmlp
