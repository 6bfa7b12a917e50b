// The local approximation algorithm of Theorem 3 (Section 5).
//
// Fix a radius R. Every agent u solves the local LP (9) on its view
// V^u = B_H(u, R) optimally; agent j then averages the opinions of the
// views it belongs to, damped by the growth factor β_j (eq. (10)):
//
//   β_j = min_{i∈I_j} n_i / N_i,     x̃_j = (β_j / |V^j|) Σ_{u∈V^j} x^u_j.
//
// Section 5.2 shows x̃ is feasible; Section 5.3 shows
// ω(x̃) ≥ ω* / (max_k M_k/m_k · max_i N_i/n_i) ≥ ω* / (γ(R−1)·γ(R)).
//
// The per-agent LPs are independent and solved in parallel. The
// distributed interpretation (each j recomputing x^u for u ∈ V^j from its
// radius-(2R+1) view with the same deterministic solver) is implemented
// in mmlp/dist/algorithms and tested to produce identical output.
#pragma once

#include <cstdint>
#include <vector>

#include "mmlp/core/incremental.hpp"
#include "mmlp/core/instance.hpp"
#include "mmlp/core/view.hpp"
#include "mmlp/lp/simplex.hpp"

namespace mmlp {

namespace engine {
class Session;  // engine/session.hpp
}

/// Damping rule applied to the averaged view solutions (ablations of the
/// paper's eq. (10); see bench/exp_ablation_damping).
enum class AveragingDamping : std::uint8_t {
  kBetaPerAgent,   ///< the paper's β_j = min_{i∈I_j} n_i/N_i (local, proven feasible)
  kBetaGlobal,     ///< β = min_j β_j everywhere (local with one more round; more conservative)
  kNone,           ///< undamped average — NOT feasible in general (ablation only)
  kNoneThenScale,  ///< undamped average, then global scale-to-feasible (non-local upper reference)
};

struct LocalAveragingOptions {
  std::int32_t R = 1;  ///< view radius; the local horizon is Θ(R) (2R+1)
  bool collaboration_oblivious = false;  ///< drop party hyperedges from H
  AveragingDamping damping = AveragingDamping::kBetaPerAgent;
  SimplexOptions lp;   ///< solver settings for the local LPs

  /// Solve one view LP per view orbit instead of one per agent
  /// (view_class.hpp): agents with bit-identical view structures share
  /// the representative's solution, so the output stays bitwise equal
  /// to the per-agent run on every instance. Pays off massively on
  /// symmetric instances (grids, tori, regular constructions); when
  /// every orbit is a singleton each agent is its own representative,
  /// so it solves the per-agent LPs.
  bool deduplicate = false;
};

struct LocalAveragingResult {
  std::vector<double> x;            ///< x̃, feasible for (1)
  std::vector<double> beta;         ///< β_j per agent
  std::vector<std::size_t> ball_size;  ///< |V^j| per agent
  std::size_t peak_ball = 0;        ///< max_j |V^j|
  double ratio_bound = 0.0;         ///< max_k M_k/m_k · max_i N_i/n_i (≤ γ(R−1)γ(R))
  std::vector<double> view_omega;   ///< ω^u of each local LP (diagnostics)

  /// Dedup accounting. Without options.deduplicate: lp_solves == n and
  /// dedup_ratio == 0.
  std::size_t lp_solves = 0;  ///< view LPs actually solved
  double dedup_ratio = 0.0;   ///< 1 − lp_solves/n
};

/// Run the algorithm. Requires the full hypergraph mode for the
/// Theorem 3 guarantee (S_k ⊇ V_k needs party hyperedges); in
/// collaboration-oblivious mode the solution is still feasible but the
/// benefit bound may not hold (m_k can be 0, in which case ratio_bound is
/// reported as +inf).
LocalAveragingResult local_averaging(const Instance& instance,
                                     const LocalAveragingOptions& options = {});

/// Warm-session variant: balls, growth sets and the per-worker view/LP
/// scratch come from the session's caches, so repeat solves on the same
/// instance skip the B_H(v, R) and Figure 2 recomputation entirely.
/// Output is bitwise identical to local_averaging() — the free function
/// is a thin wrapper running this against a throwaway session.
LocalAveragingResult local_averaging_with(engine::Session& session,
                                          const LocalAveragingOptions& options = {});

/// Incremental re-solve against the session's edit log. Locality does
/// the work: an edit with touched set T changes view LPs only inside
/// B(T, R), and x̃_j only inside B(T, 2R) (x̃_j reads x^u for u ∈ V^j,
/// and β_j moves only within B(T, R+1)); so the memoized previous run —
/// which retains every agent's view solution — is re-solved on
/// B(T, R) and re-gathered on B(T, 2R), everything else spliced
/// through unchanged. Output is bitwise identical to local_averaging on
/// the mutated instance. Runs the full (or, with deduplicate, the
/// orbit) plan instead on the first call, after id remaps or a pruned
/// edit log, or for option combinations whose outputs are not
/// per-agent local: kBetaGlobal / kNoneThenScale damping couple every
/// agent to every edit (those keep no memo). The result's lp_solves
/// reports the LPs actually solved this run.
///
/// The _in_place form skips the result copy: it returns the session's
/// memoized result itself, which the next incremental averaging solve
/// on `session` overwrites; the dampings that keep no memo solve into
/// `fallback` and return it.
const LocalAveragingResult& local_averaging_incremental_in_place(
    engine::Session& session, const LocalAveragingOptions& options,
    IncrementalStats* stats, LocalAveragingResult& fallback);
inline LocalAveragingResult local_averaging_incremental(
    engine::Session& session, const LocalAveragingOptions& options = {},
    IncrementalStats* stats = nullptr) {
  LocalAveragingResult fallback;
  return local_averaging_incremental_in_place(session, options, stats,
                                              fallback);
}

}  // namespace mmlp
