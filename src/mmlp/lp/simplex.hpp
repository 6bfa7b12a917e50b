// Two-phase dense simplex solver, implemented from scratch.
//
// Solves   maximise c^T x   subject to   a_i x {<=,=,>=} b_i,  x >= 0.
//
// This is the exact-solution substrate the paper's algorithms rely on:
// the per-agent local LPs (9) of Theorem 3, and global optima ω* for the
// experiment harnesses. The tableau is stored dense (local LPs are small
// by the bounded-growth assumption), but a pivot eliminates only over the
// nonzero columns of the scaled pivot row: a view LP's rows are sparse,
// and the skipped updates t −= factor·(±0) change at most the sign of a
// zero entry, which no later comparison, product or max(0, ·) tells
// apart — the output bits equal those of a dense sweep (the argument is
// spelled out at Tableau::pivot). Pricing is Dantzig with an automatic
// switch to Bland's rule after a degeneracy window, which guarantees
// termination.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mmlp/lp/matrix.hpp"

namespace mmlp {

enum class ConstraintSense : std::uint8_t { kLe, kEq, kGe };

/// One constraint row in sparse form: sum coeff_j * x_{var_j} sense rhs.
struct LpRow {
  std::vector<std::int32_t> vars;
  std::vector<double> coeffs;
  ConstraintSense sense = ConstraintSense::kLe;
  double rhs = 0.0;
};

/// maximise objective^T x subject to rows, x >= 0.
struct LpProblem {
  std::int32_t num_vars = 0;
  std::vector<double> objective;  ///< size num_vars
  std::vector<LpRow> rows;

  /// Convenience mutators used by builders and tests.
  void set_objective(std::int32_t var, double coeff);
  LpRow& add_row(ConstraintSense sense, double rhs);
  void validate() const;
};

enum class LpStatus : std::uint8_t { kOptimal, kInfeasible, kUnbounded, kIterLimit };

const char* to_string(LpStatus status);

struct LpResult {
  LpStatus status = LpStatus::kIterLimit;
  double objective = 0.0;
  std::vector<double> x;  ///< size num_vars when status == kOptimal
  std::int64_t iterations = 0;
};

struct SimplexOptions {
  double pivot_tol = 1e-9;       ///< entries smaller than this are zero
  double feas_tol = 1e-7;        ///< phase-1 residual considered feasible
  std::int64_t max_iterations = 200000;
  /// After this many consecutive non-improving (degenerate) pivots,
  /// switch from Dantzig to Bland pricing to break cycles.
  std::int64_t degeneracy_window = 64;
};

/// Stable serialization of every SimplexOptions field that can change
/// solver output. The incremental-solve memo fingerprints
/// (engine::Session) embed it, so two option sets that could pivot
/// differently never share a memoized solution — keep it in sync with
/// the struct when fields are added.
std::string fingerprint(const SimplexOptions& options);

/// Reusable tableau memory for solve_lp. Passing the same workspace to
/// consecutive solves recycles every internal buffer (the dense tableau,
/// the pricing row, basis bookkeeping), which matters when millions of
/// small per-agent LPs are solved in a loop. The workspace carries no
/// state between calls — results are bitwise identical with or without
/// it — it only donates capacity.
struct SimplexWorkspace {
  DenseMatrix table;
  std::vector<double> zrow;
  std::vector<double> cost;
  std::vector<double> objective;
  std::vector<std::int64_t> basis;
  std::vector<std::uint8_t> banned;
  std::vector<std::size_t> pivot_nonzeros;  ///< nonzero columns of the pivot row
};

/// Solve with the two-phase dense simplex method.
LpResult solve_lp(const LpProblem& problem, const SimplexOptions& options = {});

/// As above, borrowing all scratch memory from `workspace`.
LpResult solve_lp(const LpProblem& problem, const SimplexOptions& options,
                  SimplexWorkspace& workspace);

/// Check x against the rows of `problem` with tolerance `tol`;
/// returns the worst violation (0 when feasible).
double max_violation(const LpProblem& problem, const std::vector<double>& x,
                     double tol = 0.0);

}  // namespace mmlp
