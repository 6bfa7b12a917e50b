#include "mmlp/lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "mmlp/lp/matrix.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/obs.hpp"

namespace mmlp {

void LpProblem::set_objective(std::int32_t var, double coeff) {
  MMLP_CHECK_GE(var, 0);
  MMLP_CHECK_LT(var, num_vars);
  if (objective.size() != static_cast<std::size_t>(num_vars)) {
    objective.assign(static_cast<std::size_t>(num_vars), 0.0);
  }
  objective[static_cast<std::size_t>(var)] = coeff;
}

LpRow& LpProblem::add_row(ConstraintSense sense, double rhs) {
  rows.push_back(LpRow{{}, {}, sense, rhs});
  return rows.back();
}

void LpProblem::validate() const {
  MMLP_CHECK_GE(num_vars, 0);
  MMLP_CHECK(objective.empty() ||
             objective.size() == static_cast<std::size_t>(num_vars));
  for (const auto& row : rows) {
    MMLP_CHECK_EQ(row.vars.size(), row.coeffs.size());
    for (const auto var : row.vars) {
      MMLP_CHECK_GE(var, 0);
      MMLP_CHECK_LT(var, num_vars);
    }
  }
}

std::string fingerprint(const SimplexOptions& options) {
  std::ostringstream oss;
  oss.precision(17);
  oss << options.pivot_tol << ',' << options.feas_tol << ','
      << options.max_iterations << ',' << options.degeneracy_window;
  return oss.str();
}

const char* to_string(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal:
      return "optimal";
    case LpStatus::kInfeasible:
      return "infeasible";
    case LpStatus::kUnbounded:
      return "unbounded";
    case LpStatus::kIterLimit:
      return "iteration-limit";
  }
  return "unknown";
}

double max_violation(const LpProblem& problem, const std::vector<double>& x,
                     double tol) {
  MMLP_CHECK_EQ(x.size(), static_cast<std::size_t>(problem.num_vars));
  double worst = 0.0;
  for (const double value : x) {
    worst = std::max(worst, -value);  // x >= 0
  }
  for (const auto& row : problem.rows) {
    double lhs = 0.0;
    for (std::size_t j = 0; j < row.vars.size(); ++j) {
      lhs += row.coeffs[j] * x[static_cast<std::size_t>(row.vars[j])];
    }
    double violation = 0.0;
    switch (row.sense) {
      case ConstraintSense::kLe:
        violation = lhs - row.rhs;
        break;
      case ConstraintSense::kGe:
        violation = row.rhs - lhs;
        break;
      case ConstraintSense::kEq:
        violation = std::abs(lhs - row.rhs);
        break;
    }
    worst = std::max(worst, violation);
  }
  return std::max(0.0, worst - tol);
}

namespace {

/// Dense tableau state for the two-phase method. All heavy buffers live
/// in the caller's SimplexWorkspace so consecutive solves reuse them;
/// every buffer is fully re-initialised here, so results do not depend
/// on what a previous solve left behind.
class Tableau {
 public:
  Tableau(const LpProblem& problem, const SimplexOptions& options,
          SimplexWorkspace& ws)
      : options_(options),
        num_structural_(problem.num_vars),
        table_(ws.table),
        zrow_(ws.zrow),
        basis_(ws.basis),
        banned_(ws.banned),
        nonzeros_(ws.pivot_nonzeros) {
    const std::size_t m = problem.rows.size();

    // Column layout: [structural | slack/surplus | artificial].
    num_slack_ = 0;
    num_artificial_ = 0;
    for (const auto& row : problem.rows) {
      // Rows are normalised to rhs >= 0 below; the *effective* sense after
      // normalisation decides the auxiliary columns.
      const bool flip = row.rhs < 0.0;
      ConstraintSense sense = row.sense;
      if (flip) {
        if (sense == ConstraintSense::kLe) {
          sense = ConstraintSense::kGe;
        } else if (sense == ConstraintSense::kGe) {
          sense = ConstraintSense::kLe;
        }
      }
      switch (sense) {
        case ConstraintSense::kLe:
          ++num_slack_;
          break;
        case ConstraintSense::kGe:
          ++num_slack_;
          ++num_artificial_;
          break;
        case ConstraintSense::kEq:
          ++num_artificial_;
          break;
      }
    }
    num_cols_ = static_cast<std::size_t>(num_structural_) + num_slack_ + num_artificial_;

    table_.reset(m, num_cols_ + 1, 0.0);
    basis_.assign(m, -1);
    banned_.assign(num_cols_, 0);
    nonzeros_.resize(num_cols_ + 1);

    std::size_t slack_cursor = static_cast<std::size_t>(num_structural_);
    std::size_t art_cursor = static_cast<std::size_t>(num_structural_) + num_slack_;
    artificial_start_ = art_cursor;

    for (std::size_t i = 0; i < m; ++i) {
      const auto& row = problem.rows[i];
      const double sign = row.rhs < 0.0 ? -1.0 : 1.0;
      ConstraintSense sense = row.sense;
      if (sign < 0.0) {
        if (sense == ConstraintSense::kLe) {
          sense = ConstraintSense::kGe;
        } else if (sense == ConstraintSense::kGe) {
          sense = ConstraintSense::kLe;
        }
      }
      double* t = table_.row(i);
      for (std::size_t j = 0; j < row.vars.size(); ++j) {
        t[static_cast<std::size_t>(row.vars[j])] += sign * row.coeffs[j];
      }
      t[num_cols_] = sign * row.rhs;
      switch (sense) {
        case ConstraintSense::kLe:
          t[slack_cursor] = 1.0;
          basis_[i] = static_cast<std::int64_t>(slack_cursor);
          ++slack_cursor;
          break;
        case ConstraintSense::kGe:
          t[slack_cursor] = -1.0;
          ++slack_cursor;
          t[art_cursor] = 1.0;
          basis_[i] = static_cast<std::int64_t>(art_cursor);
          ++art_cursor;
          break;
        case ConstraintSense::kEq:
          t[art_cursor] = 1.0;
          basis_[i] = static_cast<std::int64_t>(art_cursor);
          ++art_cursor;
          break;
      }
    }
    MMLP_CHECK_EQ(slack_cursor, static_cast<std::size_t>(num_structural_) + num_slack_);
    MMLP_CHECK_EQ(art_cursor, num_cols_);
  }

  /// Run both phases. Returns the final status; on kOptimal the solution
  /// can be read with extract(). `cost_scratch` provides the cost-vector
  /// buffer for both phases (reused from the workspace).
  LpStatus run(const std::vector<double>& objective,
               std::vector<double>& cost_scratch) {
    // ---- Phase 1: maximise -(sum of artificials). ----
    if (num_artificial_ > 0) {
      std::vector<double>& phase1_cost = cost_scratch;
      phase1_cost.assign(num_cols_, 0.0);
      for (std::size_t j = artificial_start_; j < num_cols_; ++j) {
        phase1_cost[j] = -1.0;
      }
      init_zrow(phase1_cost);
      // Phase 1 is done the moment its objective hits zero; without this
      // early exit an already-feasible start (common: all artificial rows
      // have rhs 0) grinds through thousands of degenerate pivots whose
      // accumulated roundoff can corrupt the tableau.
      phase1_early_exit_ = true;
      const LpStatus status = iterate(phase1_cost);
      phase1_early_exit_ = false;
      if (status != LpStatus::kOptimal) {
        // Phase 1 is bounded below (>= -sum b), so unbounded cannot occur;
        // propagate an iteration-limit verdict.
        return status == LpStatus::kUnbounded ? LpStatus::kIterLimit : status;
      }
      if (phase1_objective() < -options_.feas_tol) {
        return LpStatus::kInfeasible;
      }
      purge_artificials();
      for (std::size_t j = artificial_start_; j < num_cols_; ++j) {
        banned_[j] = 1;
      }
    }

    // ---- Phase 2: original objective over structural columns. ----
    std::vector<double>& phase2_cost = cost_scratch;
    phase2_cost.assign(num_cols_, 0.0);
    for (std::size_t j = 0;
         j < static_cast<std::size_t>(num_structural_) && j < objective.size();
         ++j) {
      phase2_cost[j] = objective[j];
    }
    init_zrow(phase2_cost);
    return iterate(phase2_cost);
  }

  std::vector<double> extract() const {
    std::vector<double> x(static_cast<std::size_t>(num_structural_), 0.0);
    for (std::size_t i = 0; i < basis_.size(); ++i) {
      const std::int64_t var = basis_[i];
      if (var >= 0 && var < num_structural_) {
        x[static_cast<std::size_t>(var)] =
            std::max(0.0, table_(i, num_cols_));
      }
    }
    return x;
  }

  std::int64_t iterations() const { return iterations_; }

 private:
  double phase1_objective() const {
    // c_B^T b with phase-1 costs: -(sum of basic artificial values).
    double z = 0.0;
    for (std::size_t i = 0; i < basis_.size(); ++i) {
      if (basis_[i] >= static_cast<std::int64_t>(artificial_start_)) {
        z -= table_(i, num_cols_);
      }
    }
    return z;
  }

  void init_zrow(const std::vector<double>& cost) {
    zrow_.assign(num_cols_ + 1, 0.0);
    for (std::size_t j = 0; j < num_cols_; ++j) {
      zrow_[j] = -cost[j];
    }
    for (std::size_t i = 0; i < basis_.size(); ++i) {
      const double cb = cost[static_cast<std::size_t>(basis_[i])];
      if (cb == 0.0) {
        continue;
      }
      const double* t = table_.row(i);
      for (std::size_t j = 0; j <= num_cols_; ++j) {
        zrow_[j] += cb * t[j];
      }
    }
  }

  /// Price, ratio-test, pivot until optimal/unbounded/limit.
  LpStatus iterate(const std::vector<double>& cost) {
    (void)cost;
    check_table_shape();  // the ratio test reads the raw storage
    const double* const table = table_.data();
    const std::size_t width = num_cols_ + 1;
    std::int64_t degenerate_streak = 0;
    while (true) {
      if (phase1_early_exit_ && zrow_[num_cols_] >= -options_.feas_tol) {
        return LpStatus::kOptimal;  // no infeasibility left to price out
      }
      if (iterations_ >= options_.max_iterations) {
        return LpStatus::kIterLimit;
      }
      const bool bland = degenerate_streak > options_.degeneracy_window;
      // Entering column.
      std::int64_t enter = -1;
      double best = -options_.pivot_tol;
      for (std::size_t j = 0; j < num_cols_; ++j) {
        if (banned_[j]) {
          continue;
        }
        if (zrow_[j] < best) {
          enter = static_cast<std::int64_t>(j);
          if (bland) {
            break;  // first eligible index
          }
          best = zrow_[j];
        }
      }
      if (enter < 0) {
        return LpStatus::kOptimal;
      }
      // Leaving row: min ratio; ties by smallest basis variable (Bland).
      std::int64_t leave = -1;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < basis_.size(); ++i) {
        const double* const t = table + i * width;
        const double a = t[static_cast<std::size_t>(enter)];
        if (a <= options_.pivot_tol) {
          continue;
        }
        const double ratio = t[num_cols_] / a;
        if (ratio < best_ratio - options_.pivot_tol ||
            (ratio < best_ratio + options_.pivot_tol &&
             (leave < 0 || basis_[i] < basis_[static_cast<std::size_t>(leave)]))) {
          best_ratio = ratio;
          leave = static_cast<std::int64_t>(i);
        }
      }
      if (leave < 0) {
        return LpStatus::kUnbounded;
      }
      degenerate_streak =
          best_ratio <= options_.pivot_tol ? degenerate_streak + 1 : 0;
      pivot(static_cast<std::size_t>(leave), static_cast<std::size_t>(enter));
      ++iterations_;
    }
  }

  /// The table's bounds checks, hoisted out of the per-row loops of the
  /// ratio test and of pivot: those index the raw storage, so the shape
  /// they assume is checked once per call instead.
  void check_table_shape() const {
    MMLP_CHECK_EQ(table_.rows(), basis_.size());
    MMLP_CHECK_EQ(table_.cols(), num_cols_ + 1);
  }

  /// Gauss-Jordan step on (pivot_row, pivot_col), swept only over the
  /// nonzero columns of the scaled pivot row. Every skipped update is
  /// t -= factor * (±0); with a finite factor the product is ±0, and
  /// t − (±0) == t except that −0 − (−0) gives +0. So the sparse sweep
  /// leaves every entry bit-identical to the dense one up to the sign of
  /// a zero, and no later read tells the two zeros apart: entries reach
  /// the solver only through <, <=, ==, std::abs, products, differences
  /// with a nonzero and std::max(0.0, ·), so pricing, ratio tests, the
  /// clamp, x, ω and the iteration count stay identical. A non-finite
  /// factor (inf · 0 = NaN) is the one case where a skipped term would
  /// count; the CHECKs below refuse it.
  void pivot(std::size_t pivot_row, std::size_t pivot_col) {
    check_table_shape();
    MMLP_CHECK_LT(pivot_row, basis_.size());
    MMLP_CHECK_LT(pivot_col, num_cols_);
    const std::size_t width = num_cols_ + 1;
    double* const table = table_.data();
    double* const pr = table + pivot_row * width;
    const double pivot_value = pr[pivot_col];
    MMLP_CHECK(std::isfinite(pivot_value));
    MMLP_CHECK_GT(std::abs(pivot_value), 0.0);
    const double inv = 1.0 / pivot_value;
    // Scale the pivot row and record its nonzero columns, branch-free.
    std::size_t* const nonzero = nonzeros_.data();
    std::size_t count = 0;
    for (std::size_t j = 0; j < width; ++j) {
      pr[j] *= inv;
      nonzero[count] = j;
      count += pr[j] != 0.0 ? 1 : 0;
    }
    pr[pivot_col] = 1.0;  // kill roundoff (it was nonzero, so it is listed)
    const auto eliminate = [&](double* t, double factor) {
      MMLP_CHECK(std::isfinite(factor));
      for (std::size_t k = 0; k < count; ++k) {
        t[nonzero[k]] -= factor * pr[nonzero[k]];
      }
      t[pivot_col] = 0.0;
    };
    // Clamp tiny negative rhs introduced by elimination. A row's rhs is
    // final once the row is eliminated, so it is clamped in the same
    // pass; the pivot row's rhs is read by every elimination, so it is
    // clamped last.
    const auto clamp_rhs = [this](double& rhs) {
      if (rhs < 0.0 && rhs > -options_.feas_tol) {
        rhs = 0.0;
      }
    };
    for (std::size_t i = 0; i < basis_.size(); ++i) {
      if (i == pivot_row) {
        continue;
      }
      double* const t = table + i * width;
      const double factor = t[pivot_col];
      if (factor != 0.0) {
        eliminate(t, factor);
      }
      clamp_rhs(t[num_cols_]);
    }
    const double zfactor = zrow_[pivot_col];
    if (zfactor != 0.0) {
      eliminate(zrow_.data(), zfactor);
    }
    clamp_rhs(pr[num_cols_]);
    basis_[pivot_row] = static_cast<std::int64_t>(pivot_col);
  }

  /// After phase 1, pivot basic artificials (value ~0) out of the basis,
  /// or detect redundant rows (left basic at zero with a banned column,
  /// which phase 2 then never moves).
  void purge_artificials() {
    for (std::size_t i = 0; i < basis_.size(); ++i) {
      if (basis_[i] < static_cast<std::int64_t>(artificial_start_)) {
        continue;
      }
      const double* t = table_.row(i);
      std::size_t enter = num_cols_;
      for (std::size_t j = 0; j < artificial_start_; ++j) {
        if (std::abs(t[j]) > options_.pivot_tol) {
          enter = j;
          break;
        }
      }
      if (enter < num_cols_) {
        pivot(i, enter);
      }
      // else: the row is 0 = 0 (redundant); the artificial stays basic at
      // value zero and its column is banned, so it never re-enters.
    }
  }

  SimplexOptions options_;
  std::int32_t num_structural_ = 0;
  std::size_t num_slack_ = 0;
  std::size_t num_artificial_ = 0;
  std::size_t num_cols_ = 0;
  std::size_t artificial_start_ = 0;
  DenseMatrix& table_;
  std::vector<double>& zrow_;
  std::vector<std::int64_t>& basis_;
  std::vector<std::uint8_t>& banned_;
  std::vector<std::size_t>& nonzeros_;  ///< pivot scratch, num_cols_ + 1 long
  std::int64_t iterations_ = 0;
  bool phase1_early_exit_ = false;
};

}  // namespace

LpResult solve_lp(const LpProblem& problem, const SimplexOptions& options,
                  SimplexWorkspace& workspace) {
  problem.validate();
  LpResult result;
  if (problem.rows.empty()) {
    // Without constraints the optimum is 0 iff no objective coefficient is
    // positive (x >= 0), else unbounded.
    result.x.assign(static_cast<std::size_t>(problem.num_vars), 0.0);
    for (const double c : problem.objective) {
      if (c > 0.0) {
        result.status = LpStatus::kUnbounded;
        return result;
      }
    }
    result.status = LpStatus::kOptimal;
    result.objective = 0.0;
    return result;
  }

  Tableau tableau(problem, options, workspace);
  std::vector<double>& objective = workspace.objective;
  objective.assign(problem.objective.begin(), problem.objective.end());
  objective.resize(static_cast<std::size_t>(problem.num_vars), 0.0);
  result.status = tableau.run(objective, workspace.cost);
  result.iterations = tableau.iterations();
  // Registry lookups resolve once; two relaxed adds per LP solve is
  // noise next to a single pivot.
  static obs::Counter& lp_solves =
      obs::Registry::global().counter("simplex.solves");
  static obs::Counter& lp_pivots =
      obs::Registry::global().counter("simplex.pivots");
  lp_solves.increment();
  lp_pivots.add(result.iterations);
  if (result.status == LpStatus::kOptimal) {
    result.x = tableau.extract();
    double z = 0.0;
    for (std::size_t j = 0; j < result.x.size(); ++j) {
      z += objective[j] * result.x[j];
    }
    result.objective = z;
  }
  return result;
}

LpResult solve_lp(const LpProblem& problem, const SimplexOptions& options) {
  SimplexWorkspace workspace;
  return solve_lp(problem, options, workspace);
}

}  // namespace mmlp
