// Small dense matrix used by the simplex tableau and by tests.
#pragma once

#include <cstddef>
#include <vector>

#include "mmlp/util/check.hpp"

namespace mmlp {

/// Row-major dense matrix of doubles.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Re-shape in place, reusing the existing allocation when it is large
  /// enough; every entry is set to `fill`. Lets hot loops (one simplex
  /// tableau per agent) recycle one matrix instead of reallocating.
  void reset(std::size_t rows, std::size_t cols, double fill = 0.0) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, fill);
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    MMLP_CHECK_LT(r, rows_);
    MMLP_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    MMLP_CHECK_LT(r, rows_);
    MMLP_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }

  /// Raw row pointer (for tight pivot loops).
  double* row(std::size_t r) {
    MMLP_CHECK_LT(r, rows_);
    return data_.data() + r * cols_;
  }
  const double* row(std::size_t r) const {
    MMLP_CHECK_LT(r, rows_);
    return data_.data() + r * cols_;
  }

  /// Raw row-major storage, rows() * cols() entries: for loops that
  /// check the shape once per call instead of once per access.
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// y = A x.
  std::vector<double> multiply(const std::vector<double>& x) const;

  /// y = A^T x.
  std::vector<double> multiply_transpose(const std::vector<double>& x) const;

  DenseMatrix transpose() const;

  /// Max |a_ij|.
  double max_abs() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace mmlp
