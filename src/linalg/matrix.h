// Dense row-major matrix of doubles.
//
// This is the numeric workhorse under the tomography path matrix: path
// matrices are 0/1 but their rank is taken over the reals, so all rank
// machinery operates on doubles with an explicit tolerance.  Exact rational elimination (rational.h) provides the
// ground-truth oracle used in tests.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace rnt::linalg {

/// Dense row-major matrix.  Invariant: data_.size() == rows_ * cols_.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  /// Constructs from nested initializer lists; all rows must have equal
  /// length.  Intended for tests and small examples.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Mutable / immutable view of one row.
  std::span<double> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  /// Appends a row (must match cols(), or set the width if empty).
  void append_row(std::span<const double> values);

  /// Returns the submatrix consisting of the given rows, in order.
  Matrix select_rows(const std::vector<std::size_t>& row_indices) const;

  /// Transposed copy.
  Matrix transposed() const;

  /// this * other; requires cols() == other.rows().
  Matrix multiply(const Matrix& other) const;

  /// Matrix-vector product; requires v.size() == cols().
  std::vector<double> multiply(std::span<const double> v) const;

  /// Elementwise max |a_ij - b_ij|; requires equal shapes.
  double max_abs_diff(const Matrix& other) const;

  /// Identity matrix of size n.
  static Matrix identity(std::size_t n);

  bool operator==(const Matrix& other) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace rnt::linalg
