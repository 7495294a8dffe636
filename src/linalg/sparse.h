// Compressed sparse row (CSR) matrix.
//
// Path matrices are extremely sparse 0/1 matrices (a path touches a few
// dozen of ~1000 links), so the dense Matrix wastes memory and bandwidth at
// AS1239 scale (2500 x 972 doubles ≈ 19 MB vs ≈ 250 KB sparse).  The CSR
// type stores the nonzero pattern, converts to/from dense, and supports the
// operations the tomography layer needs on the sparse side: matvec, row
// iteration, transpose, and survivors extraction.  Rank computation stays
// in dense land (elimination causes fill-in) — rank_via_dense documents
// that boundary explicitly.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/elimination.h"
#include "linalg/matrix.h"

namespace rnt::linalg {

/// Immutable CSR matrix.
class SparseMatrix {
 public:
  /// Empty 0x0.
  SparseMatrix() = default;

  /// From dense (entries with |x| <= tol are dropped).
  static SparseMatrix from_dense(const Matrix& dense, double tol = 0.0);

  /// From explicit rows of (column, value) pairs.
  static SparseMatrix from_rows(
      std::size_t cols,
      const std::vector<std::vector<std::pair<std::size_t, double>>>& rows);

  std::size_t rows() const { return row_start_.empty() ? 0 : row_start_.size() - 1; }
  std::size_t cols() const { return cols_; }
  std::size_t nonzeros() const { return values_.size(); }

  /// Entry accessor (O(log nnz_row)).
  double at(std::size_t r, std::size_t c) const;

  /// Column indices / values of row r.
  std::span<const std::size_t> row_columns(std::size_t r) const;
  std::span<const double> row_values(std::size_t r) const;

  /// The raw CSR arrays: row r's entries are [row_starts()[r],
  /// row_starts()[r + 1]) of col_indices() and values().
  std::span<const std::size_t> row_starts() const { return row_start_; }
  std::span<const std::size_t> col_indices() const { return col_index_; }
  std::span<const double> values() const { return values_; }

  /// y = A x.
  std::vector<double> multiply(std::span<const double> x) const;

  /// y = Aᵀ x.
  std::vector<double> multiply_transposed(std::span<const double> x) const;

  /// Dense copy.
  Matrix to_dense() const;

  /// Transposed copy (still CSR).
  SparseMatrix transposed() const;

  /// Submatrix of the given rows, in order.
  SparseMatrix select_rows(const std::vector<std::size_t>& rows) const;

  /// Density in [0, 1].
  double density() const;

  /// Rank by densifying + Gaussian elimination.  Elimination causes
  /// fill-in, so a sparse elimination would densify anyway; this makes the
  /// dense round-trip explicit and testable.
  std::size_t rank_via_dense(double tol = kDefaultTolerance) const;

 private:
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_start_;  ///< size rows+1.
  std::vector<std::size_t> col_index_;  ///< Sorted within each row.
  std::vector<double> values_;
};

}  // namespace rnt::linalg
