// Gaussian elimination with partial pivoting: rank, row-echelon form and
// linear-system solving for the tomography linear system A x = y.
//
// Tolerance note: path matrices are 0/1 with modest dimensions, so entries
// of eliminated rows stay well-scaled; kDefaultTolerance is far below the
// smallest nonzero pivot that arises in practice and far above accumulated
// round-off.  Tests cross-validate double-precision ranks against the
// exact integer rank referee (testkit::exact_rank).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "linalg/matrix.h"

namespace rnt::linalg {

inline constexpr double kDefaultTolerance = 1e-9;

/// Result of reducing a matrix to row-echelon form.
struct EchelonForm {
  Matrix reduced;                    ///< Row-echelon matrix (same shape).
  std::vector<std::size_t> pivots;   ///< Pivot column of each nonzero row.
  std::size_t rank = 0;              ///< Number of nonzero rows.
};

/// Reduces a copy of `m` to row-echelon form with partial pivoting.
EchelonForm row_echelon(const Matrix& m, double tol = kDefaultTolerance);

/// Reduced row-echelon form (Gauss-Jordan): row_echelon, then each pivot
/// row normalized and the entries above every pivot cleared.
EchelonForm reduced_row_echelon(const Matrix& m,
                                double tol = kDefaultTolerance);

/// Rank of `m` over the reals (within tolerance).
std::size_t rank(const Matrix& m, double tol = kDefaultTolerance);

/// Rank of the submatrix of `m` given by `row_indices`.
std::size_t rank_of_rows(const Matrix& m,
                         const std::vector<std::size_t>& row_indices,
                         double tol = kDefaultTolerance);

/// Least-structure solve: returns any solution x of A x = y if the system is
/// consistent, std::nullopt otherwise.  Free variables are set to zero.
std::optional<std::vector<double>> solve(const Matrix& a,
                                         std::span<const double> y,
                                         double tol = kDefaultTolerance);

/// Rank and identifiable columns of one matrix (tomo::class_row_spaces
/// computes it for path rows; testkit::row_space is the dense reference).
struct RowSpace {
  std::size_t rank = 0;
  /// Ascending columns j with e_j in the row space: the variables whose
  /// value m x = y pins down uniquely for consistent y.
  std::vector<std::size_t> identifiable;
};

/// Selects a maximal linearly independent subset of the rows of `m`,
/// scanning rows in the given order (or 0..rows-1 if `order` is empty).
/// Returns indices of the selected rows (a "basis" of paths).
std::vector<std::size_t> independent_row_subset(
    const Matrix& m, const std::vector<std::size_t>& order = {},
    double tol = kDefaultTolerance);

}  // namespace rnt::linalg
