#include "linalg/elimination.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "linalg/incremental_basis.h"

namespace rnt::linalg {

EchelonForm row_echelon(const Matrix& m, double tol) {
  EchelonForm out;
  out.reduced = m;
  Matrix& a = out.reduced;
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  std::size_t pivot_row = 0;
  for (std::size_t col = 0; col < cols && pivot_row < rows; ++col) {
    // Partial pivoting: pick the largest |entry| in this column.
    std::size_t best = pivot_row;
    double best_abs = std::abs(a(pivot_row, col));
    for (std::size_t r = pivot_row + 1; r < rows; ++r) {
      const double v = std::abs(a(r, col));
      if (v > best_abs) {
        best = r;
        best_abs = v;
      }
    }
    if (best_abs <= tol) continue;  // Column is (numerically) zero below.
    if (best != pivot_row) {
      for (std::size_t c = 0; c < cols; ++c) {
        std::swap(a(best, c), a(pivot_row, c));
      }
    }
    const double pivot = a(pivot_row, col);
    for (std::size_t r = pivot_row + 1; r < rows; ++r) {
      const double factor = a(r, col) / pivot;
      if (factor == 0.0) continue;
      a(r, col) = 0.0;
      for (std::size_t c = col + 1; c < cols; ++c) {
        a(r, c) -= factor * a(pivot_row, c);
      }
    }
    out.pivots.push_back(col);
    ++pivot_row;
  }
  out.rank = out.pivots.size();
  return out;
}

std::size_t rank(const Matrix& m, double tol) {
  if (m.empty()) return 0;
  return row_echelon(m, tol).rank;
}

std::size_t rank_of_rows(const Matrix& m,
                         const std::vector<std::size_t>& row_indices,
                         double tol) {
  if (row_indices.empty()) return 0;
  return rank(m.select_rows(row_indices), tol);
}

EchelonForm reduced_row_echelon(const Matrix& m, double tol) {
  EchelonForm ef = row_echelon(m, tol);
  Matrix& a = ef.reduced;
  const std::size_t cols = a.cols();
  for (std::size_t i = ef.rank; i-- > 0;) {
    const std::size_t pc = ef.pivots[i];
    const double pivot = a(i, pc);
    // Normalize the pivot row.
    for (std::size_t c = pc; c < cols; ++c) a(i, c) /= pivot;
    // Clear entries above the pivot.
    for (std::size_t r = 0; r < i; ++r) {
      const double factor = a(r, pc);
      if (factor == 0.0) continue;
      for (std::size_t c = pc; c < cols; ++c) {
        a(r, c) -= factor * a(i, c);
      }
    }
  }
  return ef;
}

std::optional<std::vector<double>> solve(const Matrix& a,
                                         std::span<const double> y,
                                         double tol) {
  if (y.size() != a.rows()) {
    throw std::invalid_argument("solve: rhs length must equal rows");
  }
  // Build the augmented matrix [A | y] and reduce.
  Matrix aug(a.rows(), a.cols() + 1);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) aug(r, c) = a(r, c);
    aug(r, a.cols()) = y[r];
  }
  EchelonForm ef = reduced_row_echelon(aug, tol);
  // Inconsistency <=> a pivot lands in the augmented column.
  for (std::size_t pc : ef.pivots) {
    if (pc == a.cols()) return std::nullopt;
  }
  std::vector<double> x(a.cols(), 0.0);
  for (std::size_t i = 0; i < ef.pivots.size(); ++i) {
    x[ef.pivots[i]] = ef.reduced(i, a.cols());
  }
  return x;
}

std::vector<std::size_t> independent_row_subset(
    const Matrix& m, const std::vector<std::size_t>& order, double tol) {
  std::vector<std::size_t> scan = order;
  if (scan.empty()) {
    scan.resize(m.rows());
    std::iota(scan.begin(), scan.end(), std::size_t{0});
  }
  IncrementalBasis basis(m.cols(), tol);
  std::vector<std::size_t> selected;
  for (std::size_t r : scan) {
    if (r >= m.rows()) {
      throw std::out_of_range("independent_row_subset: row index out of range");
    }
    if (basis.try_add(m.row(r))) selected.push_back(r);
  }
  return selected;
}

}  // namespace rnt::linalg
