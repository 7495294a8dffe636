// Incremental row-space basis with dependency tracking.
//
// RoMe evaluates "does path q increase the rank of the selected set?" and
// "which already-selected independent paths does q depend on?" thousands of
// times.  Re-running full elimination per query costs O(k^2 n) each; this
// oracle maintains eliminated rows so a query only replays them.
//
// Eliminated rows are stored by their nonzeros (0/1 path rows stay sparse
// under elimination: a few entries each, against hundreds of link
// columns), and a query keeps its remainder in a per-thread zeroed scratch
// plus the list of columns it touched.  A query costs O(k + touched
// entries) at rank k: one pivot test per basis row and one
// multiply-subtract per nonzero of each basis row actually applied,
// instead of O(k n) for n columns.  A probe path enters as a UnitRow (its
// link ids); a dense row adds one O(n) scan for its nonzeros.
// Every column sees the same IEEE operations in the same row order as a
// dense sweep would apply, so verdicts, pivots, supports and nonzero
// coefficients are bit-identical to the dense arithmetic (the testkit's
// DenseIncrementalBasis and the `incremental-basis-reduction` check).
//
// Dependency tracking: alongside each eliminated row we keep its expression
// as a linear combination of the *original* inserted independent rows, so
// that when a new row reduces to zero we can report the support set R_q of
// Eq. 6 in the paper (the independent paths with nonzero coefficient).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/elimination.h"

namespace rnt::linalg {

/// Result of reducing a row against the current basis.
struct Reduction {
  bool independent = false;
  /// For a dependent row: indices (0-based insertion order of *independent*
  /// rows, i.e. values previously returned by basis_size() at insert time)
  /// of basis members with nonzero coefficient in the representation.
  std::vector<std::size_t> support;
  /// Matching coefficients (same length as support).
  std::vector<double> coefficients;
};

/// A 0/1 row given by the columns that hold 1.0: a probe path's link ids
/// (tomo::ProbePath::links).  A repeated column counts once, as in the
/// path matrix.  Reduces bit for bit like its dense 0/1 form.
struct UnitRow {
  std::span<const std::uint32_t> ones;
};

/// Maintains a basis of the row space spanned by the rows added so far.
/// Const queries may run concurrently on one basis from several threads
/// (each thread reduces in its own scratch).
class IncrementalBasis {
 public:
  /// Basis for vectors of the given dimension.  `track_combinations`
  /// enables the dependency bookkeeping behind reduce()/support; rank-only
  /// users (e.g. per-scenario bases in the Monte Carlo ER engine) can turn
  /// it off to save the O(rank^2) combo updates and memory.
  explicit IncrementalBasis(std::size_t dimension,
                            double tol = kDefaultTolerance,
                            bool track_combinations = true);

  /// Prefix copy: a basis holding only the first `prefix` eliminated rows
  /// of `other` (clamped to other.rank()).  Lets callers that share one
  /// append-only basis across several logical states fork a diverging
  /// state without re-reducing its rows from scratch.  Copies only the
  /// prefix rows' nonzeros.
  IncrementalBasis(const IncrementalBasis& other, std::size_t prefix);

  /// Number of columns / vector dimension.
  std::size_t dimension() const { return dimension_; }

  /// Current rank (number of independent rows added).
  std::size_t rank() const { return rows_.size(); }

  /// Pivot column of each eliminated row, in insertion order: the largest
  /// |entry| of the row's remainder, the lowest column on a tie.
  std::vector<std::size_t> pivot_columns() const;

  /// Adds the row if it is independent of the current basis.
  /// Returns true iff the rank increased.
  bool try_add(std::span<const double> row);
  bool try_add(UnitRow row);

  /// Tests independence without modifying the basis.
  bool is_independent(std::span<const double> row) const;
  bool is_independent(UnitRow row) const;

  /// Tests independence against only the first `prefix` eliminated rows —
  /// bit-identical arithmetic to is_independent() on a basis holding
  /// exactly those rows, without materializing it.  `prefix` is clamped
  /// to rank().
  bool is_independent_prefix(std::span<const double> row,
                             std::size_t prefix) const;
  bool is_independent_prefix(UnitRow row, std::size_t prefix) const;

  /// Reduces `row` against the basis and reports independence plus, for a
  /// dependent row, the support of its representation in terms of the
  /// independent rows added so far (insertion order indices).
  /// Does not modify the basis.
  Reduction reduce(std::span<const double> row) const;
  Reduction reduce(UnitRow row) const;

  /// Like try_add but also returns the full reduction information.
  /// If the row is independent it is added to the basis.
  Reduction add_with_reduction(std::span<const double> row);
  Reduction add_with_reduction(UnitRow row);

  /// Removes all rows.
  void clear();

 private:
  /// Loads `row` into the calling thread's scratch and reduces it against
  /// the first `limit` eliminated rows, leaving the remainder and the
  /// combination there; the caller releases the scratch.
  template <class Row>
  Reduction reduce_impl(Row row, std::size_t limit) const;
  /// Reduces `row` and, if it is independent, appends its remainder.
  template <class Row>
  Reduction add_impl(Row row);

  std::size_t dimension_;
  double tol_;
  bool track_combinations_;
  struct Entry {
    std::size_t col;
    double value;
  };
  /// Eliminated row i: `pivot_value` at column `pivot`, and its other
  /// nonzeros at entries_[rows_[i - 1].end .. rows_[i].end) (from 0 for
  /// the first row), ascending by column.
  struct EliminatedRow {
    std::size_t pivot;
    double pivot_value;
    std::size_t end;
  };
  std::vector<EliminatedRow> rows_;
  std::vector<Entry> entries_;
  // combos_[i][j] = coefficient of original inserted row j in eliminated
  // row i.
  std::vector<std::vector<double>> combos_;
};

}  // namespace rnt::linalg
