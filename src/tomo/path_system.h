// The tomography linear system: candidate probe paths and their 0/1 path
// matrix A (paths × links), plus failure-aware rank queries.
//
// This is the object every algorithm in the library operates on.  Rows of
// A are candidate monitor-to-monitor paths, columns are links (EdgeId order
// of the underlying graph); A[i][j] = 1 iff path i traverses link j
// (Section II-A of the paper).
//
// A is stored only as each path's sorted link list: a probe path crosses a
// handful of the graph's links, so a dense paths × links copy would be
// almost all zeros.  Ranks, gains and solves read the link lists directly
// (unit_row, class_row_spaces, covered_system); path_matrix builds dense
// rows on demand for the few callers that need dense arithmetic.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "failures/failure_model.h"
#include "graph/graph.h"
#include "graph/shortest_path.h"
#include "linalg/cgls.h"
#include "linalg/elimination.h"
#include "linalg/matrix.h"
#include "linalg/incremental_basis.h"
#include "linalg/sparse.h"

namespace rnt::tomo {

/// One candidate monitor-to-monitor probe path.
struct ProbePath {
  graph::NodeId source = 0;
  graph::NodeId destination = 0;
  std::vector<graph::EdgeId> links;  ///< Link ids along the path (sorted).
  std::size_t hops = 0;              ///< Number of links.
  double routing_weight = 0.0;       ///< Sum of link weights (Dijkstra cost).

  bool operator==(const ProbePath&) const = default;
};

/// Builds a ProbePath from a routing Path between two monitors.
ProbePath make_probe_path(const graph::Path& routed);

/// Immutable candidate-path system over a fixed link universe.
class PathSystem {
 public:
  /// `link_count` is |E| of the underlying graph (columns of A).
  PathSystem(std::size_t link_count, std::vector<ProbePath> paths);

  // The atomic rank cache is not copyable/movable by default; these carry
  // the cached value across.
  PathSystem(const PathSystem& other)
      : link_count_(other.link_count_),
        paths_(other.paths_),
        cached_full_rank_(
            other.cached_full_rank_.load(std::memory_order_relaxed)) {}
  PathSystem(PathSystem&& other) noexcept
      : link_count_(other.link_count_),
        paths_(std::move(other.paths_)),
        cached_full_rank_(
            other.cached_full_rank_.load(std::memory_order_relaxed)) {}
  PathSystem& operator=(const PathSystem& other) {
    if (this != &other) {
      link_count_ = other.link_count_;
      paths_ = other.paths_;
      cached_full_rank_.store(
          other.cached_full_rank_.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    return *this;
  }
  PathSystem& operator=(PathSystem&& other) noexcept {
    link_count_ = other.link_count_;
    paths_ = std::move(other.paths_);
    cached_full_rank_.store(
        other.cached_full_rank_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    return *this;
  }

  std::size_t path_count() const { return paths_.size(); }
  std::size_t link_count() const { return link_count_; }

  const ProbePath& path(std::size_t i) const { return paths_.at(i); }
  const std::vector<ProbePath>& paths() const { return paths_; }

  /// Row i of A by its link ids: the sparse form IncrementalBasis reduces
  /// without scanning every link column.
  linalg::UnitRow unit_row(std::size_t i) const { return {paths_.at(i).links}; }

  /// True iff no link of path i failed in v.
  bool path_survives(std::size_t i, const failures::FailureVector& v) const;

  /// Of the rows in `subset` (all rows when empty-subset semantics are not
  /// wanted, pass explicit indices), those that survive scenario v.
  std::vector<std::size_t> surviving_rows(
      const std::vector<std::size_t>& subset,
      const failures::FailureVector& v) const;

  /// Rank of the surviving submatrix of the given subset under scenario v —
  /// the random variable inside the Expected Rank definition (Eq. 4).
  std::size_t surviving_rank(const std::vector<std::size_t>& subset,
                             const failures::FailureVector& v) const;

  /// Rank of the (non-failed) submatrix given by `subset`: row_space_of's
  /// rank, without the identifiability tests.
  std::size_t rank_of(const std::vector<std::size_t>& subset) const;

  /// Rank of the full candidate set (rank_of every path, cached).
  std::size_t full_rank() const;

  /// Expected availability EA(q) = prod over q's links of (1 - p_l).
  double expected_availability(std::size_t i,
                               const failures::FailureModel& model) const;

 private:
  std::size_t link_count_;
  std::vector<ProbePath> paths_;
  /// Lazy full-rank cache; atomic so concurrent const callers (the service
  /// layer shares one PathSystem across request threads) stay race-free.
  /// Worst case two threads both compute and store the same value.
  mutable std::atomic<std::ptrdiff_t> cached_full_rank_{-1};
};

/// Rows `rows` of A (in that order) as a dense rows.size() × link_count
/// 0/1 matrix; a link a path lists twice is one 1.0.  Built on demand for
/// dense arithmetic (Cholesky basis, direct solves, dense oracles); every
/// production rank and gain reads the link lists instead.
linalg::Matrix path_matrix(const PathSystem& system,
                           const std::vector<std::size_t>& rows);

/// The rows of a path list as a sparse operator over the links they cover:
/// what CGLS iterates on.  A link no listed path traverses is an all-zero
/// column of the full matrix and never enters the arithmetic, so a solve
/// here adds exact zeros where the full-width one carries the uncovered
/// columns.  Rank and identifiability come from the rows' sparse basis
/// instead (row_space_of, tomo::class_row_spaces).
struct CoveredSystem {
  std::size_t link_count = 0;      ///< Width of the full system.
  std::vector<std::size_t> links;  ///< Covered link ids, ascending.
  /// rows.size() x links.size() 0/1 matrix; column c is link links[c].
  linalg::SparseMatrix matrix;
};

/// Builds the covered system of `rows` (in that order) straight from each
/// path's link list.
CoveredSystem covered_system(const PathSystem& system,
                             const std::vector<std::size_t>& rows);

/// Rank and identifiable links (link ids, ascending) of `rows`: the one
/// class of tomo::class_row_spaces, reduced in a sparse incremental basis.
linalg::RowSpace row_space_of(const PathSystem& system,
                              const std::vector<std::size_t>& rows);

/// Min-norm least-squares solves of the covered system from x0 = 0, one
/// per lane (linalg::cgls_solve_lanes: lane l reads values[i * lanes + l]
/// and mask[i * lanes + l] for row i), with each x scattered back to one
/// entry per link (links outside a lane's unmasked rows stay exactly +0).
/// An iteration cap of 0 means 2 * link_count, the full-width default, so
/// lane l is bitwise the full-width CGLS solve of its unmasked rows.
std::vector<linalg::CglsResult> least_squares_lanes(
    const CoveredSystem& covered, std::span<const double> values,
    std::span<const double> mask, std::size_t lanes,
    linalg::CglsOptions options = {});

/// One lane of least_squares_lanes with every row unmasked.
linalg::CglsResult least_squares(const CoveredSystem& covered,
                                 std::span<const double> values,
                                 linalg::CglsOptions options = {});

}  // namespace rnt::tomo
