#include "tomo/path_system.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "tomo/row_classes.h"

namespace rnt::tomo {

ProbePath make_probe_path(const graph::Path& routed) {
  ProbePath p;
  if (routed.nodes.empty()) {
    throw std::invalid_argument("make_probe_path: empty path");
  }
  p.source = routed.nodes.front();
  p.destination = routed.nodes.back();
  p.links = routed.edges;
  std::sort(p.links.begin(), p.links.end());
  p.hops = routed.edges.size();
  p.routing_weight = routed.weight;
  return p;
}

PathSystem::PathSystem(std::size_t link_count, std::vector<ProbePath> paths)
    : link_count_(link_count), paths_(std::move(paths)) {
  matrix_ = linalg::Matrix(paths_.size(), link_count_);
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    if (paths_[i].links.empty()) {
      throw std::invalid_argument("PathSystem: path with no links");
    }
    for (graph::EdgeId l : paths_[i].links) {
      if (l >= link_count_) {
        throw std::out_of_range("PathSystem: link id exceeds link universe");
      }
      matrix_(i, l) = 1.0;
    }
  }
}

bool PathSystem::path_survives(std::size_t i,
                               const failures::FailureVector& v) const {
  if (v.size() != link_count_) {
    throw std::invalid_argument("path_survives: failure vector size mismatch");
  }
  for (graph::EdgeId l : paths_.at(i).links) {
    if (v[l]) return false;
  }
  return true;
}

std::vector<std::size_t> PathSystem::surviving_rows(
    const std::vector<std::size_t>& subset,
    const failures::FailureVector& v) const {
  std::vector<std::size_t> out;
  out.reserve(subset.size());
  for (std::size_t i : subset) {
    if (path_survives(i, v)) out.push_back(i);
  }
  return out;
}

std::size_t PathSystem::surviving_rank(const std::vector<std::size_t>& subset,
                                       const failures::FailureVector& v) const {
  return rank_of(surviving_rows(subset, v));
}

std::size_t PathSystem::rank_of(const std::vector<std::size_t>& subset) const {
  if (subset.empty()) return 0;
  RowClasses classes;
  classes.intern(subset);
  return class_row_spaces(*this, classes, /*identifiable=*/false)[0].rank;
}

std::size_t PathSystem::full_rank() const {
  std::ptrdiff_t cached = cached_full_rank_.load(std::memory_order_acquire);
  if (cached < 0) {
    std::vector<std::size_t> all(paths_.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    cached = static_cast<std::ptrdiff_t>(rank_of(all));
    cached_full_rank_.store(cached, std::memory_order_release);
  }
  return static_cast<std::size_t>(cached);
}

double PathSystem::expected_availability(
    std::size_t i, const failures::FailureModel& model) const {
  return model.path_availability(paths_.at(i).links);
}

CoveredSystem covered_system(const PathSystem& system,
                             const std::vector<std::size_t>& rows) {
  constexpr std::size_t kUncovered = static_cast<std::size_t>(-1);
  CoveredSystem out;
  out.link_count = system.link_count();
  std::vector<std::size_t> column_of(system.link_count(), kUncovered);
  for (const std::size_t r : rows) {
    for (const graph::EdgeId l : system.path(r).links) column_of[l] = 0;
  }
  for (std::size_t l = 0; l < column_of.size(); ++l) {
    if (column_of[l] == kUncovered) continue;
    column_of[l] = out.links.size();
    out.links.push_back(l);
  }
  std::vector<std::vector<std::pair<std::size_t, double>>> entries;
  entries.reserve(rows.size());
  for (const std::size_t r : rows) {
    auto& row = entries.emplace_back();
    for (const graph::EdgeId l : system.path(r).links) {
      // A link listed twice is one 1 in the path matrix.
      if (row.empty() || row.back().first != column_of[l]) {
        row.emplace_back(column_of[l], 1.0);
      }
    }
  }
  out.matrix = linalg::SparseMatrix::from_rows(out.links.size(), entries);
  return out;
}

linalg::RowSpace row_space_of(const PathSystem& system,
                              const std::vector<std::size_t>& rows) {
  RowClasses classes;
  classes.intern(rows);
  return std::move(class_row_spaces(system, classes, /*identifiable=*/true)
                       .front());
}

std::vector<linalg::CglsResult> least_squares_lanes(
    const CoveredSystem& covered, std::span<const double> values,
    std::span<const double> mask, std::size_t lanes,
    linalg::CglsOptions options) {
  if (options.max_iterations == 0) {
    options.max_iterations = 2 * covered.link_count;
  }
  std::vector<linalg::CglsResult> results =
      linalg::cgls_solve_lanes(covered.matrix, values, mask, lanes, options);
  for (linalg::CglsResult& result : results) {
    std::vector<double> x(covered.link_count, 0.0);
    for (std::size_t c = 0; c < covered.links.size(); ++c) {
      x[covered.links[c]] = result.x[c];
    }
    result.x = std::move(x);
  }
  return results;
}

linalg::CglsResult least_squares(const CoveredSystem& covered,
                                 std::span<const double> values,
                                 linalg::CglsOptions options) {
  const std::vector<double> all(covered.matrix.rows(), 1.0);
  return std::move(least_squares_lanes(covered, values, all, 1, options).front());
}

}  // namespace rnt::tomo
