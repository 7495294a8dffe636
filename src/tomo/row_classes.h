// Scenario classes of one request: failure scenarios that leave the same
// surviving rows alive share one class, so a per-request loop eliminates
// once per class instead of once per scenario.  A class is keyed by the
// exact row list, order included, so everything computed from it is the
// value the per-scenario loop computes.
//
// ClassRowSpaces eliminates every class of a request from one sparse
// basis: class 0 is the request's probe subset, every other class is that
// subset minus the rows a scenario failed, and a class shares the subset's
// eliminated rows up to its first missing row.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "linalg/elimination.h"
#include "linalg/incremental_basis.h"
#include "tomo/path_system.h"

namespace rnt::tomo {

class RowClasses {
 public:
  /// Id of the class of `rows`; a list never seen before gets id size().
  std::size_t intern(const std::vector<std::size_t>& rows) {
    const auto [it, inserted] = ids_.try_emplace(rows, rows_.size());
    if (inserted) rows_.push_back(rows);
    return it->second;
  }

  std::size_t size() const { return rows_.size(); }

  /// The row list of class `id`, in first-seen order of ids.
  const std::vector<std::size_t>& rows(std::size_t id) const {
    return rows_.at(id);
  }

 private:
  std::map<std::vector<std::size_t>, std::size_t> ids_;
  std::vector<std::vector<std::size_t>> rows_;
};

/// Rank and, when `identifiable` is set, the identifiable links (link ids,
/// ascending) of the classes of one RowClasses.  Class 0 is the root: its
/// rows go into one rank-only linalg::IncrementalBasis in order, and the
/// rank after each row is kept.  Class c forks that basis with the
/// prefix-copy constructor at the rank before its first row that differs
/// from the root's list, then inserts only its rows from there on, so its
/// basis is bit for bit a fresh basis of its own rows.  Link j is
/// identifiable iff the unit row e_j reduces to zero against the class's
/// basis.  Every class's rows must be rows of class 0
/// (std::invalid_argument otherwise): a class then spans a subspace of the
/// root's row space, so only the root's identifiable links are tested, and
/// a class of the root's rank has exactly the root's identifiable links.
/// `system` and `classes` must outlive this object.
class ClassRowSpaces {
 public:
  /// Eliminates class 0 (no class at all is allowed: space() then has no
  /// class to answer for).
  ClassRowSpaces(const PathSystem& system, const RowClasses& classes,
                 bool identifiable);

  /// Class c's rank and identifiable links.  Reads the root basis only,
  /// so several threads may ask for different classes at once.
  linalg::RowSpace space(std::size_t c) const;

 private:
  const PathSystem& system_;
  const RowClasses& classes_;
  bool identifiable_;
  std::vector<unsigned char> in_root_;  ///< in_root_[r]: class 0 lists r.
  linalg::IncrementalBasis root_;
  std::vector<std::size_t> rank_before_;  ///< Rank of class 0's first k rows.
  linalg::RowSpace root_space_;
};

/// ClassRowSpaces::space of every class, indexed by class id.
std::vector<linalg::RowSpace> class_row_spaces(const PathSystem& system,
                                               const RowClasses& classes,
                                               bool identifiable);

}  // namespace rnt::tomo
