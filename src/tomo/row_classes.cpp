#include "tomo/row_classes.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace rnt::tomo {
namespace {

/// The links of `candidates` (ascending) whose unit row lies in the row
/// space of `basis`.
std::vector<std::size_t> unit_rows_in(
    const linalg::IncrementalBasis& basis,
    const std::vector<std::size_t>& candidates) {
  std::vector<std::size_t> out;
  for (const std::size_t j : candidates) {
    const std::uint32_t one = static_cast<std::uint32_t>(j);
    if (!basis.is_independent(linalg::UnitRow{{&one, 1}})) out.push_back(j);
  }
  return out;
}

}  // namespace

ClassRowSpaces::ClassRowSpaces(const PathSystem& system,
                               const RowClasses& classes, bool identifiable)
    : system_(system),
      classes_(classes),
      identifiable_(identifiable),
      in_root_(system.path_count(), 0),
      root_(system.link_count(), linalg::kDefaultTolerance,
            /*track_combinations=*/false) {
  if (classes.size() == 0) return;
  const std::vector<std::size_t>& root_rows = classes.rows(0);
  rank_before_.reserve(root_rows.size() + 1);
  rank_before_.push_back(0);
  for (const std::size_t r : root_rows) {
    in_root_.at(r) = 1;
    root_.try_add(system.unit_row(r));
    rank_before_.push_back(root_.rank());
  }
  root_space_.rank = root_.rank();
  if (!identifiable) return;
  std::vector<unsigned char> covered(system.link_count(), 0);
  for (const std::size_t r : root_rows) {
    for (const graph::EdgeId l : system.path(r).links) covered[l] = 1;
  }
  std::vector<std::size_t> links;
  for (std::size_t l = 0; l < covered.size(); ++l) {
    if (covered[l] != 0) links.push_back(l);
  }
  root_space_.identifiable = unit_rows_in(root_, links);
}

linalg::RowSpace ClassRowSpaces::space(std::size_t c) const {
  const std::vector<std::size_t>& rows = classes_.rows(c);
  if (c == 0) return root_space_;
  for (const std::size_t r : rows) {
    if (r >= in_root_.size() || in_root_[r] == 0) {
      throw std::invalid_argument(
          "class_row_spaces: a class lists a row outside class 0");
    }
  }
  const std::vector<std::size_t>& root_rows = classes_.rows(0);
  const std::size_t common = static_cast<std::size_t>(
      std::mismatch(rows.begin(), rows.end(), root_rows.begin(),
                    root_rows.end())
          .first -
      rows.begin());
  linalg::IncrementalBasis basis(root_, rank_before_[common]);
  for (std::size_t k = common; k < rows.size(); ++k) {
    basis.try_add(system_.unit_row(rows[k]));
  }
  linalg::RowSpace space;
  space.rank = basis.rank();
  if (!identifiable_) return space;
  space.identifiable = basis.rank() == root_.rank()
                           ? root_space_.identifiable
                           : unit_rows_in(basis, root_space_.identifiable);
  return space;
}

std::vector<linalg::RowSpace> class_row_spaces(const PathSystem& system,
                                               const RowClasses& classes,
                                               bool identifiable) {
  const ClassRowSpaces spaces(system, classes, identifiable);
  std::vector<linalg::RowSpace> out;
  out.reserve(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    out.push_back(spaces.space(c));
  }
  return out;
}

}  // namespace rnt::tomo
