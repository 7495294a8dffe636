// Scenario classes of one request: failure scenarios that leave the same
// surviving rows alive share one class, so a per-request loop eliminates
// (or builds a restricted system) once per class instead of once per
// scenario.  A class is keyed by the exact row list, order included, so
// everything computed from it is the value the per-scenario loop computes.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

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

}  // namespace rnt::tomo
