#include "tomo/identifiability.h"

namespace rnt::tomo {

std::vector<std::size_t> identifiable_links(
    const PathSystem& system, const std::vector<std::size_t>& subset) {
  return row_space_of(system, subset).identifiable;
}

std::size_t identifiable_count_under(const PathSystem& system,
                                     const std::vector<std::size_t>& subset,
                                     const failures::FailureVector& v) {
  return identifiable_links(system, system.surviving_rows(subset, v)).size();
}

std::size_t identifiable_count(const PathSystem& system,
                               const std::vector<std::size_t>& subset) {
  return identifiable_links(system, subset).size();
}

}  // namespace rnt::tomo
