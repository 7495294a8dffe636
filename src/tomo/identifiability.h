// Link identifiability: which link metrics have a unique solution in the
// linear system of surviving paths (Section VI-A's second robustness
// metric).  Link j is identifiable iff e_j lies in the row space of the
// surviving path matrix: the unit row e_j reduces to zero against the
// rows' sparse incremental basis (tomo::row_space_of).
#pragma once

#include <cstddef>
#include <vector>

#include "failures/failure_model.h"
#include "tomo/path_system.h"

namespace rnt::tomo {

/// Link ids identifiable from the (assumed surviving) rows in `subset`.
std::vector<std::size_t> identifiable_links(
    const PathSystem& system, const std::vector<std::size_t>& subset);

/// Count of identifiable links for the surviving part of `subset` under
/// failure scenario v.  Note: failed links are never identifiable (their
/// paths are gone), matching the paper's metric.
std::size_t identifiable_count_under(const PathSystem& system,
                                     const std::vector<std::size_t>& subset,
                                     const failures::FailureVector& v);

/// Count with no failures.
std::size_t identifiable_count(const PathSystem& system,
                               const std::vector<std::size_t>& subset);

}  // namespace rnt::tomo
