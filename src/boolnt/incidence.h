// Probe–component incidence: which failure components touch which probed
// paths.  Every Boolean question in this subsystem (which components a
// surviving probe exonerates, which ones could explain a failed probe,
// which ones the probes can see at all, what signature a component set
// leaves) reduces to this relation, so it is built in one place, once per
// request, and the per-scenario work only reads it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "boolnt/hypothesis.h"
#include "tomo/path_system.h"

namespace rnt::boolnt {

/// For each position p of a probed subset, the components whose link sets
/// meet path subset[p], stored flat: ids[offsets[p] .. offsets[p + 1]),
/// ascending and unique.
struct ProbeIncidence {
  std::vector<std::size_t> offsets;  ///< subset.size() + 1 entries.
  std::vector<std::uint32_t> ids;

  std::span<const std::uint32_t> of(std::size_t p) const {
    return {ids.data() + offsets[p], ids.data() + offsets[p + 1]};
  }
};

/// Builds the incidence of `subset` through a link → components map, so
/// the cost is the subset's total path length times the components per
/// link (plus one pass over the space), not components × probes.
ProbeIncidence probe_incidence(const tomo::PathSystem& system,
                               const std::vector<std::size_t>& subset,
                               const HypothesisSpace& space);

}  // namespace rnt::boolnt
