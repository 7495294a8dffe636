#include "boolnt/incidence.h"

#include <algorithm>

namespace rnt::boolnt {

ProbeIncidence probe_incidence(const tomo::PathSystem& system,
                               const std::vector<std::size_t>& subset,
                               const HypothesisSpace& space) {
  // Link → components, flat: link l's components are
  // by_link[link_start[l] .. link_start[l + 1]), ascending because
  // components are visited in id order.
  const std::size_t links = space.link_count();
  std::vector<std::size_t> link_start(links + 1, 0);
  for (const Component& c : space.components()) {
    for (std::uint32_t l : c.links) ++link_start[l + 1];
  }
  for (std::size_t l = 0; l < links; ++l) link_start[l + 1] += link_start[l];
  std::vector<std::uint32_t> by_link(link_start[links]);
  std::vector<std::size_t> fill(link_start.begin(), link_start.end() - 1);
  for (std::size_t c = 0; c < space.component_count(); ++c) {
    for (std::uint32_t l : space.component(c).links) {
      by_link[fill[l]++] = static_cast<std::uint32_t>(c);
    }
  }

  // Per probe, the union of its links' component lists.  stamp[c] == p + 1
  // marks c as already listed for probe p, so each probe costs its path
  // length times the components per link, plus a sort of its short list.
  ProbeIncidence incidence;
  incidence.offsets.reserve(subset.size() + 1);
  incidence.offsets.push_back(0);
  std::vector<std::size_t> stamp(space.component_count(), 0);
  for (std::size_t p = 0; p < subset.size(); ++p) {
    const std::size_t begin = incidence.ids.size();
    for (graph::EdgeId l : system.path(subset[p]).links) {
      if (l >= links) continue;  // A link no component can carry.
      for (std::size_t i = link_start[l]; i < link_start[l + 1]; ++i) {
        const std::uint32_t c = by_link[i];
        if (stamp[c] == p + 1) continue;
        stamp[c] = p + 1;
        incidence.ids.push_back(c);
      }
    }
    std::sort(incidence.ids.begin() + static_cast<std::ptrdiff_t>(begin),
              incidence.ids.end());
    incidence.offsets.push_back(incidence.ids.size());
  }
  return incidence;
}

}  // namespace rnt::boolnt
