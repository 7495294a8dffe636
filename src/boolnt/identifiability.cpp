#include "boolnt/identifiability.h"

#include <algorithm>
#include <map>
#include <thread>

#include "boolnt/incidence.h"

namespace rnt::boolnt {
namespace {

/// All component sets of size <= k_cap, size-ascending then lexicographic.
/// The empty set is included — a nonempty set with an all-zero signature
/// collides with "nothing failed", which caps identifiability too.
std::vector<std::vector<std::uint32_t>> enumerate_sets(std::size_t n,
                                                       std::size_t k_cap) {
  std::vector<std::vector<std::uint32_t>> sets;
  sets.push_back({});
  std::vector<std::uint32_t> current;
  for (std::size_t k = 1; k <= k_cap; ++k) {
    current.assign(k, 0);
    for (std::size_t i = 0; i < k; ++i) {
      current[i] = static_cast<std::uint32_t>(i);
    }
    while (true) {
      sets.push_back(current);
      // Next k-combination of [0, n) in lexicographic order.
      std::size_t i = k;
      while (i > 0 &&
             current[i - 1] == static_cast<std::uint32_t>(n - k + i - 1)) {
        --i;
      }
      if (i == 0) break;
      ++current[i - 1];
      for (std::size_t j = i; j < k; ++j) {
        current[j] = current[j - 1] + 1;
      }
    }
  }
  return sets;
}

/// Largest cap <= requested such that the set count stays under max_sets.
std::size_t effective_cap(std::size_t n, std::size_t requested,
                          std::size_t max_sets) {
  std::size_t cap = 0;
  double total = 1.0;  // The empty set.
  double level = 1.0;  // C(n, k) running value.
  for (std::size_t k = 1; k <= requested; ++k) {
    level *= static_cast<double>(n - k + 1) / static_cast<double>(k);
    total += level;
    if (total > static_cast<double>(max_sets)) break;
    cap = k;
  }
  return cap;
}

using Signature = std::vector<std::uint64_t>;

}  // namespace

IdentifiabilityReport identifiability_report(
    const tomo::PathSystem& system, const std::vector<std::size_t>& subset,
    const HypothesisSpace& space, std::size_t k_cap, std::size_t threads,
    std::size_t max_sets) {
  const std::size_t n = space.component_count();
  IdentifiabilityReport report;
  report.k_cap = effective_cap(n, std::min(k_cap, n), max_sets);
  report.per_component.assign(n, report.k_cap);
  report.max_identifiable = report.k_cap;
  if (report.k_cap == 0) return report;

  // Per-component signature over the probed subset: bit q set iff the
  // component touches probed path subset[q].
  const std::size_t words = (subset.size() + 63) / 64;
  std::vector<Signature> component_mask(n, Signature(words, 0));
  const ProbeIncidence incidence = probe_incidence(system, subset, space);
  for (std::size_t q = 0; q < subset.size(); ++q) {
    for (std::uint32_t c : incidence.of(q)) {
      component_mask[c][q / 64] |= std::uint64_t{1} << (q % 64);
    }
  }

  const std::vector<std::vector<std::uint32_t>> sets =
      enumerate_sets(n, report.k_cap);
  report.sets_examined = sets.size();

  // Sign every set, chunked across threads.  Signatures are integers and
  // land in preallocated slots, so the merge below is independent of the
  // thread count.
  std::vector<Signature> signatures(sets.size());
  const auto sign_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      Signature sig(words, 0);
      for (std::uint32_t c : sets[i]) {
        for (std::size_t w = 0; w < words; ++w) {
          sig[w] |= component_mask[c][w];
        }
      }
      signatures[i] = std::move(sig);
    }
  };
  if (threads <= 1 || sets.size() < 256) {
    sign_range(0, sets.size());
  } else {
    const std::size_t workers = std::min(threads, sets.size());
    const std::size_t chunk = (sets.size() + workers - 1) / workers;
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < workers; ++w) {
      const std::size_t begin = w * chunk;
      const std::size_t end = std::min(sets.size(), begin + chunk);
      if (begin < end) pool.emplace_back(sign_range, begin, end);
    }
    for (std::thread& t : pool) t.join();
  }

  // Group colliding sets.  Sets arrive size-ascending, so each group's
  // list is size-sorted for free.
  std::map<Signature, std::vector<std::uint32_t>> groups;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    groups[signatures[i]].push_back(static_cast<std::uint32_t>(i));
  }

  for (const auto& [sig, members] : groups) {
    if (members.size() < 2) continue;
    // Ma–He: the two smallest colliding sets defeat every level >= the
    // larger of their sizes.
    const std::size_t second_size = sets[members[1]].size();
    if (second_size >= 1) {
      report.max_identifiable =
          std::min(report.max_identifiable, second_size - 1);
    }
    // Bartolini: for component c, the best defeating pair is the smallest
    // member containing c against the smallest member without it.
    std::map<std::uint32_t, std::size_t> min_with;
    for (const std::uint32_t idx : members) {
      for (const std::uint32_t c : sets[idx]) {
        min_with.try_emplace(c, sets[idx].size());
      }
    }
    for (const auto& [c, with_size] : min_with) {
      std::size_t without_size = 0;
      bool found = false;
      for (const std::uint32_t idx : members) {
        if (!std::binary_search(sets[idx].begin(), sets[idx].end(), c)) {
          without_size = sets[idx].size();
          found = true;
          break;
        }
      }
      if (!found) continue;
      const std::size_t defeat = std::max(with_size, without_size);
      if (defeat >= 1) {
        report.per_component[c] =
            std::min(report.per_component[c], defeat - 1);
      }
    }
  }
  return report;
}

}  // namespace rnt::boolnt
