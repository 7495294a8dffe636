#include "tomo/localization.h"

#include <algorithm>
#include <stdexcept>

namespace rnt::tomo {

namespace {

/// carriers[l]: the subset positions whose probe carries link l, each once
/// and ascending.  A position is one listed probe, so a path listed twice
/// is two probes.
std::vector<std::vector<std::size_t>> probe_index(
    const PathSystem& system, const std::vector<std::size_t>& subset) {
  std::vector<std::vector<std::size_t>> carriers(system.link_count());
  for (std::size_t pos = 0; pos < subset.size(); ++pos) {
    for (const graph::EdgeId l : system.path(subset[pos]).links) {
      if (carriers[l].empty() || carriers[l].back() != pos) {
        carriers[l].push_back(pos);
      }
    }
  }
  return carriers;
}

/// The single-failure candidate rule: the links carried by every failed
/// probe and by no surviving one, i.e. the links whose carriers are
/// exactly the failed positions.  `failed` marks the positions listed in
/// `failed_positions`, which is not empty; every candidate is on its first
/// probe, so only that probe's links are tested.  Ascending, each once.
std::vector<graph::EdgeId> single_failure_candidates(
    const PathSystem& system, const std::vector<std::size_t>& subset,
    const std::vector<std::vector<std::size_t>>& carriers,
    const std::vector<unsigned char>& failed,
    const std::vector<std::size_t>& failed_positions) {
  std::vector<graph::EdgeId> candidates;
  for (const graph::EdgeId l :
       system.path(subset[failed_positions.front()]).links) {
    const std::vector<std::size_t>& on_l = carriers[l];
    if (on_l.size() == failed_positions.size() &&
        std::all_of(on_l.begin(), on_l.end(),
                    [&](std::size_t pos) { return failed[pos] != 0; })) {
      candidates.push_back(l);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return candidates;
}

}  // namespace

LocalizationResult localize_single_failure(
    const PathSystem& system, const std::vector<std::size_t>& subset,
    const failures::FailureVector& v) {
  std::vector<unsigned char> failed(subset.size(), 0);
  std::vector<std::size_t> failed_positions;
  for (std::size_t pos = 0; pos < subset.size(); ++pos) {
    if (!system.path_survives(subset[pos], v)) {
      failed[pos] = 1;
      failed_positions.push_back(pos);
    }
  }
  LocalizationResult result;
  if (failed_positions.empty()) return result;  // Nothing observed.
  result.candidates =
      single_failure_candidates(system, subset, probe_index(system, subset),
                                failed, failed_positions);
  return result;
}

LocalizationScore score_localization(const PathSystem& system,
                                     const std::vector<std::size_t>& subset,
                                     const failures::FailureModel& model,
                                     std::size_t trials, Rng& rng,
                                     std::size_t concurrent_failures) {
  // A link no probe carries is invisible: a culprit there fails no probe
  // and cannot be expected in any candidate set.
  const std::size_t links = system.link_count();
  const std::vector<std::vector<std::size_t>> carriers =
      probe_index(system, subset);

  LocalizationScore score;
  score.trials = trials;
  double candidate_total = 0.0;
  std::size_t visible_trials = 0;
  std::vector<unsigned char> failed(subset.size(), 0);
  std::vector<std::size_t> failed_positions;
  std::vector<graph::EdgeId> culprits;
  for (std::size_t t = 0; t < trials; ++t) {
    const auto v = model.sample_exactly_k(concurrent_failures, rng);
    if (v.size() != links) {
      throw std::invalid_argument(
          "score_localization: failure vector size mismatch");
    }
    // The probes fail exactly through the probed failed links.
    culprits.clear();
    failed_positions.clear();
    for (std::size_t l = 0; l < links; ++l) {
      if (!v[l] || carriers[l].empty()) continue;
      culprits.push_back(static_cast<graph::EdgeId>(l));
      for (const std::size_t pos : carriers[l]) {
        if (failed[pos] == 0) {
          failed[pos] = 1;
          failed_positions.push_back(pos);
        }
      }
    }
    if (culprits.empty()) {
      ++score.invisible;
      continue;
    }
    ++visible_trials;
    const std::vector<graph::EdgeId> candidates = single_failure_candidates(
        system, subset, carriers, failed, failed_positions);
    for (const std::size_t pos : failed_positions) failed[pos] = 0;

    candidate_total += static_cast<double>(candidates.size());
    bool all_found = true;
    for (const graph::EdgeId l : culprits) {
      all_found = all_found && std::binary_search(candidates.begin(),
                                                  candidates.end(), l);
    }
    if (!all_found) {
      ++score.misled;
    } else if (candidates.size() == culprits.size()) {
      ++score.exact;
    } else {
      ++score.ambiguous;
    }
  }
  score.mean_candidates =
      visible_trials == 0
          ? 0.0
          : candidate_total / static_cast<double>(visible_trials);
  return score;
}

}  // namespace rnt::tomo
