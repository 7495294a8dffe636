#include "boolnt/localize.h"

#include <algorithm>
#include <set>

#include "boolnt/incidence.h"

namespace rnt::boolnt {
namespace {

/// Enumerates hitting sets of `hitters` (per failed probe, the feasible
/// components touching it) up to size `max_failures`, branching on the
/// first uncovered probe.  Emits into `out` (deduplicated by the caller).
struct HittingSetSearch {
  const std::vector<std::vector<std::uint32_t>>* hitters = nullptr;
  std::size_t max_failures = 0;
  std::size_t max_candidates = 0;
  std::set<std::vector<std::uint32_t>>* out = nullptr;
  bool truncated = false;

  /// `chosen` is kept sorted; `covered[p]` counts chosen components
  /// touching failed probe p.
  void expand(std::vector<std::uint32_t>& chosen,
              std::vector<std::size_t>& covered) {
    if (truncated) return;
    std::size_t uncovered = hitters->size();
    for (std::size_t p = 0; p < hitters->size(); ++p) {
      if (covered[p] == 0) {
        uncovered = p;
        break;
      }
    }
    if (uncovered == hitters->size()) {
      out->insert(chosen);
      if (out->size() >= max_candidates) truncated = true;
      return;
    }
    if (chosen.size() == max_failures) return;
    for (std::uint32_t c : (*hitters)[uncovered]) {
      if (std::binary_search(chosen.begin(), chosen.end(), c)) continue;
      const auto pos =
          std::lower_bound(chosen.begin(), chosen.end(), c);
      chosen.insert(pos, c);
      for (std::size_t p = 0; p < hitters->size(); ++p) {
        if (std::binary_search((*hitters)[p].begin(), (*hitters)[p].end(),
                               c)) {
          ++covered[p];
        }
      }
      expand(chosen, covered);
      for (std::size_t p = 0; p < hitters->size(); ++p) {
        if (std::binary_search((*hitters)[p].begin(), (*hitters)[p].end(),
                               c)) {
          --covered[p];
        }
      }
      chosen.erase(std::find(chosen.begin(), chosen.end(), c));
      if (truncated) return;
    }
  }
};

/// Keeps only inclusion-minimal sets (input sorted sets in lexicographic
/// order; output preserves that order).
std::vector<std::vector<std::uint32_t>> minimal_sets(
    const std::set<std::vector<std::uint32_t>>& sets) {
  std::vector<std::vector<std::uint32_t>> out;
  for (const auto& candidate : sets) {
    bool has_subset = false;
    for (const auto& other : sets) {
      if (other.size() >= candidate.size() || other == candidate) continue;
      if (std::includes(candidate.begin(), candidate.end(), other.begin(),
                        other.end())) {
        has_subset = true;
        break;
      }
    }
    if (!has_subset) out.push_back(candidate);
  }
  return out;
}

/// localize_multi_failure over a prebuilt incidence of `subset`: each
/// surviving probe clears its components from `feasible`, and each failed
/// probe's hitters are its component list filtered by `feasible`.  The
/// lists are ascending, so every hitter list is too.
MultiLocalizationResult localize_indexed(
    const tomo::PathSystem& system, const std::vector<std::size_t>& subset,
    const ProbeIncidence& incidence, std::size_t component_count,
    const failures::FailureVector& v, std::size_t max_failures,
    std::size_t max_candidates) {
  MultiLocalizationResult result;
  std::vector<std::size_t> failed;
  std::vector<bool> feasible(component_count, true);
  for (std::size_t p = 0; p < subset.size(); ++p) {
    if (!system.path_survives(subset[p], v)) {
      failed.push_back(p);
      continue;
    }
    // Exoneration: a component touching a surviving probe cannot have
    // failed, so it leaves the hypothesis space.
    for (std::uint32_t c : incidence.of(p)) feasible[c] = false;
  }
  if (failed.empty()) {
    result.no_failure = true;
    result.candidates.push_back({});
    return result;
  }
  if (max_failures == 0) return result;  // Nothing can explain a failure.

  // Per failed probe, the feasible components that could explain it.
  std::vector<std::vector<std::uint32_t>> hitters(failed.size());
  for (std::size_t i = 0; i < failed.size(); ++i) {
    for (std::uint32_t c : incidence.of(failed[i])) {
      if (feasible[c]) hitters[i].push_back(c);
    }
    if (hitters[i].empty()) return result;  // No hypothesis explains it.
  }

  std::set<std::vector<std::uint32_t>> found;
  HittingSetSearch search;
  search.hitters = &hitters;
  search.max_failures = max_failures;
  search.max_candidates = max_candidates;
  search.out = &found;
  std::vector<std::uint32_t> chosen;
  std::vector<std::size_t> covered(failed.size(), 0);
  search.expand(chosen, covered);
  result.truncated = search.truncated;
  result.candidates = minimal_sets(found);
  return result;
}

}  // namespace

MultiLocalizationResult localize_multi_failure(
    const tomo::PathSystem& system, const std::vector<std::size_t>& subset,
    const failures::FailureVector& v, const HypothesisSpace& space,
    std::size_t max_failures, std::size_t max_candidates) {
  return localize_indexed(system, subset,
                          probe_incidence(system, subset, space),
                          space.component_count(), v, max_failures,
                          max_candidates);
}

MultiLocalizationScore score_multi_localization(
    const tomo::PathSystem& system, const std::vector<std::size_t>& subset,
    const HypothesisSpace& space, std::size_t max_failures,
    std::size_t trials, Rng& rng,
    const std::vector<double>& component_weights) {
  MultiLocalizationScore score;
  score.trials = trials;
  if (space.component_count() == 0 || max_failures == 0) {
    score.invisible = trials;
    return score;
  }
  // One incidence for every trial; a component is visible iff it touches
  // some probe.
  const ProbeIncidence incidence = probe_incidence(system, subset, space);
  std::vector<bool> visible(space.component_count(), false);
  for (std::uint32_t c : incidence.ids) visible[c] = true;
  double candidate_total = 0.0;
  std::size_t visible_trials = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    const std::size_t want =
        1 + t % std::min(max_failures, space.component_count());
    // Draw `want` distinct components, weighted when weights are given.
    std::vector<std::uint32_t> truth;
    if (component_weights.empty()) {
      for (std::size_t i :
           rng.sample_without_replacement(space.component_count(), want)) {
        truth.push_back(static_cast<std::uint32_t>(i));
      }
    } else {
      std::vector<double> weights = component_weights;
      for (std::size_t draw = 0; draw < want; ++draw) {
        const std::size_t pick = rng.weighted_index(weights);
        truth.push_back(static_cast<std::uint32_t>(pick));
        weights[pick] = 0.0;
      }
    }
    std::vector<std::uint32_t> visible_truth;
    for (std::uint32_t c : truth) {
      if (visible[c]) visible_truth.push_back(c);
    }
    std::sort(visible_truth.begin(), visible_truth.end());
    if (visible_truth.empty()) {
      ++score.invisible;
      continue;
    }
    ++visible_trials;
    const failures::FailureVector v = space.failure_vector(truth);
    const MultiLocalizationResult result =
        localize_indexed(system, subset, incidence, space.component_count(),
                         v, max_failures, kDefaultMaxCandidates);
    candidate_total += static_cast<double>(result.candidates.size());
    const bool found =
        std::find(result.candidates.begin(), result.candidates.end(),
                  visible_truth) != result.candidates.end();
    if (!found) {
      ++score.misled;
    } else if (result.candidates.size() == 1) {
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

}  // namespace rnt::boolnt
