#include "tomo/localization.h"

#include <algorithm>

namespace rnt::tomo {

LocalizationResult localize_single_failure(
    const PathSystem& system, const std::vector<std::size_t>& subset,
    const failures::FailureVector& v) {
  LocalizationResult result;
  // on_failed[l] counts the failed probes, in subset order, that all carry
  // l: it advances from k to k + 1 only on the (k+1)-th failed probe, so
  // it equals the number of failed probes iff every one of them carries l.
  std::vector<std::size_t> on_failed(system.link_count(), 0);
  std::vector<bool> exonerated(system.link_count(), false);
  std::size_t failed = 0;
  for (std::size_t q : subset) {
    const auto& links = system.path(q).links;
    if (system.path_survives(q, v)) {
      for (graph::EdgeId l : links) exonerated[l] = true;
    } else {
      for (graph::EdgeId l : links) {
        if (on_failed[l] == failed) on_failed[l] = failed + 1;
      }
      ++failed;
    }
  }
  if (failed == 0) return result;  // Nothing observed: no candidates.
  for (std::size_t l = 0; l < on_failed.size(); ++l) {
    if (on_failed[l] == failed && !exonerated[l]) {
      result.candidates.push_back(static_cast<graph::EdgeId>(l));
    }
  }
  return result;
}

LocalizationScore score_localization(const PathSystem& system,
                                     const std::vector<std::size_t>& subset,
                                     const failures::FailureModel& model,
                                     std::size_t trials, Rng& rng,
                                     std::size_t concurrent_failures) {
  // Which links can the probes see at all?  A culprit off every probed
  // path cannot be expected in any candidate set.
  std::vector<bool> probed(system.link_count(), false);
  for (std::size_t q : subset) {
    for (graph::EdgeId l : system.path(q).links) probed[l] = true;
  }
  LocalizationScore score;
  score.trials = trials;
  double candidate_total = 0.0;
  std::size_t visible_trials = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    const auto v = model.sample_exactly_k(concurrent_failures, rng);
    bool any_probe_failed = false;
    for (std::size_t q : subset) {
      if (!system.path_survives(q, v)) {
        any_probe_failed = true;
        break;
      }
    }
    if (!any_probe_failed) {
      ++score.invisible;
      continue;
    }
    ++visible_trials;
    const auto result = localize_single_failure(system, subset, v);
    candidate_total += static_cast<double>(result.candidates.size());
    std::size_t visible_culprits = 0;
    bool all_found = true;
    for (std::size_t l = 0; l < v.size(); ++l) {
      if (!v[l] || !probed[l]) continue;
      ++visible_culprits;
      all_found =
          all_found && std::binary_search(result.candidates.begin(),
                                          result.candidates.end(),
                                          static_cast<graph::EdgeId>(l));
    }
    if (!all_found) {
      ++score.misled;
    } else if (result.candidates.size() == visible_culprits) {
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
