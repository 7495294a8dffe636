// Single-link failure localization from probe outcomes.
//
// The paper's Section II example notes a side benefit of robust selection:
// the *pattern* of failed probes localizes the failed link ("we can also
// conclude, from the failure of path q11, that the failed link is l7").
// This module implements that inference — candidate culprits are the links
// carried by every failed probe and exonerated by no surviving probe — and
// scores selections by their localization quality under a failure model.
#pragma once

#include <cstddef>
#include <vector>

#include "failures/failure_model.h"
#include "tomo/path_system.h"
#include "util/rng.h"

namespace rnt::tomo {

/// Result of localizing from one epoch's probe outcomes.
struct LocalizationResult {
  /// Links consistent with the observed probe outcomes under a single-link
  /// failure hypothesis (empty when no probed path failed, or when
  /// observations are inconsistent with any single-link failure).
  std::vector<graph::EdgeId> candidates;
  /// True iff exactly one candidate remains.
  bool exact() const { return candidates.size() == 1; }
};

/// Localizes a (hypothesized single) link failure from the outcome of
/// probing `subset` under scenario v: intersect the link sets of failed
/// probes, remove links on surviving probes.
LocalizationResult localize_single_failure(
    const PathSystem& system, const std::vector<std::size_t>& subset,
    const failures::FailureVector& v);

/// Aggregate localization quality of a selection over single-link failure
/// scenarios drawn proportionally to the model's probabilities.
struct LocalizationScore {
  std::size_t trials = 0;
  std::size_t exact = 0;       ///< Unique culprit identified.
  std::size_t ambiguous = 0;   ///< Culprit present among >1 candidates.
  std::size_t misled = 0;      ///< Failure visible but culprit exonerated —
                               ///< the candidate set does NOT contain it.
  std::size_t invisible = 0;   ///< No probed path crossed the failed link.
  double mean_candidates = 0;  ///< Mean candidate-set size when visible.

  double exact_fraction() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(exact) /
                             static_cast<double>(trials);
  }
  /// Fraction of trials whose candidate set contains the true culprit
  /// (exact or ambiguous) — the correct-culprit-in-candidates rate.
  double hit_fraction() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(exact + ambiguous) /
                             static_cast<double>(trials);
  }
};

/// Injects `trials` failures of exactly `concurrent_failures` links each
/// (drawn without replacement, proportional to the failure model) and
/// scores single-link-hypothesis localization.  A trial is *invisible* when
/// no probed path failed, *exact*/*ambiguous* when the candidate set
/// contains every visible culprit (uniquely / among extras), and *misled*
/// when a visible culprit is missing from the candidates — which only
/// happens once concurrent failures make the observations inconsistent
/// with the single-link hypothesis (concurrent_failures >= 2).  Each
/// trial applies localize_single_failure's candidate rule, the same
/// routine over a link → probe index built once per call: a trial visits
/// only the failed links' probes and the links of one failed probe.
LocalizationScore score_localization(const PathSystem& system,
                                     const std::vector<std::size_t>& subset,
                                     const failures::FailureModel& model,
                                     std::size_t trials, Rng& rng,
                                     std::size_t concurrent_failures = 1);

}  // namespace rnt::tomo
