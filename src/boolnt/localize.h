// Multi-failure Boolean localization.
//
// Generalizes tomo::localize_single_failure from "which one link failed"
// to "which set of at most k components failed".  The observation is one
// bit per probed path; a hypothesis H (a set of components) is *consistent*
// with it iff
//   (a) no component of H touches a surviving probe (exoneration), and
//   (b) every failed probe carries a link of some component of H.
// Among consistent hypotheses only the inclusion-minimal ones are
// reported: any superset of a consistent hypothesis built from feasible
// components is consistent too, so non-minimal sets carry no information.
// Finding them is exactly minimal-hitting-set enumeration — the failed
// probes are the sets to hit, the feasible components the elements — which
// is why candidates are enumerated by branching on an uncovered probe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "boolnt/hypothesis.h"
#include "failures/failure_model.h"
#include "tomo/path_system.h"
#include "util/rng.h"

namespace rnt::boolnt {

/// Result of one multi-failure localization.
struct MultiLocalizationResult {
  /// True iff no probed path failed (the empty hypothesis explains it).
  bool no_failure = false;
  /// True iff enumeration stopped at the candidate cap.  `candidates` then
  /// holds the inclusion-minimal members of the hitting sets the search
  /// reached before the cap.  Each is still consistent with the
  /// observation, but the list is not a prefix of the full answer: the
  /// search can reach {a,c} before {c}, so a returned set may be
  /// non-minimal in the full answer, and minimal sets it never reached are
  /// missing.
  bool truncated = false;
  /// Inclusion-minimal consistent hypotheses of size <= max_failures, each
  /// a sorted component-id set, in lexicographic order.
  std::vector<std::vector<std::uint32_t>> candidates;

  bool exact() const { return candidates.size() == 1 && !no_failure; }
};

/// Default cap on the hitting sets one localization enumerates.
inline constexpr std::size_t kDefaultMaxCandidates = 4096;

/// Localizes from the outcome of probing `subset` under scenario v,
/// hypothesizing at most `max_failures` simultaneous component failures.
/// `max_candidates` caps the enumeration (sets `truncated` when hit).
MultiLocalizationResult localize_multi_failure(
    const tomo::PathSystem& system, const std::vector<std::size_t>& subset,
    const failures::FailureVector& v, const HypothesisSpace& space,
    std::size_t max_failures,
    std::size_t max_candidates = kDefaultMaxCandidates);

/// Aggregate multi-failure localization quality of a selection.
struct MultiLocalizationScore {
  std::size_t trials = 0;
  std::size_t exact = 0;      ///< Unique candidate == the visible truth.
  std::size_t ambiguous = 0;  ///< Visible truth among >1 candidates.
  std::size_t misled = 0;     ///< Visible truth not among the candidates.
  std::size_t invisible = 0;  ///< No probed path failed.
  double mean_candidates = 0;  ///< Mean candidate count when visible.

  double exact_fraction() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(exact) /
                             static_cast<double>(trials);
  }
  double hit_fraction() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(exact + ambiguous) /
                             static_cast<double>(trials);
  }
};

/// Injects `trials` failures of 1..max_failures components (trial t draws
/// 1 + (t mod min(max_failures, component count)) distinct components,
/// weighted by `component_weights` when non-empty, uniformly otherwise;
/// every trial localizes with the default candidate cap) and scores
/// localization against the *visible* truth — the injected components that
/// touch at least one probed path.  A truth whose visible part is not an
/// inclusion-minimal explanation of its own observation counts as misled:
/// Boolean observations genuinely cannot separate it from the smaller
/// explanation.  The probe–component incidence is built once for all
/// trials, so a trial costs its failed and surviving probes' component
/// lists plus the hitting-set search.
MultiLocalizationScore score_multi_localization(
    const tomo::PathSystem& system, const std::vector<std::size_t>& subset,
    const HypothesisSpace& space, std::size_t max_failures,
    std::size_t trials, Rng& rng,
    const std::vector<double>& component_weights = {});

}  // namespace rnt::boolnt
