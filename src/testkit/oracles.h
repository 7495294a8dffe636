// Brute-force reference oracles for the correctness harness.
//
// Everything here is deliberately naive: exhaustive enumeration and
// self-contained textbook elimination, sharing no code with the production
// engines in core/ and linalg/ so a bug cannot hide on both sides of a
// differential comparison.  All oracles are exponential and guarded — they
// exist only for the small instances testkit generates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "boolnt/localize.h"
#include "testkit/instance.h"
#include "util/rng.h"

namespace rnt::testkit {

/// Exact rational rank of an integer matrix: the suite's one rank
/// referee.  Self-contained (no linalg/) so it can referee every linalg
/// and engine rank path.
///
/// Fraction-free elimination modulo each prime of a fixed table of
/// distinct primes in (2^60, 2^61).  rank_p <= rank_Q for every p, and a
/// nonzero r x r minor D is lost mod p only if p divides D.  The table
/// prefix used has a product above the Hadamard bound prod ||row||_2 of
/// the largest possible minor, so not every prime in it can divide D and
/// the maximum of the modular ranks IS the rational rank — proven by the
/// bound, not left to chance.  Throws std::invalid_argument on ragged
/// rows and std::domain_error when the bound outgrows the table (never
/// at the sizes the suite ranks: the table covers ~960 bits).
std::size_t exact_rank(const std::vector<std::vector<std::int64_t>>& rows);

/// exact_rank of integer-valued doubles (the dense_rows() layout).  Throws
/// std::invalid_argument on a non-integer or non-finite entry, or one
/// outside the int64 range.
std::size_t exact_rank(const std::vector<std::vector<double>>& rows);

/// Dense 0/1 rows of the given paths (row i of the result is subset[i]).
std::vector<std::vector<double>> dense_rows(
    const TestInstance& instance, const std::vector<std::size_t>& subset);

/// Expected availability EA(q) = prod over q's links of (1 - p_l).
double path_ea(const TestInstance& instance, std::size_t path);

/// Exhaustive ER evaluator: enumerates all 2^links failure vectors once
/// (Eq. 4 verbatim) and answers ER queries for arbitrary path subsets
/// encoded as bitmasks.  Ranks of surviving-row sets are memoized, so a
/// sweep over many subsets of one instance computes each distinct row-set
/// rank once.  Requires links <= 20 and paths <= 63.
class ExhaustiveErTable {
 public:
  explicit ExhaustiveErTable(const TestInstance& instance);

  double er(std::uint64_t subset_mask) const;
  double er(const std::vector<std::size_t>& subset) const;

  std::size_t path_count() const { return rows_.size(); }

 private:
  std::size_t rank_of_mask(std::uint64_t rows_mask) const;

  std::vector<std::vector<std::int64_t>> rows_;  ///< Dense 0/1 path rows.
  std::vector<std::uint64_t> alive_;  ///< Per scenario: surviving-path mask.
  std::vector<double> prob_;          ///< Per scenario: P(v).
  mutable std::unordered_map<std::uint64_t, std::size_t> rank_memo_;
};

/// One-shot exhaustive ER of a subset (builds a table per call; use
/// ExhaustiveErTable directly when evaluating many subsets).
double exhaustive_er(const TestInstance& instance,
                     const std::vector<std::size_t>& subset);

/// An oracle-optimal selection.
struct OracleSelection {
  std::vector<std::size_t> paths;
  double objective = 0.0;
  double cost = 0.0;
};

/// Exhaustive optimal budgeted selection under exhaustive ER: enumerates
/// all 2^paths subsets with total cost within `budget` and returns a
/// maximizer (ties toward smaller subsets, then lexicographic, matching
/// core::exhaustive_optimum).  Requires paths <= 16.
OracleSelection exhaustive_best_selection(const TestInstance& instance,
                                          double budget);

/// Exhaustive optimum of the unit-cost matroid problem (Section IV-B):
/// among all linearly independent subsets of at most `max_paths` paths,
/// maximizes the modular objective sum of EA(q).  Requires paths <= 16.
OracleSelection exhaustive_best_independent_ea(const TestInstance& instance,
                                               std::size_t max_paths);

/// Brute-force multi-failure Boolean localization (the referee for
/// boolnt::localize_multi_failure, sharing no code with it): enumerates
/// ALL component sets of size <= max_failures, keeps those whose predicted
/// probe signature — path fails iff it carries a link of a chosen
/// component — equals the observed signature of `observed` over `subset`,
/// and filters to inclusion-minimal sets.  Returns sorted component-id
/// sets in lexicographic order.  Requires components <= 20.
std::vector<std::vector<std::uint32_t>> oracle_multi_localization(
    const TestInstance& instance, const std::vector<std::size_t>& subset,
    const std::vector<std::vector<std::uint32_t>>& component_links,
    const std::vector<bool>& observed, std::size_t max_failures);

/// Maps an observed failure vector to multi-failure candidate sets.
using MultiLocalizer = std::function<std::vector<std::vector<std::uint32_t>>(
    const std::vector<bool>& observed)>;

/// Replays boolnt::score_multi_localization's truth draws from `rng` —
/// trial t draws 1 + t mod min(max_failures, components) distinct
/// components, by `weights` when non-empty, uniformly otherwise — and
/// tallies each trial whose truth touches a probe of `subset` with the
/// candidates `localize` returns for the truth's failure vector.
/// Visibility and failure vectors come from `instance.path_links` and
/// `component_links` alone, so with oracle_multi_localization as
/// `localize` the replay shares no code with boolnt.
boolnt::MultiLocalizationScore replay_multi_localization_score(
    const TestInstance& instance, const std::vector<std::size_t>& subset,
    const std::vector<std::vector<std::uint32_t>>& component_links,
    std::size_t max_failures, std::size_t trials, Rng& rng,
    const std::vector<double>& weights, const MultiLocalizer& localize);

}  // namespace rnt::testkit
