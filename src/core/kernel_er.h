// Bit-packed scenario-rank kernel behind the ErEngine interface.
//
// KernelErEngine evaluates the same weighted scenario mixture as its
// ScenarioErEngine base, but replaces the per-scenario floating-point
// elimination with the linalg/bitrank machinery:
//
//  (a) every candidate path and every scenario's failed-link set are
//      packed once into 64-bit word masks over the *covered* links only
//      (those some candidate path crosses, renumbered in ascending link
//      order), so "does path q survive scenario v" is a handful of ANDs
//      and every GF(p) row, plane and scratch word below spans only
//      columns a row can touch;
//  (b) per evaluate() the surviving-row bitmask of each scenario is
//      deduplicated — scenarios that kill the same subset rows share one
//      rank computation — and ranks are memoized by surviving-path mask
//      across calls (mutex-guarded; the service shares engines between
//      worker threads), so re-evaluating a cached workload skips
//      elimination entirely;
//  (c) distinct masks are ranked by greedy independent-row collection on
//      the word-packed GF(2) basis, deferring to the floating-point basis
//      only for GF(2)-ambiguous rows (the odd-minor certificate in
//      linalg/bitrank.h makes the common case exact integer work),
//      optionally in parallel — rank work lands in disjoint slots, and
//      under KernelMode::kSliced up to 64 distinct masks advance per
//      masked word pass of the scenario-sliced GF(2)+GF(3) kernel
//      (linalg/slicedrank.h) instead of one elimination each — and
//      the final weighted sum reuses the deterministic chunked reduction
//      of the base class, so results are bitwise identical to
//      ScenarioErEngine::evaluate() and stable across thread counts.
//      (The tests referee these ranks with testkit::exact_rank, an exact
//      integer oracle outside the library.)
//
// The accumulator groups scenarios into equivalence classes by their
// full-candidate surviving-path mask (same mask => identical rank
// trajectory for the whole greedy run) and answers independence queries
// with an incremental GF(2) basis while it is exact — falling back to the
// floating-point basis only on the rare GF(2)-ambiguous row (see
// linalg/bitrank.h for why GF(2)-independence certifies rational
// independence exactly while the basis stays "synced").  The sliced
// accumulator also remembers, per (path, 64-class slice), the lanes where
// the path is already known dependent — a "dependent" float or memo
// verdict, or the path's own commit — and never asks about them again:
// a path in the span of the committed rows stays there as they grow.
//
// Integer slice primitives.  The service's shard verbs answer with the
// integer halves of the engine's computation over a scenario slice, and
// a client that holds every slice merges them without any float step of
// its own:
//
//  - slice_ranks() returns the exact integer surviving rank of each
//    scenario in a contiguous slice [begin, end).  Concatenated in
//    scenario order, the slices are scenario_ranks() of the subset.
//  - scenario_classes() is the deduplicated class structure the
//    accumulator walks, in global first-appearance order.
//  - make_shard_accumulator() is a slice-local accumulator whose
//    probe()/add() answers are one *bit* per scenario (survives AND
//    independent of the committed selection in its class basis).  A class
//    confined to identical masks walks the identical basis trajectory in
//    any slice, so summing class weights over those bits in global class
//    order reproduces KernelAccumulator::gain()/value() bitwise.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/expected_rank.h"
#include "core/mask_table.h"
#include "linalg/bitrank.h"

namespace rnt::core {

class KernelShardAccumulator;

/// Which rank kernel the engine runs.
///
///  - kScalar is the original per-scenario path: one GF(2) elimination per
///    distinct surviving mask, floating-point fallback per ambiguous row.
///  - kSliced packs one surviving-mask *instance per bit* and advances up
///    to 64 eliminations per masked word pass (linalg/slicedrank.h), with
///    a GF(3) side basis that certifies most rows GF(2) leaves ambiguous.
///  - kAuto resolves per engine: sliced when the scenario list is large
///    enough to occupy the lanes, scalar for tiny mixtures.
///
/// Both kernels produce bitwise-identical results (integer ranks feed the
/// same fixed reduction tree; accumulator verdicts agree row for row), so
/// the knob is purely a performance selector — which is what the
/// sliced-vs-scenario differential check enforces.
enum class KernelMode : std::uint8_t {
  kAuto = 0,
  kSliced = 1,
  kScalar = 2,
};

const char* kernel_mode_name(KernelMode mode);

/// Parses "auto" | "sliced" | "scalar" (throws otherwise).
KernelMode parse_kernel_mode(const std::string& name);

/// Scenario equivalence classes by full-candidate surviving-path mask, in
/// first-appearance order over the scenario list.  Two scenarios with the
/// same mask keep the same rows of every subset alive, so one basis (and
/// one summed weight) stands in for all of them.
struct ScenarioClasses {
  /// Surviving-path mask per class, over all candidate paths.
  std::vector<std::vector<std::uint64_t>> masks;
  /// Total scenario weight per class, accumulated in scenario order.
  std::vector<double> weights;
  /// First scenario index exhibiting each class.
  std::vector<std::size_t> representative;
  /// Scenario index -> class id.
  std::vector<std::uint32_t> class_of;

  std::size_t count() const { return masks.size(); }
};

class KernelErEngine : public ScenarioErEngine {
 public:
  /// Same contract as ScenarioErEngine: an explicit weighted scenario list.
  KernelErEngine(const tomo::PathSystem& system,
                 std::vector<failures::FailureVector> scenarios,
                 std::vector<double> weights, std::string name);

  /// Monte Carlo factory mirroring MonteCarloEr: identical sampler and
  /// name ("MC-<runs>"), so a kernel engine seeded the same way evaluates
  /// the exact same mixture scenario-for-scenario.
  static KernelErEngine monte_carlo(const tomo::PathSystem& system,
                                    const failures::FailureModel& model,
                                    std::size_t runs, Rng& rng);

  /// Exhaustive factory mirroring ExactEr (guarded by max_links).
  static KernelErEngine exact(const tomo::PathSystem& system,
                              const failures::FailureModel& model,
                              std::size_t max_links = 20);

  /// Movable so factory results can be wrapped (e.g. make_unique); the
  /// rank memo moves along, the mutex is freshly constructed.  Moving is
  /// a construction-time affair — never move an engine other threads see.
  KernelErEngine(KernelErEngine&& other) noexcept;

  double evaluate(const std::vector<std::size_t>& subset) const override;
  double evaluate_parallel(const std::vector<std::size_t>& subset,
                           std::size_t threads = 0) const override;
  std::unique_ptr<ErAccumulator> make_accumulator() const override;

  /// Kernel selection (see KernelMode).  Set before sharing the engine
  /// across threads — the mode is read unguarded on every evaluate.
  void set_kernel_mode(KernelMode mode) { kernel_mode_ = mode; }
  KernelMode kernel_mode() const { return kernel_mode_; }

  /// kAuto resolved for this engine: sliced once the mixture is big
  /// enough to occupy the 64 instance lanes, scalar below that.
  static constexpr std::size_t kSlicedAutoThreshold = 8;
  KernelMode resolved_kernel_mode() const;

  /// Number of memoized ranks the given kernel has produced (kAuto reads
  /// the engine's resolved mode).  The memo is partitioned per kernel so
  /// one kernel's cached answers can never stand in for the other's —
  /// the cross-kernel cache-isolation regression pins this.
  std::size_t rank_memo_entries(KernelMode mode) const;

  /// Integer surviving rank per scenario, in scenario order — the hook the
  /// kernel≡scenario differential check compares against
  /// PathSystem::surviving_rank.
  std::vector<std::size_t> scenario_ranks(
      const std::vector<std::size_t>& subset) const;

  /// Integer surviving rank for scenarios [begin, end) only (position i of
  /// the result is scenario begin + i) — the shard-eval primitive.
  /// Shares the cross-call rank memo with the full evaluate paths.
  std::vector<std::size_t> slice_ranks(const std::vector<std::size_t>& subset,
                                       std::size_t begin,
                                       std::size_t end) const;

  /// The accumulator's scenario-class structure, built once on first use
  /// and cached (thread-safe; the engine is shared const by the service).
  const ScenarioClasses& scenario_classes() const;

  /// Slice-local accumulator behind the shard-sweep verb; see
  /// KernelShardAccumulator.  Requires begin <= end <= scenario_count().
  std::unique_ptr<KernelShardAccumulator> make_shard_accumulator(
      std::size_t begin, std::size_t end) const;

 private:
  friend class KernelAccumulator;
  friend class SlicedKernelAccumulator;
  friend class KernelShardAccumulator;

  /// The deterministic chunked reduction evaluate() applies to its full
  /// per-scenario rank table: the float summation tree is fixed by
  /// scenario index alone.
  double reduce_ranks(const std::vector<std::size_t>& ranks) const;

  /// Shared core of the evaluate paths: packs the subset rows, dedups the
  /// per-scenario surviving masks over scenarios [begin, end), ranks each
  /// distinct mask (in parallel when threads > 1) and expands back to a
  /// per-scenario rank table for the range.
  std::vector<std::size_t> ranks_in_range(
      const std::vector<std::size_t>& subset, std::size_t threads,
      std::size_t begin, std::size_t end) const;

  /// All candidate paths, packed by covered link: column j is the j-th
  /// lowest link some candidate path crosses.  Every bit basis and bit row
  /// of the kernel spans these columns; the float tier keeps link ids.
  linalg::BitRows path_bits_;
  /// All scenarios' failed links, packed over the same covered columns.  A
  /// failed link no path crosses has no column: it kills no path.
  linalg::BitRows failed_bits_;

  KernelMode kernel_mode_ = KernelMode::kAuto;

  /// Cross-call rank memo keyed by the surviving path-id set: a bitmask
  /// over all candidate paths, stored as fixed-width words in a
  /// MaskTable whose hash the caller supplies.  The rank of a surviving
  /// row set depends only on which paths survive, so the memo is valid
  /// across different subsets and calls.  Guarded by a mutex: the engine
  /// is shared const across service worker threads.
  struct RankMemo {
    MaskTable masks;
    std::vector<std::uint32_t> ranks;  ///< Rank per masks entry id.
  };

  /// One memo per kernel ([0] scalar, [1] sliced): the kernels agree on
  /// every rank by construction, but partitioning keeps a defect in one
  /// kernel from hiding behind the other's cached answers — an engine
  /// switched between modes re-derives, never cross-reads.
  mutable std::mutex memo_mutex_;
  mutable std::array<RankMemo, 2> rank_memo_;

  /// Lazily built scenario-class structure (heap-allocated so class masks
  /// stay at stable addresses across engine moves).
  mutable std::mutex classes_mutex_;
  mutable std::unique_ptr<ScenarioClasses> classes_;
};

/// A KernelAccumulator restricted to the scenario slice [begin, end):
/// the same class-basis machinery, but the answers are packed bits — bit
/// i of a probe()/add() reply is scenario begin + i, set iff the path
/// survives that scenario AND is independent of the committed selection
/// in the scenario's class basis.  Bits are exact {0, 1} integers, so
/// summing class weights over every slice's bits in fixed global class
/// order reproduces the whole-range accumulator's gain() and value()
/// bitwise, however the scenarios are sliced.
/// Always runs the scalar per-class bases regardless of the engine's
/// KernelMode — its replies are exact {0, 1} bits either way, and the
/// kernels agree on every verdict, so merged sums are unaffected.
/// Not thread-safe; callers (the service's sweep sessions) serialize.
class KernelShardAccumulator {
 public:
  ~KernelShardAccumulator();
  KernelShardAccumulator(KernelShardAccumulator&&) noexcept;

  std::size_t begin() const;
  std::size_t end() const;

  /// Independence bits for `path` against the committed selection; does
  /// not change observable state (exact bases may materialize lazily).
  std::vector<std::uint64_t> probe(std::size_t path) const;

  /// Commits `path` and returns the bits at commit time (which classes
  /// accepted it as a new independent row).
  std::vector<std::uint64_t> add(std::size_t path);

 private:
  friend class KernelErEngine;
  struct Impl;
  explicit KernelShardAccumulator(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace rnt::core
