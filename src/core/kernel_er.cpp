#include "core/kernel_er.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/gain_memo.h"
#include "failures/scenario.h"
#include "linalg/elimination.h"
#include "linalg/slicedrank.h"

namespace rnt::core {

namespace {

std::size_t resolve_threads(std::size_t threads) {
  if (threads != 0) return threads;
  return std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
}

/// rank_memo_ index for a resolved kernel ([0] scalar, [1] sliced).
std::size_t memo_index(KernelMode resolved) {
  return resolved == KernelMode::kSliced ? 1 : 0;
}

/// Words of a bitmask over `bits` positions (at least one).
std::size_t words_for(std::size_t bits) {
  return bits == 0 ? 1 : (bits + 63) / 64;
}

/// Rank of the masked subset rows by greedy independent-row collection:
/// word-packed GF(2) reduction answers the common case (a GF(2)-
/// independent row is rationally independent while every kept row was
/// GF(2)-independent — the odd-minor certificate in linalg/bitrank.h),
/// and only GF(2)-ambiguous rows touch a lazily materialized floating-
/// point basis.  Any maximal independent subset has size rank, so this
/// equals the full elimination PathSystem::surviving_rank runs — without
/// the O(rows * cols * rank) float sweep when the certificate holds.
std::size_t hybrid_rank(const tomo::PathSystem& system,
                        const std::vector<std::size_t>& subset,
                        const linalg::BitRows& sub,
                        std::span<const std::uint64_t> keep) {
  linalg::Gf2Basis gf2(sub.cols());
  std::unique_ptr<linalg::IncrementalBasis> exact;
  std::vector<std::size_t> kept;  // Subset positions committed so far.
  bool synced = true;
  std::size_t rank = 0;
  auto materialize = [&] {
    if (!exact) {
      exact = std::make_unique<linalg::IncrementalBasis>(
          system.link_count(), linalg::kDefaultTolerance,
          /*track_combinations=*/false);
      for (std::size_t k : kept) exact->try_add(system.unit_row(subset[k]));
    }
  };
  for (std::size_t i = 0; i < subset.size(); ++i) {
    if (((keep[i / 64] >> (i % 64)) & 1u) == 0) continue;
    if (synced && gf2.try_add(sub.row(i))) {
      ++rank;
      kept.push_back(i);
      if (exact) exact->try_add(system.unit_row(subset[i]));
      continue;
    }
    materialize();
    if (exact->try_add(system.unit_row(subset[i]))) {
      ++rank;
      kept.push_back(i);
      synced = false;  // The GF(2) basis lost a dimension.
    }
  }
  return rank;
}

/// The per-class basis state shared by the single-node accumulator and
/// the slice-local shard accumulator: an incremental GF(2) basis that is
/// authoritative while exact ("synced"), the committed independent rows,
/// and the lazily materialized floating-point fallback.  The mask is
/// borrowed from the engine's ScenarioClasses (stable heap storage).
struct ClassBasis {
  ClassBasis(const std::vector<std::uint64_t>& mask, std::size_t cols)
      : survive_mask(&mask), gf2(cols) {}

  bool survives(std::size_t path) const {
    return (((*survive_mask)[path / 64] >> (path % 64)) & 1u) != 0;
  }

  const std::vector<std::uint64_t>* survive_mask;  ///< Over candidate paths.
  linalg::Gf2Basis gf2;
  bool synced = true;
  std::vector<std::size_t> added;  ///< Committed independent paths.
  std::unique_ptr<linalg::IncrementalBasis> exact;
};

/// Materializes the floating-point basis from the committed rows on the
/// first ambiguous query (identical state to a ScenarioAccumulator basis
/// for this class: dependent rows never entered either).
linalg::IncrementalBasis& ensure_exact(const tomo::PathSystem& system,
                                       ClassBasis& c) {
  if (!c.exact) {
    c.exact = std::make_unique<linalg::IncrementalBasis>(
        system.link_count(), linalg::kDefaultTolerance,
        /*track_combinations=*/false);
    for (std::size_t p : c.added) c.exact->try_add(system.unit_row(p));
  }
  return *c.exact;
}

/// Non-committing independence query against the committed selection.
/// While synced, GF(2)-independence certifies rational independence
/// (odd-minor argument, linalg/bitrank.h); GF(2)-dependence — and any
/// query after a desync — defers to the exact basis.
bool query_independent(const tomo::PathSystem& system, ClassBasis& c,
                       std::span<const std::uint64_t> bits,
                       linalg::UnitRow row) {
  if (c.synced && c.gf2.is_independent(bits)) return true;
  return ensure_exact(system, c).is_independent(row);
}

/// Commits `path` into the class basis; returns whether it entered as a
/// new independent row.  Must be called with c.survives(path) true.
bool commit_path(const tomo::PathSystem& system, ClassBasis& c,
                 std::size_t path, std::span<const std::uint64_t> bits,
                 linalg::UnitRow row) {
  bool independent = false;
  if (c.synced) {
    if (c.gf2.try_add(bits)) {
      independent = true;
      if (c.exact) c.exact->try_add(row);
    } else {
      independent = ensure_exact(system, c).try_add(row);
      // A GF(2)-dependent but rationally independent row: the GF(2)
      // basis lost a dimension and stops being authoritative.
      if (independent) c.synced = false;
    }
  } else {
    independent = ensure_exact(system, c).try_add(row);
  }
  if (independent) c.added.push_back(path);
  return independent;
}

}  // namespace

const char* kernel_mode_name(KernelMode mode) {
  switch (mode) {
    case KernelMode::kAuto:
      return "auto";
    case KernelMode::kSliced:
      return "sliced";
    case KernelMode::kScalar:
      return "scalar";
  }
  return "unknown";
}

KernelMode parse_kernel_mode(const std::string& name) {
  if (name.empty() || name == "auto") return KernelMode::kAuto;
  if (name == "sliced") return KernelMode::kSliced;
  if (name == "scalar") return KernelMode::kScalar;
  throw std::invalid_argument("unknown kernel mode '" + name +
                              "' (expected auto, sliced or scalar)");
}

KernelErEngine::KernelErEngine(const tomo::PathSystem& system,
                               std::vector<failures::FailureVector> scenarios,
                               std::vector<double> weights, std::string name)
    : ScenarioErEngine(system, std::move(scenarios), std::move(weights),
                       std::move(name)) {
  for (RankMemo& memo : rank_memo_) {
    memo.masks = MaskTable(words_for(system.path_count()));
  }
  // Covered links, ascending, become columns 0..k-1.  A link no candidate
  // path crosses is zero in every path row, so dropping it changes no
  // GF(p) verdict, and a failure there never decides whether a path
  // survives.
  constexpr std::uint32_t kUncovered = ~std::uint32_t{0};
  std::vector<std::uint32_t> column_of(system.link_count(), kUncovered);
  for (std::size_t p = 0; p < system.path_count(); ++p) {
    for (const graph::EdgeId l : system.path(p).links) column_of[l] = 0;
  }
  std::uint32_t covered = 0;
  for (std::uint32_t& col : column_of) {
    if (col != kUncovered) col = covered++;
  }
  path_bits_ = linalg::BitRows(covered);
  failed_bits_ = linalg::BitRows(covered);
  std::vector<std::uint32_t> cols;
  path_bits_.reserve(system.path_count());
  for (std::size_t p = 0; p < system.path_count(); ++p) {
    cols.clear();
    for (const graph::EdgeId l : system.path(p).links) {
      cols.push_back(column_of[l]);
    }
    path_bits_.append_indices(cols);
  }
  failed_bits_.reserve(scenario_count());
  for (const failures::FailureVector& v : this->scenarios()) {
    cols.clear();
    for (std::size_t l = 0; l < v.size(); ++l) {
      if (v[l] && column_of[l] != kUncovered) cols.push_back(column_of[l]);
    }
    failed_bits_.append_indices(cols);
  }
}

KernelErEngine::KernelErEngine(KernelErEngine&& other) noexcept
    : ScenarioErEngine(std::move(other)),
      path_bits_(std::move(other.path_bits_)),
      failed_bits_(std::move(other.failed_bits_)),
      kernel_mode_(other.kernel_mode_),
      rank_memo_(std::move(other.rank_memo_)),
      classes_(std::move(other.classes_)) {}

KernelMode KernelErEngine::resolved_kernel_mode() const {
  if (kernel_mode_ != KernelMode::kAuto) return kernel_mode_;
  return scenario_count() >= kSlicedAutoThreshold ? KernelMode::kSliced
                                                  : KernelMode::kScalar;
}

std::size_t KernelErEngine::rank_memo_entries(KernelMode mode) const {
  const KernelMode resolved =
      mode == KernelMode::kAuto ? resolved_kernel_mode() : mode;
  const std::lock_guard<std::mutex> lock(memo_mutex_);
  return rank_memo_[memo_index(resolved)].masks.size();
}

KernelErEngine KernelErEngine::monte_carlo(const tomo::PathSystem& system,
                                           const failures::FailureModel& model,
                                           std::size_t runs, Rng& rng) {
  if (runs == 0) {
    throw std::invalid_argument("KernelErEngine: need at least one run");
  }
  if (model.link_count() != system.link_count()) {
    throw std::invalid_argument("KernelErEngine: link count mismatch");
  }
  return KernelErEngine(
      system, failures::sample_scenarios(model, runs, rng),
      std::vector<double>(runs, 1.0 / static_cast<double>(runs)),
      "MC-" + std::to_string(runs));
}

KernelErEngine KernelErEngine::exact(const tomo::PathSystem& system,
                                     const failures::FailureModel& model,
                                     std::size_t max_links) {
  if (model.link_count() != system.link_count()) {
    throw std::invalid_argument("KernelErEngine: link count mismatch");
  }
  std::vector<failures::FailureVector> scenarios;
  std::vector<double> weights;
  failures::enumerate_scenarios(
      model,
      [&](const failures::FailureVector& v, double p) {
        scenarios.push_back(v);
        weights.push_back(p);
      },
      max_links);
  return KernelErEngine(system, std::move(scenarios), std::move(weights),
                        "ExactER");
}

std::vector<std::size_t> KernelErEngine::ranks_in_range(
    const std::vector<std::size_t>& subset, std::size_t threads,
    std::size_t begin, std::size_t end) const {
  const std::size_t n = end - begin;
  std::vector<std::size_t> ranks(n, 0);
  if (n == 0) return ranks;

  // Pack the subset rows once; bit i of a keep mask is subset position i.
  linalg::BitRows sub(path_bits_.cols());
  sub.reserve(subset.size());
  for (std::size_t q : subset) sub.append_words(path_bits_.row(q));
  const std::size_t keep_words = words_for(subset.size());

  // Surviving-row bitmask per scenario, deduplicated on the surviving
  // path-id set: scenarios that keep the same rows alive share one rank
  // computation, and the same key indexes the cross-call memo — the rank
  // of a surviving set does not depend on which subset it came from, nor
  // on the scenario range it was encountered in.  Distinct set d is entry
  // d of `ids`; its subset-position mask, for ranking, is keep_of(d).
  std::vector<std::uint32_t> mask_id(n, 0);
  MaskTable ids(words_for(system_.path_count()));
  std::vector<std::uint64_t> keeps;
  std::vector<std::uint64_t> keep(keep_words);
  std::vector<std::uint64_t> key(ids.words());
  for (std::size_t s = begin; s < end; ++s) {
    std::fill(keep.begin(), keep.end(), 0);
    std::fill(key.begin(), key.end(), 0);
    const auto failed = failed_bits_.row(s);
    for (std::size_t i = 0; i < subset.size(); ++i) {
      if (linalg::disjoint(path_bits_.row(subset[i]), failed)) {
        keep[i / 64] |= std::uint64_t{1} << (i % 64);
        key[subset[i] / 64] |= std::uint64_t{1} << (subset[i] % 64);
      }
    }
    const auto [id, inserted] = ids.insert(key, mask_hash(key));
    if (inserted) keeps.insert(keeps.end(), keep.begin(), keep.end());
    mask_id[s - begin] = static_cast<std::uint32_t>(id);
  }
  const auto keep_of = [&](std::size_t d) {
    return std::span<const std::uint64_t>(keeps.data() + d * keep_words,
                                          keep_words);
  };

  // Consult the memo first, then rank only the misses — integer work on
  // disjoint slots, so the parallel split cannot change any result.  The
  // memo is partitioned by kernel: a mode switch re-derives rather than
  // reading ranks the other kernel produced.
  const KernelMode mode = resolved_kernel_mode();
  RankMemo& memo = rank_memo_[memo_index(mode)];
  std::vector<std::size_t> rank_of(ids.size(), 0);
  std::vector<std::size_t> missing;
  {
    const std::lock_guard<std::mutex> lock(memo_mutex_);
    for (std::size_t d = 0; d < ids.size(); ++d) {
      const std::size_t hit = memo.masks.find(ids.key(d), ids.hash(d));
      if (hit != MaskTable::npos) {
        rank_of[d] = memo.ranks[hit];
      } else {
        missing.push_back(d);
      }
    }
  }
  if (mode == KernelMode::kSliced) {
    // Misses advance 64 per sliced elimination: lane j of group g is miss
    // g * 64 + j, its per-row alive bits gathered from the keep mask.
    const std::size_t groups = (missing.size() + 63) / 64;
    auto rank_group = [&](std::size_t g) {
      const std::size_t base = g * 64;
      const std::size_t lanes = std::min<std::size_t>(64, missing.size() - base);
      std::vector<std::uint64_t> alive(subset.size(), 0);
      for (std::size_t j = 0; j < lanes; ++j) {
        const auto kp = keep_of(missing[base + j]);
        for (std::size_t i = 0; i < subset.size(); ++i) {
          alive[i] |= ((kp[i / 64] >> (i % 64)) & std::uint64_t{1}) << j;
        }
      }
      // Ambiguous rows resolve through the same IncrementalBasis
      // machinery as hybrid_rank, so sliced and scalar ranks agree
      // bit-for-bit (the golden CSVs and differential checks pin this).
      const auto lane_ranks = linalg::sliced_ranks(sub, alive, lanes);
      for (std::size_t j = 0; j < lanes; ++j) {
        rank_of[missing[base + j]] = lane_ranks[j];
      }
    };
    const std::size_t workers = std::min(resolve_threads(threads), groups);
    if (workers <= 1) {
      for (std::size_t g = 0; g < groups; ++g) rank_group(g);
    } else {
      std::atomic<std::size_t> next{0};
      auto work = [&] {
        for (;;) {
          const std::size_t g = next.fetch_add(1, std::memory_order_relaxed);
          if (g >= groups) return;
          rank_group(g);
        }
      };
      std::vector<std::thread> pool;
      pool.reserve(workers - 1);
      for (std::size_t t = 1; t < workers; ++t) pool.emplace_back(work);
      work();
      for (std::thread& w : pool) w.join();
    }
  } else {
    const std::size_t workers =
        std::min(resolve_threads(threads), missing.size());
    if (workers <= 1) {
      for (std::size_t d : missing) {
        rank_of[d] = hybrid_rank(system_, subset, sub, keep_of(d));
      }
    } else {
      std::atomic<std::size_t> next{0};
      auto work = [&] {
        for (;;) {
          const std::size_t m = next.fetch_add(1, std::memory_order_relaxed);
          if (m >= missing.size()) return;
          const std::size_t d = missing[m];
          rank_of[d] = hybrid_rank(system_, subset, sub, keep_of(d));
        }
      };
      std::vector<std::thread> pool;
      pool.reserve(workers - 1);
      for (std::size_t t = 1; t < workers; ++t) pool.emplace_back(work);
      work();
      for (std::thread& w : pool) w.join();
    }
  }
  if (!missing.empty()) {
    const std::lock_guard<std::mutex> lock(memo_mutex_);
    for (std::size_t d : missing) {
      // Another thread may have ranked the same set meanwhile; the first
      // entry stands (the ranks agree).
      if (memo.masks.insert(ids.key(d), ids.hash(d)).second) {
        memo.ranks.push_back(static_cast<std::uint32_t>(rank_of[d]));
      }
    }
  }

  for (std::size_t s = 0; s < n; ++s) ranks[s] = rank_of[mask_id[s]];
  return ranks;
}

double KernelErEngine::reduce_ranks(
    const std::vector<std::size_t>& ranks) const {
  const std::size_t n = scenario_count();
  if (ranks.size() != n) {
    throw std::invalid_argument(
        "KernelErEngine::reduce_ranks: need one rank per scenario");
  }
  const std::vector<double>& w = weights();
  double er = 0.0;
  for (std::size_t begin = 0; begin < n; begin += kEvalChunk) {
    const std::size_t end = std::min(begin + kEvalChunk, n);
    double acc = 0.0;
    for (std::size_t s = begin; s < end; ++s) {
      if (w[s] == 0.0) continue;
      acc += w[s] * static_cast<double>(ranks[s]);
    }
    er += acc;
  }
  return er;
}

double KernelErEngine::evaluate(const std::vector<std::size_t>& subset) const {
  return reduce_ranks(ranks_in_range(subset, 1, 0, scenario_count()));
}

double KernelErEngine::evaluate_parallel(const std::vector<std::size_t>& subset,
                                         std::size_t threads) const {
  return reduce_ranks(
      ranks_in_range(subset, resolve_threads(threads), 0, scenario_count()));
}

std::vector<std::size_t> KernelErEngine::scenario_ranks(
    const std::vector<std::size_t>& subset) const {
  return ranks_in_range(subset, 1, 0, scenario_count());
}

std::vector<std::size_t> KernelErEngine::slice_ranks(
    const std::vector<std::size_t>& subset, std::size_t begin,
    std::size_t end) const {
  if (begin > end || end > scenario_count()) {
    throw std::invalid_argument("KernelErEngine::slice_ranks: bad range");
  }
  return ranks_in_range(subset, 1, begin, end);
}

const ScenarioClasses& KernelErEngine::scenario_classes() const {
  const std::lock_guard<std::mutex> lock(classes_mutex_);
  if (!classes_) {
    auto sc = std::make_unique<ScenarioClasses>();
    const std::size_t paths = system_.path_count();
    MaskTable ids(words_for(paths));
    std::vector<std::uint64_t> mask(ids.words());
    const std::vector<double>& w = weights();
    sc->class_of.resize(scenario_count(), 0);
    for (std::size_t s = 0; s < scenario_count(); ++s) {
      std::fill(mask.begin(), mask.end(), 0);
      const auto failed = failed_bits_.row(s);
      for (std::size_t p = 0; p < paths; ++p) {
        if (linalg::disjoint(path_bits_.row(p), failed)) {
          mask[p / 64] |= std::uint64_t{1} << (p % 64);
        }
      }
      const auto [id, inserted] = ids.insert(mask, mask_hash(mask));
      if (inserted) {
        sc->masks.push_back(mask);
        sc->weights.push_back(0.0);
        sc->representative.push_back(s);
      }
      sc->weights[id] += w[s];
      sc->class_of[s] = static_cast<std::uint32_t>(id);
    }
    classes_ = std::move(sc);
  }
  return *classes_;
}

// ---------------------------------------------------------------------------
// Accumulator
// ---------------------------------------------------------------------------

/// Scenario classes keyed by the full-candidate surviving-path mask: two
/// scenarios with the same mask keep the same rows of every subset alive,
/// so their per-scenario bases walk the identical trajectory through the
/// whole greedy run — one basis with the summed weight stands in for all
/// of them.  Independence queries run on the word-packed GF(2) basis while
/// it is exact (every committed row GF(2)-independent: "synced"), and fall
/// back to the floating-point basis on the rare ambiguous row.
class KernelAccumulator : public ErAccumulator {
 public:
  explicit KernelAccumulator(const KernelErEngine& engine)
      : engine_(engine),
        system_(engine.system_),
        classes_info_(engine.scenario_classes()),
        memo_(engine.system_.path_count()) {
    classes_.reserve(classes_info_.count());
    for (const auto& mask : classes_info_.masks) {
      classes_.emplace_back(mask, engine.path_bits_.cols());
    }
  }

  double gain(std::size_t path) const override {
    return memo_.get(path, [&] {
      const auto bits = engine_.path_bits_.row(path);
      const auto row = system_.unit_row(path);
      double g = 0.0;
      for (std::size_t c = 0; c < classes_.size(); ++c) {
        if (!classes_[c].survives(path)) continue;
        if (query_independent(system_, classes_[c], bits, row)) {
          g += classes_info_.weights[c];
        }
      }
      return g;
    });
  }

  void add(std::size_t path) override {
    const auto bits = engine_.path_bits_.row(path);
    const auto row = system_.unit_row(path);
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      if (!classes_[c].survives(path)) continue;
      if (commit_path(system_, classes_[c], path, bits, row)) {
        value_ += classes_info_.weights[c];
      }
    }
    memo_.invalidate();
  }

  double value() const override { return value_; }
  std::size_t gain_computations() const override {
    return memo_.computations();
  }

 private:
  const KernelErEngine& engine_;
  const tomo::PathSystem& system_;
  const ScenarioClasses& classes_info_;
  /// gain() is logically const but materializes exact bases lazily.
  mutable std::vector<ClassBasis> classes_;
  GainMemo memo_;
  double value_ = 0.0;
};

/// The sliced counterpart of KernelAccumulator: identical class
/// structure, verdicts and float summation order, but the per-class
/// GF(2) bases are packed 64 classes per linalg::SlicedBasis, so one
/// masked reduce pass answers a whole slice of independence queries.
/// Classes map to lanes in class order (class c = bit c % 64 of slice
/// c / 64); per-slice synced words play the per-class `synced` flag's
/// role, per field:
///
///  - a lane with a nonzero remainder over a synced field is certified
///    independent (the one-sided certificate in linalg/slicedrank.h) —
///    GF(2)-certified lanes are exactly the rows the scalar accumulator
///    certifies, and GF(3)-certified lanes are rows the scalar path
///    resolves through the float basis, whose verdict (independent)
///    matches the certificate;
///  - a surviving lane with no certificate takes the same float-basis
///    path as the scalar accumulator, materialized from the identical
///    committed-row list, so its verdict is bit-for-bit the same;
///  - a committed row that reduced to zero over a synced field desyncs
///    that field's lane, mirroring the scalar `synced = false` rule.
///
/// Float fallback state is shared across lanes whose committed-row
/// histories coincide (LaneGroup): identical history means identical
/// basis means identical verdict, so one float resolution per group
/// replaces the scalar accumulator's one per class — where most of its
/// add/gain time goes.  Groups in turn share one append-only FloatTrunk:
/// a group's basis is the trunk's first `brank` rows, so a split is a
/// pointer copy (appends never disturb a shorter prefix), a dependent
/// verdict is a non-mutating prefix reduction, and a group whose next
/// committed row already sits at its trunk position adopts the sibling's
/// append instead of re-reducing it.  The sharing changes nothing
/// observable; it only deduplicates arithmetic the scalar path repeats.
///
/// The dependent side is remembered instead of re-proved: once a path
/// lies in the span of a class's committed rows it stays there as the
/// selection grows (rank is submodular), so a lane whose float or memo
/// verdict came back "dependent", and every lane a committed path
/// survives in, is masked out of that path's later gain() and add()
/// calls.  The skipped verdicts are the ones the float tier would have
/// returned, so nothing observable changes.  This is where the scalar
/// path spends most of its late sweep: re-proving dependence.
///
/// Gains and value() sum class weights in ascending class order — the
/// scalar accumulator's order — so the float sums are bitwise identical.
class SlicedKernelAccumulator : public ErAccumulator {
 public:
  explicit SlicedKernelAccumulator(const KernelErEngine& engine)
      : engine_(engine),
        system_(engine.system_),
        classes_info_(engine.scenario_classes()),
        memo_(engine.system_.path_count()) {
    const std::size_t n = classes_info_.count();
    const std::size_t slices = (n + 63) / 64;
    bases_.reserve(slices);
    groups_.resize(slices);
    for (std::size_t k = 0; k < slices; ++k) {
      bases_.emplace_back(engine.path_bits_.cols());
      const std::size_t lanes = std::min<std::size_t>(64, n - k * 64);
      LaneGroup all;
      all.mask = lanes == 64 ? ~std::uint64_t{0}
                             : ((std::uint64_t{1} << lanes) - 1);
      all.words.assign(words_for(system_.path_count()), 0);
      // Root trunk up front: every group descends from this one by
      // splitting, so the whole slice shares one append-only chain and
      // a late-materializing group adopts the prefix its siblings
      // already reduced instead of rebuilding it.
      all.trunk = std::make_shared<FloatTrunk>(system_.link_count());
      groups_[k].push_back(std::move(all));
    }
    synced2_.assign(slices, ~std::uint64_t{0});
    synced3_.assign(slices, ~std::uint64_t{0});
    const std::size_t paths = system_.path_count();
    // Transpose the class survive masks once: open_[path * slices + k]
    // starts with bit j = "path survives class k*64+j", so the per-query
    // gather is a single load instead of 64 mask probes.
    open_.assign(paths * slices, 0);
    for (std::size_t c = 0; c < n; ++c) {
      const auto& mask = classes_info_.masks[c];
      const std::uint64_t bit = std::uint64_t{1} << (c % 64);
      const std::size_t k = c / 64;
      for (std::size_t p = 0; p < paths; ++p) {
        if (((mask[p / 64] >> (p % 64)) & 1u) != 0) {
          open_[p * slices + k] |= bit;
        }
      }
    }
    slices_ = slices;
  }

  double gain(std::size_t path) const override {
    return memo_.get(path, [&] {
      const auto bits = engine_.path_bits_.row(path);
      const auto row = system_.unit_row(path);
      const std::size_t n = classes_info_.count();
      double g = 0.0;
      for (std::size_t k = 0; k * 64 < n; ++k) {
        const std::size_t base = k * 64;
        // Lanes already known dependent are out of open_: their verdict
        // could only ever say "dependent" again.
        std::uint64_t& open = open_[path * slices_ + k];
        const std::uint64_t survive = open;
        if (survive == 0) continue;
        // GF(2) first; the ~14x costlier GF(3) pass only runs for lanes
        // GF(2) left unresolved.  certified is identical to the joint
        // reduce: nz2 | (nz3 & ~nz2) == nz2 | nz3.
        std::uint64_t certified =
            bases_[k].reduce(bits, survive & synced2_[k], 0).nonzero2;
        const std::uint64_t alive3 = survive & synced3_[k] & ~certified;
        if (alive3 != 0) {
          certified |= bases_[k].reduce(bits, 0, alive3).nonzero3;
        }
        std::uint64_t indep = certified;
        const std::uint64_t ambiguous = survive & ~certified;
        if (ambiguous != 0) {
          for (LaneGroup& grp : groups_[k]) {
            const std::uint64_t sub = grp.mask & ambiguous;
            if (sub == 0) continue;
            if (memo_verdict(grp, path, row)) indep |= sub;
          }
          open &= ~(ambiguous & ~indep);
        }
        for (std::uint64_t m = survive; m != 0; m &= m - 1) {
          const std::size_t j = std::countr_zero(m);
          if (((indep >> j) & 1u) != 0) g += classes_info_.weights[base + j];
        }
      }
      return g;
    });
  }

  void add(std::size_t path) override {
    const auto bits = engine_.path_bits_.row(path);
    const auto row = system_.unit_row(path);
    const std::size_t n = classes_info_.count();
    for (std::size_t k = 0; k * 64 < n; ++k) {
      const std::size_t base = k * 64;
      // Known-dependent lanes reject the row (see gain()).  Once
      // committed, the path is dependent in every lane it survives in.
      const std::uint64_t survive = std::exchange(open_[path * slices_ + k], 0);
      if (survive == 0) continue;
      // Joint reduce: install() below needs both remainders in scratch.
      const auto red = bases_[k].reduce(bits, survive & synced2_[k],
                                        survive & synced3_[k]);
      std::uint64_t accept = red.nonzero2 | red.nonzero3;
      const std::uint64_t ambiguous = survive & ~accept;
      if (ambiguous != 0) {
        for (LaneGroup& grp : groups_[k]) {
          const std::uint64_t sub = grp.mask & ambiguous;
          if (sub == 0) continue;
          // Verdicts never mutate the trunk (an accepted row is
          // re-reduced by the next catch_up instead), so the split
          // below can hand both halves the same trunk view.
          if (memo_verdict(grp, path, row)) accept |= sub;
        }
      }
      for (std::uint64_t m = accept; m != 0; m &= m - 1) {
        const std::size_t j = std::countr_zero(m);
        value_ += classes_info_.weights[base + j];
      }
      // Split groups on the accept boundary: accepted lanes extend their
      // history with this path, the rest keep the old one.  Both halves
      // keep sharing the trunk and its prefix view.
      const std::size_t n_groups = groups_[k].size();
      for (std::size_t gi = 0; gi < n_groups; ++gi) {
        const std::uint64_t acc = groups_[k][gi].mask & accept;
        if (acc == 0) continue;
        if (acc != groups_[k][gi].mask) {
          LaneGroup rest = groups_[k][gi];
          rest.mask &= ~acc;
          groups_[k].push_back(std::move(rest));  // May invalidate refs.
        }
        LaneGroup& grp = groups_[k][gi];
        grp.mask = acc;
        grp.added.push_back(path);
        grp.hash = mask_hash_with_bit(grp.hash, grp.words, path);
        grp.words[path / 64] |= std::uint64_t{1} << (path % 64);
      }
      // The float work above never touches the basis, so the scratch
      // remainder of reduce() is still current for install().
      bases_[k].install(red.nonzero2 & accept, red.nonzero3 & accept);
      synced2_[k] &= ~(accept & ~red.nonzero2);
      synced3_[k] &= ~(accept & ~red.nonzero3);
    }
    memo_.invalidate();
  }

  double value() const override { return value_; }
  std::size_t gain_computations() const override {
    return memo_.computations();
  }

 private:
  /// An append-only float basis shared by groups whose histories are
  /// prefixes of one committed-row chain; rows[i] is the path behind
  /// basis row i, so a shorter-prefix group can recognize its own next
  /// row in a sibling's append and adopt it without re-reducing.
  struct FloatTrunk {
    linalg::IncrementalBasis basis;
    std::vector<std::size_t> rows;

    explicit FloatTrunk(std::size_t cols)
        : basis(cols, linalg::kDefaultTolerance,
                /*track_combinations=*/false) {}
    FloatTrunk(const FloatTrunk& other, std::size_t prefix)
        : basis(other.basis, prefix),
          rows(other.rows.begin(), other.rows.begin() + prefix) {}
  };

  /// Lanes (classes) of one slice whose committed-path histories
  /// coincide; once materialized, the group's float basis is the first
  /// `brank` rows of `trunk`, reflecting added[0..fvalid).  `words` is
  /// the committed set as a path mask and `hash` its mask_hash(), kept
  /// current by add() so memo_verdict builds no key.
  struct LaneGroup {
    std::uint64_t mask = 0;
    std::vector<std::size_t> added;
    std::vector<std::uint64_t> words;
    std::uint64_t hash = 0;
    std::shared_ptr<FloatTrunk> trunk;
    std::size_t fvalid = 0;
    std::size_t brank = 0;
  };

  /// Materializes/advances the group's float basis to its full committed
  /// history — the same rows, in the same order, through the same
  /// IncrementalBasis arithmetic as the scalar accumulator's per-class
  /// basis, so verdicts are bit-for-bit identical.  Rows a sibling group
  /// already appended at this group's trunk position are adopted (same
  /// prefix + same row = same reduction); a mismatching trunk row forces
  /// a prefix fork before appending.
  void catch_up(LaneGroup& grp) const {
    if (!grp.trunk) {
      grp.trunk = std::make_shared<FloatTrunk>(system_.link_count());
    }
    while (grp.fvalid < grp.added.size()) {
      const std::size_t p = grp.added[grp.fvalid];
      if (grp.brank < grp.trunk->rows.size()) {
        if (grp.trunk->rows[grp.brank] == p) {
          ++grp.brank;
          ++grp.fvalid;
          continue;
        }
        grp.trunk = std::make_shared<FloatTrunk>(*grp.trunk, grp.brank);
      }
      if (grp.trunk->basis.try_add(system_.unit_row(p))) {
        grp.trunk->rows.push_back(p);
        ++grp.brank;
      }
      ++grp.fvalid;
    }
  }

  /// Ambiguous-lane verdict: is `path` independent of the group's
  /// committed set?  That is a rank question about the set
  /// committed ∪ {path} — the same subset-independent keyspace
  /// ranks_in_range memoizes — so the engine's cross-call rank memo is
  /// consulted first and a selection that retraces known territory
  /// (greedy re-sweeps, repeated workloads) never touches the float
  /// tier.  Misses resolve through the group's prefix basis — the
  /// scalar accumulator's arithmetic — and feed the memo.
  bool memo_verdict(LaneGroup& grp, std::size_t path,
                    linalg::UnitRow row) const {
    // The key is the group's committed words with the path's bit set in
    // place for the lookup and restored after; the hash moves in O(1).
    // (A path the group already committed keeps its words and hash, and
    // its memoized rank |committed| reads as dependent, as it should.)
    const std::size_t w = path / 64;
    const std::uint64_t committed = grp.words[w];
    const std::uint64_t hash = mask_hash_with_bit(grp.hash, grp.words, path);
    grp.words[w] |= std::uint64_t{1} << (path % 64);
    KernelErEngine::RankMemo& memo =
        engine_.rank_memo_[memo_index(KernelMode::kSliced)];
    std::size_t rank = 0;
    bool known = false;
    {
      const std::lock_guard<std::mutex> lock(engine_.memo_mutex_);
      const std::size_t id = memo.masks.find(grp.words, hash);
      if (id != MaskTable::npos) {
        known = true;
        rank = memo.ranks[id];
      }
    }
    if (!known) {
      catch_up(grp);
      rank = grp.added.size() +
             (grp.trunk->basis.is_independent_prefix(row, grp.brank) ? 1 : 0);
      const std::lock_guard<std::mutex> lock(engine_.memo_mutex_);
      if (memo.masks.insert(grp.words, hash).second) {
        memo.ranks.push_back(static_cast<std::uint32_t>(rank));
      }
    }
    grp.words[w] = committed;
    return rank == grp.added.size() + 1;
  }

  const KernelErEngine& engine_;
  const tomo::PathSystem& system_;
  const ScenarioClasses& classes_info_;
  std::vector<linalg::SlicedBasis> bases_;  ///< One per 64-class slice.
  std::vector<std::uint64_t> synced2_;      ///< Per-slice GF(2) sync bits.
  std::vector<std::uint64_t> synced3_;      ///< Per-slice GF(3) sync bits.
  std::size_t slices_ = 0;
  /// [path * slices_ + k] bit j: path survives class k*64+j and is not yet
  /// known dependent on its committed rows there.  Only ever cleared.
  /// gain() is logically const but clears verdicts it learns, and
  /// materializes float bases lazily.
  mutable std::vector<std::uint64_t> open_;
  mutable std::vector<std::vector<LaneGroup>> groups_;  ///< Per slice.
  GainMemo memo_;
  double value_ = 0.0;
};

std::unique_ptr<ErAccumulator> KernelErEngine::make_accumulator() const {
  if (resolved_kernel_mode() == KernelMode::kSliced) {
    return std::make_unique<SlicedKernelAccumulator>(*this);
  }
  return std::make_unique<KernelAccumulator>(*this);
}

// ---------------------------------------------------------------------------
// Shard accumulator
// ---------------------------------------------------------------------------

struct KernelShardAccumulator::Impl {
  const KernelErEngine& engine;
  std::size_t begin;
  std::size_t end;
  /// One basis per class *present in the slice*, in slice-first-appearance
  /// order.  The trajectory of a class basis depends only on its mask and
  /// the committed paths — never on which scenarios (or how many) map to
  /// it — so slice-local bases match the single-node ones exactly.
  std::vector<ClassBasis> classes;
  std::vector<std::uint32_t> local_class;  ///< Slice scenario -> local class.

  Impl(const KernelErEngine& eng, std::size_t b, std::size_t e)
      : engine(eng), begin(b), end(e) {
    const ScenarioClasses& sc = engine.scenario_classes();
    std::unordered_map<std::uint32_t, std::uint32_t> local_of;
    local_class.reserve(end - begin);
    for (std::size_t s = begin; s < end; ++s) {
      const std::uint32_t g = sc.class_of[s];
      const auto [it, inserted] = local_of.emplace(
          g, static_cast<std::uint32_t>(classes.size()));
      if (inserted) {
        classes.emplace_back(sc.masks[g], engine.path_bits_.cols());
      }
      local_class.push_back(it->second);
    }
  }

  std::vector<std::uint64_t> scatter(
      const std::vector<std::uint8_t>& class_bit) const {
    const std::size_t n = end - begin;
    std::vector<std::uint64_t> bits(n == 0 ? 1 : (n + 63) / 64, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (class_bit[local_class[i]]) {
        bits[i / 64] |= std::uint64_t{1} << (i % 64);
      }
    }
    return bits;
  }
};

KernelShardAccumulator::KernelShardAccumulator(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
KernelShardAccumulator::~KernelShardAccumulator() = default;
KernelShardAccumulator::KernelShardAccumulator(
    KernelShardAccumulator&&) noexcept = default;

std::size_t KernelShardAccumulator::begin() const { return impl_->begin; }
std::size_t KernelShardAccumulator::end() const { return impl_->end; }

std::vector<std::uint64_t> KernelShardAccumulator::probe(
    std::size_t path) const {
  Impl& im = *impl_;
  if (path >= im.engine.system_.path_count()) {
    throw std::invalid_argument("KernelShardAccumulator: path out of range");
  }
  const auto bits = im.engine.path_bits_.row(path);
  const auto row = im.engine.system_.unit_row(path);
  std::vector<std::uint8_t> class_bit(im.classes.size(), 0);
  for (std::size_t c = 0; c < im.classes.size(); ++c) {
    if (!im.classes[c].survives(path)) continue;
    if (query_independent(im.engine.system_, im.classes[c], bits, row)) {
      class_bit[c] = 1;
    }
  }
  return im.scatter(class_bit);
}

std::vector<std::uint64_t> KernelShardAccumulator::add(std::size_t path) {
  Impl& im = *impl_;
  if (path >= im.engine.system_.path_count()) {
    throw std::invalid_argument("KernelShardAccumulator: path out of range");
  }
  const auto bits = im.engine.path_bits_.row(path);
  const auto row = im.engine.system_.unit_row(path);
  std::vector<std::uint8_t> class_bit(im.classes.size(), 0);
  for (std::size_t c = 0; c < im.classes.size(); ++c) {
    if (!im.classes[c].survives(path)) continue;
    if (commit_path(im.engine.system_, im.classes[c], path, bits, row)) {
      class_bit[c] = 1;
    }
  }
  return im.scatter(class_bit);
}

std::unique_ptr<KernelShardAccumulator> KernelErEngine::make_shard_accumulator(
    std::size_t begin, std::size_t end) const {
  if (begin > end || end > scenario_count()) {
    throw std::invalid_argument(
        "KernelErEngine::make_shard_accumulator: bad range");
  }
  return std::unique_ptr<KernelShardAccumulator>(new KernelShardAccumulator(
      std::make_unique<KernelShardAccumulator::Impl>(*this, begin, end)));
}

}  // namespace rnt::core
