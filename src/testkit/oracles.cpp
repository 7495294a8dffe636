#include "testkit/oracles.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>

namespace rnt::testkit {

namespace {

/// The sixteen largest primes below 2^61: 2^61 - d for d = 1 (the
/// Mersenne prime), 31, 45, 229, 259, 283, 339, 391, 403, 465, 531, 579,
/// 675, 759, 799, 819.  Each exceeds 2^60, so any k of them multiply to
/// more than 2^(60k).
constexpr std::uint64_t kTwo61 = std::uint64_t{1} << 61;
constexpr std::array<std::uint64_t, 16> kPrimes = {
    kTwo61 - 1,   kTwo61 - 31,  kTwo61 - 45,  kTwo61 - 229,
    kTwo61 - 259, kTwo61 - 283, kTwo61 - 339, kTwo61 - 391,
    kTwo61 - 403, kTwo61 - 465, kTwo61 - 531, kTwo61 - 579,
    kTwo61 - 675, kTwo61 - 759, kTwo61 - 799, kTwo61 - 819};
constexpr std::size_t kBitsPerPrime = 60;

std::uint64_t residue(std::int64_t x, std::uint64_t p) {
  const auto sp = static_cast<std::int64_t>(p);
  const std::int64_t r = x % sp;
  return static_cast<std::uint64_t>(r < 0 ? r + sp : r);
}

std::uint64_t mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t p) {
  return static_cast<std::uint64_t>(static_cast<unsigned __int128>(a) * b %
                                    p);
}

/// Rank over GF(p) by fraction-free elimination: row_r <- piv * row_r -
/// f * row_pivot needs no inverses, and scaling by piv != 0 keeps the row
/// space.
std::size_t rank_mod(const std::vector<std::vector<std::int64_t>>& rows,
                     std::size_t cols, std::uint64_t p) {
  const std::size_t m = rows.size();
  std::vector<std::uint64_t> a(m * cols);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t c = 0; c < cols; ++c) {
      a[i * cols + c] = residue(rows[i][c], p);
    }
  }
  std::size_t rank = 0;
  for (std::size_t col = 0; col < cols && rank < m; ++col) {
    std::size_t pivot = rank;
    while (pivot < m && a[pivot * cols + col] == 0) ++pivot;
    if (pivot == m) continue;
    if (pivot != rank) {
      for (std::size_t c = col; c < cols; ++c) {
        std::swap(a[pivot * cols + c], a[rank * cols + c]);
      }
    }
    const std::uint64_t piv = a[rank * cols + col];
    for (std::size_t r = rank + 1; r < m; ++r) {
      const std::uint64_t f = a[r * cols + col];
      if (f == 0) continue;
      for (std::size_t c = col; c < cols; ++c) {
        const std::uint64_t keep = mulmod(piv, a[r * cols + c], p);
        const std::uint64_t drop = mulmod(f, a[rank * cols + c], p);
        a[r * cols + c] = keep >= drop ? keep - drop : keep + p - drop;
      }
    }
    ++rank;
  }
  return rank;
}

}  // namespace

std::size_t exact_rank(const std::vector<std::vector<std::int64_t>>& rows) {
  const std::size_t cols = rows.empty() ? 0 : rows[0].size();
  // ||row||^2 <= nonzeros * max|x|^2 < 2^h with h = bit_width(nonzeros) +
  // 2 bit_width(max|x| - 1), as max|x| <= 2^bit_width(max|x| - 1): h counts
  // half-bits of the row's Hadamard factor (a 0/1 row adds none for max|x|).
  std::vector<std::size_t> half_bits;
  half_bits.reserve(rows.size());
  for (const auto& row : rows) {
    if (row.size() != cols) {
      throw std::invalid_argument("exact_rank: ragged rows");
    }
    std::uint64_t nonzeros = 0;
    std::uint64_t max_abs = 0;
    for (const std::int64_t x : row) {
      const std::uint64_t mag = x < 0 ? std::uint64_t{0} -
                                            static_cast<std::uint64_t>(x)
                                      : static_cast<std::uint64_t>(x);
      if (mag != 0) ++nonzeros;
      max_abs = std::max(max_abs, mag);
    }
    if (nonzeros != 0) {
      half_bits.push_back(std::bit_width(nonzeros) +
                          2 * std::bit_width(max_abs - 1));
    }
  }
  // A nonzero minor spans at most `limit` nonzero rows; its Hadamard bound
  // is below 2^(sum of the `limit` largest half-bit counts / 2).
  const std::size_t limit = std::min(half_bits.size(), cols);
  std::sort(half_bits.begin(), half_bits.end(), std::greater<>());
  std::size_t bound_half_bits = 0;
  for (std::size_t i = 0; i < limit; ++i) bound_half_bits += half_bits[i];
  const std::size_t primes = std::max<std::size_t>(
      1, (bound_half_bits + 2 * kBitsPerPrime - 1) / (2 * kBitsPerPrime));
  if (primes > kPrimes.size()) {
    throw std::domain_error(
        "exact_rank: Hadamard bound outgrows the prime table");
  }
  std::size_t rank = 0;
  for (std::size_t i = 0; i < primes && rank < limit; ++i) {
    rank = std::max(rank, rank_mod(rows, cols, kPrimes[i]));
  }
  return rank;
}

std::size_t exact_rank(const std::vector<std::vector<double>>& rows) {
  std::vector<std::vector<std::int64_t>> ints;
  ints.reserve(rows.size());
  for (const auto& row : rows) {
    auto& out = ints.emplace_back();
    out.reserve(row.size());
    for (const double x : row) {
      // [-2^63, 2^63) converts exactly; the negated test also rejects NaN.
      if (!(x >= -0x1p63 && x < 0x1p63) || x != std::trunc(x)) {
        throw std::invalid_argument("exact_rank: entry " +
                                    std::to_string(x) +
                                    " is not an int64 integer");
      }
      out.push_back(static_cast<std::int64_t>(x));
    }
  }
  return exact_rank(ints);
}

std::vector<std::vector<double>> dense_rows(
    const TestInstance& instance, const std::vector<std::size_t>& subset) {
  std::vector<std::vector<double>> rows;
  rows.reserve(subset.size());
  for (std::size_t i : subset) {
    std::vector<double> row(instance.link_count(), 0.0);
    for (std::uint32_t l : instance.path_links.at(i)) row[l] = 1.0;
    rows.push_back(std::move(row));
  }
  return rows;
}

double path_ea(const TestInstance& instance, std::size_t path) {
  double ea = 1.0;
  for (std::uint32_t l : instance.path_links.at(path)) {
    ea *= 1.0 - instance.link_probs[l];
  }
  return ea;
}

ExhaustiveErTable::ExhaustiveErTable(const TestInstance& instance) {
  const std::size_t links = instance.link_count();
  const std::size_t paths = instance.path_count();
  if (links > 20) {
    throw std::invalid_argument("ExhaustiveErTable: more than 20 links");
  }
  if (paths > 63) {
    throw std::invalid_argument("ExhaustiveErTable: more than 63 paths");
  }
  rows_.assign(paths, std::vector<std::int64_t>(links, 0));
  for (std::size_t i = 0; i < paths; ++i) {
    for (std::uint32_t l : instance.path_links[i]) rows_[i][l] = 1;
  }

  std::vector<std::uint64_t> path_mask(paths, 0);
  for (std::size_t i = 0; i < paths; ++i) {
    for (std::uint32_t l : instance.path_links[i]) {
      path_mask[i] |= std::uint64_t{1} << l;
    }
  }

  const std::uint64_t scenarios = std::uint64_t{1} << links;
  alive_.resize(scenarios);
  prob_.resize(scenarios);
  for (std::uint64_t fail = 0; fail < scenarios; ++fail) {
    double p = 1.0;
    for (std::size_t l = 0; l < links; ++l) {
      const double pl = instance.link_probs[l];
      p *= ((fail >> l) & 1) ? pl : 1.0 - pl;
    }
    prob_[fail] = p;
    std::uint64_t alive = 0;
    for (std::size_t i = 0; i < paths; ++i) {
      if ((path_mask[i] & fail) == 0) alive |= std::uint64_t{1} << i;
    }
    alive_[fail] = alive;
  }
}

std::size_t ExhaustiveErTable::rank_of_mask(std::uint64_t rows_mask) const {
  const auto it = rank_memo_.find(rows_mask);
  if (it != rank_memo_.end()) return it->second;
  std::vector<std::vector<std::int64_t>> rows;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if ((rows_mask >> i) & 1) rows.push_back(rows_[i]);
  }
  const std::size_t r = exact_rank(rows);
  rank_memo_.emplace(rows_mask, r);
  return r;
}

double ExhaustiveErTable::er(std::uint64_t subset_mask) const {
  double total = 0.0;
  for (std::size_t fail = 0; fail < alive_.size(); ++fail) {
    const std::uint64_t surviving = alive_[fail] & subset_mask;
    if (surviving == 0) continue;
    total += prob_[fail] * static_cast<double>(rank_of_mask(surviving));
  }
  return total;
}

double ExhaustiveErTable::er(const std::vector<std::size_t>& subset) const {
  std::uint64_t mask = 0;
  for (std::size_t i : subset) {
    if (i >= rows_.size()) {
      throw std::out_of_range("ExhaustiveErTable: path index out of range");
    }
    mask |= std::uint64_t{1} << i;
  }
  return er(mask);
}

double exhaustive_er(const TestInstance& instance,
                     const std::vector<std::size_t>& subset) {
  return ExhaustiveErTable(instance).er(subset);
}

namespace {

std::vector<std::size_t> mask_to_paths(std::uint64_t mask,
                                       std::size_t paths) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < paths; ++i) {
    if ((mask >> i) & 1) out.push_back(i);
  }
  return out;
}

/// Tie order of core::exhaustive_optimum: larger objective wins; equal
/// objectives break toward fewer paths, then the lexicographically
/// smaller index list (== smaller mask for ascending-index subsets).
bool better(double objective, std::uint64_t mask, double best_objective,
            std::uint64_t best_mask) {
  if (objective > best_objective + 1e-12) return true;
  if (objective < best_objective - 1e-12) return false;
  const int size = std::popcount(mask);
  const int best_size = std::popcount(best_mask);
  if (size != best_size) return size < best_size;
  return mask < best_mask;
}

}  // namespace

OracleSelection exhaustive_best_selection(const TestInstance& instance,
                                          double budget) {
  const std::size_t paths = instance.path_count();
  if (paths > 16) {
    throw std::invalid_argument("exhaustive_best_selection: too many paths");
  }
  const ExhaustiveErTable table(instance);
  double best_objective = 0.0;
  double best_cost = 0.0;
  std::uint64_t best_mask = 0;
  for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << paths); ++mask) {
    double cost = 0.0;
    for (std::size_t i = 0; i < paths; ++i) {
      if ((mask >> i) & 1) cost += instance.path_costs[i];
    }
    if (cost > budget + 1e-9) continue;
    const double objective = table.er(mask);
    if (better(objective, mask, best_objective, best_mask)) {
      best_objective = objective;
      best_cost = cost;
      best_mask = mask;
    }
  }
  return {mask_to_paths(best_mask, paths), best_objective, best_cost};
}

OracleSelection exhaustive_best_independent_ea(const TestInstance& instance,
                                               std::size_t max_paths) {
  const std::size_t paths = instance.path_count();
  if (paths > 16) {
    throw std::invalid_argument(
        "exhaustive_best_independent_ea: too many paths");
  }
  std::vector<double> ea(paths);
  for (std::size_t i = 0; i < paths; ++i) ea[i] = path_ea(instance, i);

  double best_objective = 0.0;
  std::uint64_t best_mask = 0;
  for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << paths); ++mask) {
    const std::size_t size = static_cast<std::size_t>(std::popcount(mask));
    if (size > max_paths) continue;
    const std::vector<std::size_t> subset = mask_to_paths(mask, paths);
    if (exact_rank(dense_rows(instance, subset)) != size) continue;
    double objective = 0.0;
    for (std::size_t i : subset) objective += ea[i];
    if (better(objective, mask, best_objective, best_mask)) {
      best_objective = objective;
      best_mask = mask;
    }
  }
  OracleSelection out;
  out.paths = mask_to_paths(best_mask, paths);
  out.objective = best_objective;
  out.cost = static_cast<double>(out.paths.size());
  return out;
}

std::vector<std::vector<std::uint32_t>> oracle_multi_localization(
    const TestInstance& instance, const std::vector<std::size_t>& subset,
    const std::vector<std::vector<std::uint32_t>>& component_links,
    const std::vector<bool>& observed, std::size_t max_failures) {
  const std::size_t n = component_links.size();
  if (n > 20) {
    throw std::invalid_argument(
        "oracle_multi_localization: too many components");
  }
  // Observed signature: bit q set iff probed path subset[q] failed.
  std::vector<bool> failed_probe(subset.size(), false);
  for (std::size_t q = 0; q < subset.size(); ++q) {
    for (std::uint32_t l : instance.path_links.at(subset[q])) {
      if (observed.at(l)) {
        failed_probe[q] = true;
        break;
      }
    }
  }
  // Per-component predicted signature.
  std::vector<std::vector<bool>> hits(n,
                                      std::vector<bool>(subset.size(), false));
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t q = 0; q < subset.size(); ++q) {
      for (std::uint32_t l : instance.path_links.at(subset[q])) {
        if (std::find(component_links[c].begin(), component_links[c].end(),
                      l) != component_links[c].end()) {
          hits[c][q] = true;
          break;
        }
      }
    }
  }
  std::vector<std::uint32_t> consistent;
  const std::uint32_t total = std::uint32_t{1} << n;
  for (std::uint32_t mask = 0; mask < total; ++mask) {
    if (static_cast<std::size_t>(std::popcount(mask)) > max_failures) {
      continue;
    }
    bool ok = true;
    for (std::size_t q = 0; q < subset.size() && ok; ++q) {
      bool predicted = false;
      for (std::size_t c = 0; c < n && !predicted; ++c) {
        if (((mask >> c) & 1) != 0 && hits[c][q]) predicted = true;
      }
      ok = predicted == failed_probe[q];
    }
    if (ok) consistent.push_back(mask);
  }
  std::vector<std::vector<std::uint32_t>> out;
  for (const std::uint32_t mask : consistent) {
    bool minimal = true;
    for (const std::uint32_t other : consistent) {
      if (other != mask && (mask & other) == other) {
        minimal = false;
        break;
      }
    }
    if (!minimal) continue;
    std::vector<std::uint32_t> ids;
    for (std::size_t c = 0; c < n; ++c) {
      if ((mask >> c) & 1) ids.push_back(static_cast<std::uint32_t>(c));
    }
    out.push_back(std::move(ids));
  }
  std::sort(out.begin(), out.end());
  return out;
}

boolnt::MultiLocalizationScore replay_multi_localization_score(
    const TestInstance& instance, const std::vector<std::size_t>& subset,
    const std::vector<std::vector<std::uint32_t>>& component_links,
    std::size_t max_failures, std::size_t trials, Rng& rng,
    const std::vector<double>& weights, const MultiLocalizer& localize) {
  const std::size_t n = component_links.size();
  boolnt::MultiLocalizationScore score;
  score.trials = trials;
  if (n == 0 || max_failures == 0) {
    score.invisible = trials;
    return score;
  }
  std::vector<bool> probed(instance.link_count(), false);
  for (std::size_t q : subset) {
    for (std::uint32_t l : instance.path_links.at(q)) probed.at(l) = true;
  }
  double candidate_total = 0.0;
  std::size_t visible_trials = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    const std::size_t want = 1 + t % std::min(max_failures, n);
    std::vector<std::size_t> truth;
    if (weights.empty()) {
      truth = rng.sample_without_replacement(n, want);
    } else {
      std::vector<double> left = weights;
      for (std::size_t draw = 0; draw < want; ++draw) {
        truth.push_back(rng.weighted_index(left));
        left[truth.back()] = 0.0;
      }
    }
    std::vector<bool> observed(instance.link_count(), false);
    std::vector<std::uint32_t> visible_truth;
    for (std::size_t c : truth) {
      bool visible = false;
      for (std::uint32_t l : component_links.at(c)) {
        observed.at(l) = true;
        visible = visible || probed[l];
      }
      if (visible) visible_truth.push_back(static_cast<std::uint32_t>(c));
    }
    std::sort(visible_truth.begin(), visible_truth.end());
    if (visible_truth.empty()) {
      ++score.invisible;
      continue;
    }
    ++visible_trials;
    const auto candidates = localize(observed);
    candidate_total += static_cast<double>(candidates.size());
    if (std::find(candidates.begin(), candidates.end(), visible_truth) ==
        candidates.end()) {
      ++score.misled;
    } else if (candidates.size() == 1) {
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

}  // namespace rnt::testkit
