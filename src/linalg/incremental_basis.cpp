#include "linalg/incremental_basis.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>

namespace rnt::linalg {
namespace {

/// One thread's reduction state.  Between calls `remainder` is zero
/// everywhere and `touched` is empty; during a call `touched` lists each
/// column the remainder has held a value in (once, `seen` marking it), so
/// releasing it costs the touched count, not the dimension.  Capacities
/// only grow, so a warmed-up thread reduces without heap allocation.
struct Scratch {
  std::vector<double> remainder;
  std::vector<unsigned char> seen;
  std::vector<std::size_t> touched;
  std::vector<double> combo;

  void fit(std::size_t dimension) {
    if (remainder.size() < dimension) {
      remainder.resize(dimension, 0.0);
      seen.resize(dimension, 0);
      touched.reserve(dimension);
    }
  }

  void touch(std::size_t c) {
    if (seen[c] == 0) {
      seen[c] = 1;
      touched.push_back(c);
    }
  }

  /// A dense row's nonzero entries.
  void load(std::span<const double> row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (row[c] != 0.0) {
        remainder[c] = row[c];
        touch(c);
      }
    }
  }

  /// A 0/1 row's ones; columns must be below `dimension`.
  void load(UnitRow row, std::size_t dimension) {
    for (const std::uint32_t c : row.ones) {
      if (c >= dimension) {
        throw std::out_of_range("IncrementalBasis: column out of range");
      }
      remainder[c] = 1.0;
      touch(c);
    }
  }

  void release() {
    for (const std::size_t c : touched) {
      remainder[c] = 0.0;
      seen[c] = 0;
    }
    touched.clear();
  }
};

Scratch& thread_scratch() {
  thread_local Scratch scratch;
  return scratch;
}

/// Returns the calling thread's scratch to its zeroed state on scope exit.
struct ScratchRelease {
  ~ScratchRelease() { thread_scratch().release(); }
};

}  // namespace

IncrementalBasis::IncrementalBasis(std::size_t dimension, double tol,
                                   bool track_combinations)
    : dimension_(dimension),
      tol_(tol),
      track_combinations_(track_combinations) {}

IncrementalBasis::IncrementalBasis(const IncrementalBasis& other,
                                   std::size_t prefix)
    : dimension_(other.dimension_),
      tol_(other.tol_),
      track_combinations_(other.track_combinations_) {
  prefix = std::min(prefix, other.rank());
  rows_.assign(other.rows_.begin(), other.rows_.begin() + prefix);
  const std::size_t entries = prefix == 0 ? 0 : rows_.back().end;
  entries_.assign(other.entries_.begin(), other.entries_.begin() + entries);
  if (track_combinations_) {
    combos_.assign(other.combos_.begin(), other.combos_.begin() + prefix);
  }
}

std::vector<std::size_t> IncrementalBasis::pivot_columns() const {
  std::vector<std::size_t> out;
  out.reserve(rows_.size());
  for (const EliminatedRow& row : rows_) out.push_back(row.pivot);
  return out;
}

template <class Row>
Reduction IncrementalBasis::reduce_impl(Row row, std::size_t limit) const {
  Scratch& s = thread_scratch();
  s.fit(dimension_);
  if constexpr (std::is_same_v<Row, UnitRow>) {
    s.load(row, dimension_);
  } else {
    if (row.size() != dimension_) {
      throw std::invalid_argument("IncrementalBasis: row dimension mismatch");
    }
    s.load(row);
  }
  limit = std::min(limit, rank());
  double* r = s.remainder.data();
  // combo[j]: coefficient of inserted independent row j in the eliminated
  // residue subtracted so far.  The original row equals
  //   r + sum_j combo[j] * original_row_j   after full reduction,
  // so when r vanishes the support is {j : combo[j] != 0}.
  double* combo = nullptr;
  if (track_combinations_) {
    s.combo.assign(limit, 0.0);
    combo = s.combo.data();
  }
  for (std::size_t i = 0; i < limit; ++i) {
    const EliminatedRow& row_i = rows_[i];
    const std::size_t p = row_i.pivot;
    // A zero pivot entry gives factor ±0, which the tolerance test below
    // would skip anyway.
    if (r[p] == 0.0) continue;
    const double factor = r[p] / row_i.pivot_value;
    if (std::abs(factor) <= tol_) continue;
    // Columns outside the row's nonzeros would only see x - factor * 0,
    // which leaves every nonzero x unchanged.
    for (std::size_t k = i == 0 ? 0 : rows_[i - 1].end; k < row_i.end; ++k) {
      const Entry& e = entries_[k];
      s.touch(e.col);
      r[e.col] -= factor * e.value;
    }
    r[p] = 0.0;  // Kill round-off at the pivot exactly.
    if (track_combinations_) {
      const std::vector<double>& ci = combos_[i];
      for (std::size_t j = 0; j < ci.size(); ++j) {
        combo[j] += factor * ci[j];
      }
    }
  }
  Reduction result;
  double max_abs = 0.0;
  for (const std::size_t c : s.touched) {
    max_abs = std::max(max_abs, std::abs(r[c]));
  }
  result.independent = max_abs > tol_;
  if (!result.independent && track_combinations_) {
    for (std::size_t j = 0; j < limit; ++j) {
      if (std::abs(combo[j]) > tol_) {
        result.support.push_back(j);
        result.coefficients.push_back(combo[j]);
      }
    }
  }
  return result;
}

Reduction IncrementalBasis::reduce(std::span<const double> row) const {
  const ScratchRelease release;
  return reduce_impl(row, rank());
}

Reduction IncrementalBasis::reduce(UnitRow row) const {
  const ScratchRelease release;
  return reduce_impl(row, rank());
}

bool IncrementalBasis::is_independent(std::span<const double> row) const {
  return is_independent_prefix(row, rank());
}

bool IncrementalBasis::is_independent(UnitRow row) const {
  return is_independent_prefix(row, rank());
}

bool IncrementalBasis::is_independent_prefix(std::span<const double> row,
                                             std::size_t prefix) const {
  const ScratchRelease release;
  return reduce_impl(row, prefix).independent;
}

bool IncrementalBasis::is_independent_prefix(UnitRow row,
                                             std::size_t prefix) const {
  const ScratchRelease release;
  return reduce_impl(row, prefix).independent;
}

template <class Row>
Reduction IncrementalBasis::add_impl(Row row) {
  const ScratchRelease release;
  Reduction result = reduce_impl(row, rank());
  if (!result.independent) return result;
  Scratch& s = thread_scratch();
  const double* r = s.remainder.data();
  // Pivot: the largest-magnitude entry for numerical robustness, the
  // lowest column on a tie (first maximum in column order).
  std::sort(s.touched.begin(), s.touched.end());
  std::size_t pivot = 0;
  double best = 0.0;
  for (const std::size_t c : s.touched) {
    const double v = std::abs(r[c]);
    if (v > best) {
      best = v;
      pivot = c;
    }
  }
  // The eliminated row equals original_row - sum(combo_j * original_row_j):
  // coefficient +1 on the new row index and the negated reduction combo.
  std::vector<double> combo;
  if (track_combinations_) {
    combo.resize(rank() + 1);
    for (std::size_t j = 0; j < rank(); ++j) combo[j] = -s.combo[j];
    combo[rank()] = 1.0;
  }
  for (const std::size_t c : s.touched) {
    if (c != pivot && r[c] != 0.0) entries_.push_back({c, r[c]});
  }
  rows_.push_back({pivot, r[pivot], entries_.size()});
  if (track_combinations_) combos_.push_back(std::move(combo));
  return result;
}

Reduction IncrementalBasis::add_with_reduction(std::span<const double> row) {
  return add_impl(row);
}

Reduction IncrementalBasis::add_with_reduction(UnitRow row) {
  return add_impl(row);
}

bool IncrementalBasis::try_add(std::span<const double> row) {
  return add_impl(row).independent;
}

bool IncrementalBasis::try_add(UnitRow row) {
  return add_impl(row).independent;
}

void IncrementalBasis::clear() {
  rows_.clear();
  entries_.clear();
  combos_.clear();
}

}  // namespace rnt::linalg
