#include "linalg/bitrank.h"

#include <bit>
#include <stdexcept>

namespace rnt::linalg {

void BitRows::append_dense(std::span<const double> row) {
  if (row.size() != cols_) {
    throw std::invalid_argument("BitRows::append_dense: width mismatch");
  }
  const std::size_t base = words_.size();
  words_.resize(base + words_per_row_, 0);
  for (std::size_t c = 0; c < cols_; ++c) {
    if (row[c] != 0.0) {
      words_[base + c / 64] |= std::uint64_t{1} << (c % 64);
    }
  }
  ++row_count_;
}

void BitRows::append_indices(std::span<const std::uint32_t> set_cols) {
  const std::size_t base = words_.size();
  words_.resize(base + words_per_row_, 0);
  for (std::uint32_t c : set_cols) {
    if (c >= cols_) {
      throw std::invalid_argument("BitRows::append_indices: column out of range");
    }
    words_[base + c / 64] |= std::uint64_t{1} << (c % 64);
  }
  ++row_count_;
}

void BitRows::append_flags(const std::vector<bool>& flags) {
  if (flags.size() != cols_) {
    throw std::invalid_argument("BitRows::append_flags: width mismatch");
  }
  const std::size_t base = words_.size();
  words_.resize(base + words_per_row_, 0);
  for (std::size_t c = 0; c < cols_; ++c) {
    if (flags[c]) words_[base + c / 64] |= std::uint64_t{1} << (c % 64);
  }
  ++row_count_;
}

void BitRows::append_words(std::span<const std::uint64_t> words) {
  if (words.size() != words_per_row_) {
    throw std::invalid_argument("BitRows::append_words: word count mismatch");
  }
  words_.insert(words_.end(), words.begin(), words.end());
  ++row_count_;
}

bool disjoint(std::span<const std::uint64_t> a,
              std::span<const std::uint64_t> b) {
  std::uint64_t any = 0;
  for (std::size_t w = 0; w < a.size(); ++w) any |= a[w] & b[w];
  return any == 0;
}

namespace {

std::size_t lowest_set_bit(std::span<const std::uint64_t> row,
                           std::size_t cols) {
  for (std::size_t w = 0; w < row.size(); ++w) {
    if (row[w] != 0) {
      return w * 64 + static_cast<std::size_t>(std::countr_zero(row[w]));
    }
  }
  return cols;
}

}  // namespace

std::size_t gf2_rank(BitRows rows) {
  const std::size_t wpr = rows.words_per_row();
  const std::size_t m = rows.rows();
  std::size_t rank = 0;
  // pivot_rows[k] is the row index holding the k-th pivot; pivot bit
  // positions strictly increase down the list is NOT maintained (any
  // echelon works for rank).
  std::vector<std::size_t> pivot_rows;
  std::vector<std::size_t> pivot_bits;
  for (std::size_t r = 0; r < m; ++r) {
    auto row = rows.row(r);
    // Branch-free elimination: for each pivot, XOR conditionally via an
    // all-ones/all-zeros mask derived from the row's bit at the pivot.
    for (std::size_t k = 0; k < rank; ++k) {
      const std::size_t pb = pivot_bits[k];
      const std::uint64_t bit = (row[pb / 64] >> (pb % 64)) & 1u;
      const std::uint64_t mask = ~(bit - 1);  // bit ? ~0 : 0
      const auto pivot = rows.row(pivot_rows[k]);
      for (std::size_t w = 0; w < wpr; ++w) row[w] ^= pivot[w] & mask;
    }
    const std::size_t lead = lowest_set_bit(row, rows.cols());
    if (lead < rows.cols()) {
      pivot_rows.push_back(r);
      pivot_bits.push_back(lead);
      ++rank;
    }
  }
  return rank;
}

std::size_t Gf2Basis::reduce(std::span<const std::uint64_t> row,
                             std::vector<std::uint64_t>& scratch) const {
  scratch.assign(row.begin(), row.end());
  for (std::size_t k = 0; k < pivots_.size(); ++k) {
    const std::size_t pb = pivots_[k];
    const std::uint64_t bit = (scratch[pb / 64] >> (pb % 64)) & 1u;
    const std::uint64_t mask = ~(bit - 1);
    const std::uint64_t* pivot = rows_.data() + k * words_per_row_;
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      scratch[w] ^= pivot[w] & mask;
    }
  }
  return lowest_set_bit(scratch, cols_);
}

bool Gf2Basis::try_add(std::span<const std::uint64_t> row) {
  const std::size_t lead = reduce(row, scratch_);
  if (lead >= cols_) return false;
  rows_.insert(rows_.end(), scratch_.begin(), scratch_.end());
  pivots_.push_back(lead);
  return true;
}

bool Gf2Basis::is_independent(std::span<const std::uint64_t> row) const {
  return reduce(row, scratch_) < cols_;
}

}  // namespace rnt::linalg
