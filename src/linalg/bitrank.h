// Word-packed 0/1 row storage and GF(2) rank for path matrices.
//
// The ER definition (Eq. 4) ranks a 0/1 surviving submatrix once per
// failure scenario — the hottest loop in the repo.  Rows of the path
// matrix pack into ceil(|E|/64) machine words, so one XOR eliminates 64
// columns at a time and the survival test "does path q share a link with
// the failed set" is a handful of ANDs.
//
// Rank over GF(2) is NOT the rational rank of a 0/1 matrix in general
// (rows {a,b}, {b,c}, {a,c} have GF(2) rank 2 but rational rank 3), but
// it is a sound lower bound: rank_2(A) <= rank_Q(A) always, and when
// every row is GF(2)-independent the matrix has an odd k x k minor, which
// certifies full rational row rank.  This is the common case for
// surviving path sets and costs only word ops; callers resolve the rest
// (core/kernel_er.cpp, linalg/slicedrank.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace rnt::linalg {

/// A dense matrix of 0/1 rows, each packed LSB-first into 64-bit words.
/// Bit c of row r lives in word c / 64 at position c % 64; trailing bits
/// of the last word are always zero.
class BitRows {
 public:
  BitRows() = default;
  explicit BitRows(std::size_t cols)
      : cols_(cols), words_per_row_((cols + 63) / 64) {}

  std::size_t cols() const { return cols_; }
  std::size_t rows() const { return row_count_; }
  std::size_t words_per_row() const { return words_per_row_; }

  /// Appends a row from dense doubles; any nonzero entry sets the bit.
  void append_dense(std::span<const double> row);

  /// Appends a row from a list of set column indices (need not be sorted).
  void append_indices(std::span<const std::uint32_t> set_cols);

  /// Appends a row from bool flags (e.g. a failure vector).
  void append_flags(const std::vector<bool>& flags);

  /// Appends an already-packed row of words_per_row() words.
  void append_words(std::span<const std::uint64_t> words);

  std::span<const std::uint64_t> row(std::size_t i) const {
    return {words_.data() + i * words_per_row_, words_per_row_};
  }
  std::span<std::uint64_t> row(std::size_t i) {
    return {words_.data() + i * words_per_row_, words_per_row_};
  }

  bool bit(std::size_t r, std::size_t c) const {
    return ((row(r)[c / 64] >> (c % 64)) & 1u) != 0;
  }

  void reserve(std::size_t rows) { words_.reserve(rows * words_per_row_); }
  void clear() {
    words_.clear();
    row_count_ = 0;
  }

 private:
  std::size_t cols_ = 0;
  std::size_t words_per_row_ = 0;
  std::size_t row_count_ = 0;
  std::vector<std::uint64_t> words_;
};

/// True iff the two packed rows share no set bit (word-parallel AND test).
bool disjoint(std::span<const std::uint64_t> a, std::span<const std::uint64_t> b);

/// GF(2) rank by in-place branch-free XOR elimination (the argument is a
/// working copy).  Remember rank_2 <= rational rank (header comment).
std::size_t gf2_rank(BitRows rows);

/// Incremental GF(2) row basis: word-packed eliminated rows with pivot
/// positions, constant-size queries via branch-free conditional XOR.
class Gf2Basis {
 public:
  explicit Gf2Basis(std::size_t cols)
      : cols_(cols), words_per_row_((cols + 63) / 64) {}

  std::size_t cols() const { return cols_; }
  std::size_t rank() const { return pivots_.size(); }

  /// Adds the row iff it is GF(2)-independent of the basis; returns true
  /// iff the rank grew.
  bool try_add(std::span<const std::uint64_t> row);

  /// GF(2)-independence test without modifying the basis.  While every
  /// inserted row was GF(2)-independent, a `true` here also certifies
  /// rational independence (odd-minor argument in the header comment);
  /// `false` is inconclusive about the rational span.
  bool is_independent(std::span<const std::uint64_t> row) const;

  void clear() {
    rows_.clear();
    pivots_.clear();
  }

 private:
  /// Reduces `row` into `scratch` against the eliminated rows; returns the
  /// lowest set bit index of the remainder, or cols_ when it vanished.
  std::size_t reduce(std::span<const std::uint64_t> row,
                     std::vector<std::uint64_t>& scratch) const;

  std::size_t cols_ = 0;
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> rows_;    ///< Eliminated rows, concatenated.
  std::vector<std::size_t> pivots_;    ///< Pivot bit index per eliminated row.
  mutable std::vector<std::uint64_t> scratch_;
};

}  // namespace rnt::linalg
