// Tests for the word-packed 0/1 rank kernel: packing round-trips, GF(2)
// rank against hand values, and GF(2) rank as a lower bound on the
// testkit's exact rank referee — including the matrices where GF(2) and
// rational rank genuinely differ.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "linalg/bitrank.h"
#include "linalg/elimination.h"
#include "linalg/matrix.h"
#include "testkit/oracles.h"
#include "util/rng.h"

namespace rnt::linalg {
namespace {

BitRows pack(const Matrix& m) {
  BitRows rows(m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) rows.append_dense(m.row(r));
  return rows;
}

/// The exact rank referee on the matrix's dense rows.
std::size_t referee_rank(const Matrix& m) {
  std::vector<std::vector<double>> rows;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    rows.emplace_back(m.row(r).begin(), m.row(r).end());
  }
  return testkit::exact_rank(rows);
}

Matrix random_binary(Rng& rng, std::size_t rows, std::size_t cols,
                     double density) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.bernoulli(density)) m(r, c) = 1.0;
    }
  }
  return m;
}

TEST(BitRows, PackingRoundTrips) {
  // 70 columns straddles the word boundary.
  const std::size_t cols = 70;
  BitRows rows(cols);
  EXPECT_EQ(rows.words_per_row(), 2u);
  std::vector<double> dense(cols, 0.0);
  dense[0] = 1.0;
  dense[63] = 1.0;
  dense[64] = 1.0;
  dense[69] = 1.0;
  rows.append_dense(dense);
  const std::vector<std::uint32_t> idx = {69, 0, 64, 63};
  rows.append_indices(idx);
  std::vector<bool> flags(cols, false);
  flags[0] = flags[63] = flags[64] = flags[69] = true;
  rows.append_flags(flags);
  rows.append_words(rows.row(0));
  ASSERT_EQ(rows.rows(), 4u);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      EXPECT_EQ(rows.bit(r, c), c == 0 || c == 63 || c == 64 || c == 69)
          << "row " << r << " col " << c;
    }
  }
}

TEST(BitRows, RejectsBadWidths) {
  BitRows rows(8);
  EXPECT_THROW(rows.append_dense(std::vector<double>(9, 0.0)),
               std::invalid_argument);
  const std::vector<std::uint32_t> oob = {8};
  EXPECT_THROW(rows.append_indices(oob), std::invalid_argument);
  EXPECT_THROW(rows.append_flags(std::vector<bool>(7, false)),
               std::invalid_argument);
}

TEST(Gf2Rank, HandValues) {
  // Identity-ish and duplicated rows.
  Matrix a{{1, 0, 0}, {0, 1, 0}, {1, 1, 0}, {1, 1, 0}};
  EXPECT_EQ(gf2_rank(pack(a)), 2u);  // Third row = first ^ second.
  Matrix full{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  EXPECT_EQ(gf2_rank(pack(full)), 3u);
  EXPECT_EQ(gf2_rank(BitRows(5)), 0u);
}

TEST(Gf2Rank, TriangleMatrixDropsRank) {
  // The canonical GF(2) != rational example: {a,b}, {b,c}, {a,c} has
  // rational rank 3 but the rows XOR to zero over GF(2).
  Matrix tri{{1, 1, 0}, {0, 1, 1}, {1, 0, 1}};
  EXPECT_EQ(gf2_rank(pack(tri)), 2u);
  EXPECT_EQ(rank(tri), 3u);
  EXPECT_EQ(referee_rank(tri), 3u);
}

TEST(Gf2Basis, IncrementalMatchesBatch) {
  Rng rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t cols = 1 + rng.index(100);
    const std::size_t n = 1 + rng.index(12);
    const Matrix m = random_binary(rng, n, cols, 0.35);
    const BitRows packed = pack(m);
    Gf2Basis basis(cols);
    std::size_t added = 0;
    for (std::size_t r = 0; r < n; ++r) {
      const bool indep = basis.is_independent(packed.row(r));
      EXPECT_EQ(basis.try_add(packed.row(r)), indep);
      if (indep) ++added;
      // A just-added row is dependent on the basis.
      EXPECT_FALSE(basis.is_independent(packed.row(r)));
    }
    EXPECT_EQ(basis.rank(), added);
    EXPECT_EQ(basis.rank(), gf2_rank(packed));
  }
}

TEST(ExactRank, WideMatrixCrossesWordBoundaries) {
  // 200 columns pack into four words: GF(2) rank stays a lower bound on
  // the referee's rational rank, which elimination reproduces.
  Rng rng(5);
  const std::size_t cols = 200;
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t rows = 1 + rng.index(20);
    const Matrix m = random_binary(rng, rows, cols, 0.1);
    const std::size_t exact = referee_rank(m);
    EXPECT_LE(gf2_rank(pack(m)), exact);
    EXPECT_EQ(exact, rank(m));
  }
}

}  // namespace
}  // namespace rnt::linalg
