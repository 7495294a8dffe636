// Tests for the CSR sparse matrix: conversions, accessors, products,
// transpose, row selection, and rank agreement with the dense substrate.
#include <gtest/gtest.h>

#include <numeric>

#include "linalg/elimination.h"
#include "linalg/sparse.h"
#include "tomo/monitors.h"
#include "graph/isp_topology.h"
#include "util/rng.h"

namespace rnt::linalg {
namespace {

Matrix random_binary_matrix(std::size_t rows, std::size_t cols, double density,
                            Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.bernoulli(density)) m(r, c) = 1.0;
    }
  }
  return m;
}

TEST(Sparse, DenseRoundTrip) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const Matrix dense = random_binary_matrix(8, 12, 0.2, rng);
    const SparseMatrix sparse = SparseMatrix::from_dense(dense);
    EXPECT_EQ(sparse.to_dense(), dense);
    EXPECT_EQ(sparse.rows(), 8u);
    EXPECT_EQ(sparse.cols(), 12u);
  }
}

TEST(Sparse, FromRowsAndAccess) {
  const SparseMatrix m = SparseMatrix::from_rows(
      4, {{{2, 1.0}, {0, 3.0}}, {}, {{3, -2.0}}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.nonzeros(), 3u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);  // Sorted within the row.
  EXPECT_DOUBLE_EQ(m.at(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.at(1, 3), 0.0);
  EXPECT_DOUBLE_EQ(m.at(2, 3), -2.0);
  EXPECT_THROW(m.at(3, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 4), std::out_of_range);
}

TEST(Sparse, FromRowsValidates) {
  EXPECT_THROW(SparseMatrix::from_rows(2, {{{5, 1.0}}}), std::out_of_range);
  EXPECT_THROW(SparseMatrix::from_rows(3, {{{1, 1.0}, {1, 2.0}}}),
               std::invalid_argument);
}

TEST(Sparse, ZeroValuesDropped) {
  const SparseMatrix m =
      SparseMatrix::from_rows(3, {{{0, 0.0}, {1, 1.0}}});
  EXPECT_EQ(m.nonzeros(), 1u);
}

TEST(Sparse, MultiplyMatchesDense) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const Matrix dense = random_binary_matrix(7, 9, 0.3, rng);
    const SparseMatrix sparse = SparseMatrix::from_dense(dense);
    std::vector<double> x(9);
    for (double& v : x) v = rng.uniform(-2, 2);
    const auto ys = sparse.multiply(x);
    const auto yd = dense.multiply(std::span<const double>(x));
    ASSERT_EQ(ys.size(), yd.size());
    for (std::size_t i = 0; i < ys.size(); ++i) {
      EXPECT_NEAR(ys[i], yd[i], 1e-12);
    }
  }
}

TEST(Sparse, TransposedMultiplyMatchesDense) {
  Rng rng(3);
  const Matrix dense = random_binary_matrix(6, 10, 0.3, rng);
  const SparseMatrix sparse = SparseMatrix::from_dense(dense);
  std::vector<double> x(6);
  for (double& v : x) v = rng.uniform(-1, 1);
  const auto ys = sparse.multiply_transposed(x);
  const auto yd = dense.transposed().multiply(std::span<const double>(x));
  for (std::size_t i = 0; i < ys.size(); ++i) {
    EXPECT_NEAR(ys[i], yd[i], 1e-12);
  }
}

TEST(Sparse, TransposeRoundTrip) {
  Rng rng(4);
  const Matrix dense = random_binary_matrix(9, 5, 0.35, rng);
  const SparseMatrix sparse = SparseMatrix::from_dense(dense);
  EXPECT_EQ(sparse.transposed().to_dense(), dense.transposed());
  EXPECT_EQ(sparse.transposed().transposed().to_dense(), dense);
}

TEST(Sparse, SelectRows) {
  const SparseMatrix m = SparseMatrix::from_rows(
      3, {{{0, 1.0}}, {{1, 2.0}}, {{2, 3.0}}});
  const SparseMatrix sub = m.select_rows({2, 0});
  EXPECT_EQ(sub.rows(), 2u);
  EXPECT_DOUBLE_EQ(sub.at(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(sub.at(1, 0), 1.0);
  EXPECT_THROW(m.select_rows({9}), std::out_of_range);
}

TEST(Sparse, DensityAndSizeMismatch) {
  const SparseMatrix m = SparseMatrix::from_rows(4, {{{0, 1.0}}, {}});
  EXPECT_DOUBLE_EQ(m.density(), 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(SparseMatrix().density(), 0.0);
  std::vector<double> bad(3, 0.0);
  EXPECT_THROW(m.multiply(bad), std::invalid_argument);
  EXPECT_THROW(m.multiply_transposed(bad), std::invalid_argument);
}

TEST(Sparse, RankMatchesDenseOnPathMatrices) {
  Rng rng(5);
  graph::Graph g = graph::build_isp_like(60, 120, rng);
  const tomo::PathSystem sys = tomo::build_path_system(g, 80, rng);
  std::vector<std::size_t> all(sys.path_count());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const Matrix a = tomo::path_matrix(sys, all);
  const SparseMatrix sparse = SparseMatrix::from_dense(a);
  EXPECT_EQ(sparse.rank_via_dense(), rank(a));
  // Path matrices really are sparse — the representation pays off.
  EXPECT_LT(sparse.density(), 0.1);
}

TEST(Sparse, RowSpansExposePattern) {
  const SparseMatrix m =
      SparseMatrix::from_rows(5, {{{1, 1.0}, {3, 1.0}}, {{0, 2.0}}});
  const auto cols0 = m.row_columns(0);
  ASSERT_EQ(cols0.size(), 2u);
  EXPECT_EQ(cols0[0], 1u);
  EXPECT_EQ(cols0[1], 3u);
  const auto vals1 = m.row_values(1);
  ASSERT_EQ(vals1.size(), 1u);
  EXPECT_DOUBLE_EQ(vals1[0], 2.0);
}

TEST(Sparse, ZeroRowsSurviveEveryOperation) {
  // Rows 1 and 3 are all-zero — the shape a failure scenario leaves after
  // knocking out every link of a path.
  const SparseMatrix m = SparseMatrix::from_rows(
      3, {{{0, 1.0}, {2, 2.0}}, {}, {{2, 1.0}}, {}});
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.nonzeros(), 3u);
  EXPECT_TRUE(m.row_columns(1).empty());
  EXPECT_TRUE(m.row_values(3).empty());

  const std::vector<double> x = {1.0, 5.0, 2.0};
  const auto y = m.multiply(x);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 2.0);
  EXPECT_DOUBLE_EQ(y[3], 0.0);

  // Transpose, selection and rank stay consistent through the empty rows.
  EXPECT_EQ(m.transposed().cols(), 4u);
  EXPECT_EQ(m.transposed().to_dense(), m.to_dense().transposed());
  const SparseMatrix only_zero = m.select_rows({1, 3});
  EXPECT_EQ(only_zero.rows(), 2u);
  EXPECT_EQ(only_zero.nonzeros(), 0u);
  EXPECT_EQ(only_zero.rank_via_dense(), 0u);
  EXPECT_EQ(m.rank_via_dense(), 2u);
}

TEST(Sparse, RankDeficientRowsMatchDenseOracle) {
  // r2 = r0 and r3 = r0 + r1: rank stays 2, agreeing with the dense rank.
  const SparseMatrix m = SparseMatrix::from_rows(
      4, {{{0, 1.0}, {1, 1.0}},
          {{1, 1.0}, {3, 1.0}},
          {{0, 1.0}, {1, 1.0}},
          {{0, 1.0}, {1, 2.0}, {3, 1.0}}});
  EXPECT_EQ(m.rank_via_dense(), 2u);
  EXPECT_EQ(m.rank_via_dense(), rank(m.to_dense()));
}

TEST(Sparse, AllZeroMatrixHasRankZero) {
  const SparseMatrix m = SparseMatrix::from_rows(6, {{}, {}, {}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 6u);
  EXPECT_EQ(m.rank_via_dense(), 0u);
  EXPECT_DOUBLE_EQ(m.density(), 0.0);
  for (double v : m.multiply(std::vector<double>(6, 1.0))) {
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
  for (double v : m.multiply_transposed(std::vector<double>(3, 1.0))) {
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

}  // namespace
}  // namespace rnt::linalg
