// Unit and property tests for the linear algebra substrate: matrix ops,
// elimination / rank / null space (validated against the testkit's exact
// integer rank referee), the incremental basis oracle, and Cholesky basis
// selection.
#include <gtest/gtest.h>

#include <numeric>

#include "linalg/cholesky.h"
#include "linalg/elimination.h"
#include "linalg/incremental_basis.h"
#include "linalg/matrix.h"
#include "testkit/oracles.h"
#include "util/rng.h"

namespace rnt::linalg {
namespace {

/// The exact rank referee on the matrix's dense rows.
std::size_t referee_rank(const Matrix& m) {
  std::vector<std::vector<double>> rows;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    rows.emplace_back(m.row(r).begin(), m.row(r).end());
  }
  return testkit::exact_rank(rows);
}

Matrix random_binary_matrix(std::size_t rows, std::size_t cols, double density,
                            Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    bool any = false;
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.bernoulli(density)) {
        m(r, c) = 1.0;
        any = true;
      }
    }
    if (!any) m(r, rng.index(cols)) = 1.0;  // Avoid all-zero rows.
  }
  return m;
}

// --------------------------------------------------------------------------
// Matrix
// --------------------------------------------------------------------------

TEST(Matrix, InitializerListAndAccess) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 6.0);
  m(1, 2) = 9.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 9.0);
}

TEST(Matrix, AppendRowSetsWidthAndValidates) {
  Matrix m;
  const std::vector<double> r1 = {1, 0, 1};
  m.append_row(r1);
  EXPECT_EQ(m.cols(), 3u);
  const std::vector<double> bad = {1, 2};
  EXPECT_THROW(m.append_row(bad), std::invalid_argument);
}

TEST(Matrix, SelectRows) {
  Matrix m{{1, 0}, {0, 1}, {1, 1}};
  Matrix sub = m.select_rows({2, 0});
  EXPECT_EQ(sub.rows(), 2u);
  EXPECT_DOUBLE_EQ(sub(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(sub(1, 1), 0.0);
  EXPECT_THROW(m.select_rows({5}), std::out_of_range);
}

TEST(Matrix, TransposeRoundTrip) {
  Rng rng(1);
  Matrix m = random_binary_matrix(7, 4, 0.4, rng);
  EXPECT_EQ(m.transposed().transposed(), m);
}

TEST(Matrix, MultiplyAgainstIdentity) {
  Rng rng(2);
  Matrix m = random_binary_matrix(5, 5, 0.5, rng);
  EXPECT_EQ(m.multiply(Matrix::identity(5)), m);
  EXPECT_EQ(Matrix::identity(5).multiply(m), m);
}

TEST(Matrix, MultiplyKnownProduct) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix expected{{19, 22}, {43, 50}};
  EXPECT_EQ(a.multiply(b), expected);
}

TEST(Matrix, MatrixVectorProduct) {
  Matrix a{{1, 0, 2}, {0, 3, 0}};
  const std::vector<double> x = {1, 2, 3};
  const auto y = a.multiply(std::span<const double>(x));
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a{{1, 2}};
  Matrix b{{1, 2}};
  EXPECT_THROW(a.multiply(b), std::invalid_argument);
  EXPECT_THROW(a.max_abs_diff(Matrix(2, 2)), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Elimination: rank, null space, solve, identifiable columns
// --------------------------------------------------------------------------

TEST(Elimination, RankOfIdentity) {
  EXPECT_EQ(rank(Matrix::identity(6)), 6u);
}

TEST(Elimination, RankOfZeroAndEmpty) {
  EXPECT_EQ(rank(Matrix(3, 4)), 0u);
  EXPECT_EQ(rank(Matrix()), 0u);
}

TEST(Elimination, RankWithDependentRows) {
  Matrix m{{1, 0, 1}, {0, 1, 1}, {1, 1, 2}};  // row2 = row0 + row1
  EXPECT_EQ(rank(m), 2u);
}

TEST(Elimination, RankMatchesExactRankOnRandomBinary) {
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t rows = 2 + rng.index(10);
    const std::size_t cols = 2 + rng.index(10);
    Matrix m = random_binary_matrix(rows, cols, 0.35, rng);
    EXPECT_EQ(rank(m), referee_rank(m)) << "trial " << trial;
  }
}

TEST(Elimination, RankOfRowsSubset) {
  Matrix m{{1, 0}, {0, 1}, {1, 1}};
  EXPECT_EQ(rank_of_rows(m, {0, 1}), 2u);
  EXPECT_EQ(rank_of_rows(m, {0, 2, 1}), 2u);
  EXPECT_EQ(rank_of_rows(m, {2}), 1u);
  EXPECT_EQ(rank_of_rows(m, {}), 0u);
}

TEST(Elimination, SolveConsistentSystem) {
  Matrix a{{1, 1, 0}, {0, 1, 1}};
  // x = (1, 2, 3): y = (3, 5).
  const std::vector<double> y = {3, 5};
  const auto x = solve(a, y);
  ASSERT_TRUE(x.has_value());
  const auto yy = a.multiply(std::span<const double>(*x));
  EXPECT_NEAR(yy[0], 3.0, 1e-9);
  EXPECT_NEAR(yy[1], 5.0, 1e-9);
}

TEST(Elimination, SolveDetectsInconsistency) {
  Matrix a{{1, 0}, {1, 0}};
  const std::vector<double> y = {1, 2};  // x1 = 1 and x1 = 2: impossible.
  EXPECT_FALSE(solve(a, y).has_value());
}

TEST(Elimination, SolveRejectsBadRhs) {
  Matrix a{{1, 0}};
  const std::vector<double> y = {1, 2};
  EXPECT_THROW(solve(a, y), std::invalid_argument);
}

TEST(Elimination, RowSpaceReadsRankAndIdentifiableColumnsOffTheRref) {
  // x0 + x1 inseparable, x2 pinned, x3 uncovered.
  Matrix m{{1, 1, 0, 0}, {0, 0, 1, 0}, {1, 1, 1, 0}};
  const RowSpace space = row_space(m);
  EXPECT_EQ(space.rank, 2u);
  EXPECT_EQ(space.identifiable, (std::vector<std::size_t>{2}));
  EXPECT_EQ(row_space(Matrix(0, 3)).rank, 0u);
  EXPECT_TRUE(row_space(Matrix(0, 3)).identifiable.empty());
}

TEST(Elimination, RowSpaceRankMatchesRank) {
  Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    const Matrix m =
        random_binary_matrix(2 + rng.index(9), 2 + rng.index(9), 0.35, rng);
    EXPECT_EQ(row_space(m).rank, rank(m)) << "trial " << trial;
  }
}

TEST(Elimination, IdentifiableColumnsFullRankSquare) {
  const auto ids = identifiable_columns(Matrix::identity(4));
  EXPECT_EQ(ids.size(), 4u);
}

TEST(Elimination, IdentifiableColumnsPartial) {
  // x0 + x1 inseparable; x2 pinned.
  Matrix m{{1, 1, 0}, {0, 0, 1}};
  const auto ids = identifiable_columns(m);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], 2u);
}

TEST(Elimination, IdentifiableColumnsSumAndDifference) {
  // x0+x1 and x0-x1 together identify both.
  Matrix m{{1, 1}, {1, -1}};
  EXPECT_EQ(identifiable_columns(m).size(), 2u);
}

TEST(Elimination, IndependentRowSubsetIsBasis) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    Matrix m = random_binary_matrix(12, 8, 0.35, rng);
    const auto subset = independent_row_subset(m);
    EXPECT_EQ(subset.size(), rank(m));
    EXPECT_EQ(rank_of_rows(m, subset), subset.size());
  }
}

TEST(Elimination, IndependentRowSubsetRespectsOrder) {
  Matrix m{{1, 1, 0}, {1, 0, 0}, {0, 1, 0}};
  // Scanning in reverse order must pick rows 2 and 1 first.
  const auto subset = independent_row_subset(m, {2, 1, 0});
  ASSERT_EQ(subset.size(), 2u);
  EXPECT_EQ(subset[0], 2u);
  EXPECT_EQ(subset[1], 1u);
}

// --------------------------------------------------------------------------
// IncrementalBasis
// --------------------------------------------------------------------------

TEST(IncrementalBasis, MatchesBatchRankOnRandomMatrices) {
  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t rows = 3 + rng.index(12);
    const std::size_t cols = 3 + rng.index(10);
    Matrix m = random_binary_matrix(rows, cols, 0.4, rng);
    IncrementalBasis basis(cols);
    for (std::size_t r = 0; r < rows; ++r) {
      basis.try_add(m.row(r));
    }
    EXPECT_EQ(basis.rank(), rank(m)) << "trial " << trial;
  }
}

TEST(IncrementalBasis, IsIndependentDoesNotMutate) {
  Matrix m{{1, 0}, {0, 1}};
  IncrementalBasis basis(2);
  EXPECT_TRUE(basis.is_independent(m.row(0)));
  EXPECT_EQ(basis.rank(), 0u);
  basis.try_add(m.row(0));
  EXPECT_EQ(basis.rank(), 1u);
  EXPECT_FALSE(basis.is_independent(m.row(0)));
  EXPECT_TRUE(basis.is_independent(m.row(1)));
}

TEST(IncrementalBasis, DependencySupportRecoversCombination) {
  // r2 = r0 + r1, support must be {0, 1} with coefficients {1, 1}.
  Matrix m{{1, 0, 1, 0}, {0, 1, 0, 1}, {1, 1, 1, 1}};
  IncrementalBasis basis(4);
  EXPECT_TRUE(basis.try_add(m.row(0)));
  EXPECT_TRUE(basis.try_add(m.row(1)));
  const auto red = basis.reduce(m.row(2));
  EXPECT_FALSE(red.independent);
  ASSERT_EQ(red.support.size(), 2u);
  EXPECT_EQ(red.support[0], 0u);
  EXPECT_EQ(red.support[1], 1u);
  EXPECT_NEAR(red.coefficients[0], 1.0, 1e-9);
  EXPECT_NEAR(red.coefficients[1], 1.0, 1e-9);
}

TEST(IncrementalBasis, DependencySupportSparse) {
  // Four independent rows; a fifth depends only on rows 1 and 3.
  Matrix m{{1, 0, 0, 0, 1},
           {0, 1, 0, 0, 1},
           {0, 0, 1, 0, 0},
           {0, 0, 0, 1, 1},
           {0, 1, 0, 1, 2}};  // = row1 + row3
  IncrementalBasis basis(5);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_TRUE(basis.try_add(m.row(r)));
  }
  const auto red = basis.reduce(m.row(4));
  EXPECT_FALSE(red.independent);
  ASSERT_EQ(red.support.size(), 2u);
  EXPECT_EQ(red.support[0], 1u);
  EXPECT_EQ(red.support[1], 3u);
}

TEST(IncrementalBasis, SupportReconstructsRowExactly) {
  // Property: for a dependent row r, sum(coeff_j * original_j) == r.
  Rng rng(123);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t cols = 4 + rng.index(6);
    Matrix m = random_binary_matrix(10, cols, 0.4, rng);
    IncrementalBasis basis(cols);
    std::vector<std::size_t> members;
    for (std::size_t r = 0; r < m.rows(); ++r) {
      const auto red = basis.add_with_reduction(m.row(r));
      if (red.independent) {
        members.push_back(r);
        continue;
      }
      std::vector<double> reconstructed(cols, 0.0);
      for (std::size_t k = 0; k < red.support.size(); ++k) {
        const auto src = m.row(members[red.support[k]]);
        for (std::size_t c = 0; c < cols; ++c) {
          reconstructed[c] += red.coefficients[k] * src[c];
        }
      }
      for (std::size_t c = 0; c < cols; ++c) {
        EXPECT_NEAR(reconstructed[c], m(r, c), 1e-7);
      }
    }
  }
}

TEST(IncrementalBasis, ClearResets) {
  IncrementalBasis basis(3);
  const std::vector<double> v = {1, 0, 0};
  EXPECT_TRUE(basis.try_add(v));
  basis.clear();
  EXPECT_EQ(basis.rank(), 0u);
  EXPECT_TRUE(basis.try_add(v));
}

TEST(IncrementalBasis, DimensionMismatchThrows) {
  IncrementalBasis basis(3);
  const std::vector<double> v = {1, 0};
  EXPECT_THROW(basis.try_add(v), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Exact rank referee on known matrices
// --------------------------------------------------------------------------

TEST(ExactRank, KnownMatrices) {
  EXPECT_EQ(referee_rank(Matrix::identity(5)), 5u);
  Matrix dep{{1, 1, 0}, {0, 1, 1}, {1, 2, 1}};
  EXPECT_EQ(referee_rank(dep), 2u);
}

// --------------------------------------------------------------------------
// Cholesky basis selection
// --------------------------------------------------------------------------

TEST(Cholesky, BasisSizeEqualsRank) {
  Rng rng(55);
  for (int trial = 0; trial < 30; ++trial) {
    Matrix m = random_binary_matrix(10 + rng.index(10), 6 + rng.index(6),
                                    0.35, rng);
    const auto basis = cholesky_basis(m);
    EXPECT_EQ(basis.size(), rank(m));
    EXPECT_EQ(rank_of_rows(m, basis), basis.size());
  }
}

TEST(Cholesky, AgreesWithIncrementalBasisSelection) {
  Rng rng(56);
  Matrix m = random_binary_matrix(15, 8, 0.4, rng);
  std::vector<std::size_t> order(m.rows());
  std::iota(order.begin(), order.end(), std::size_t{0});
  EXPECT_EQ(cholesky_basis(m, order), independent_row_subset(m, order));
}

TEST(Cholesky, ResidualOfDependentRowIsZero) {
  Matrix m{{1, 0, 1}, {0, 1, 1}};
  IncrementalCholesky chol(3);
  EXPECT_TRUE(chol.try_add(m.row(0)));
  EXPECT_TRUE(chol.try_add(m.row(1)));
  const std::vector<double> dep = {1, 1, 2};  // row0 + row1
  EXPECT_NEAR(chol.residual(dep), 0.0, 1e-8);
  EXPECT_FALSE(chol.try_add(dep));
  EXPECT_EQ(chol.rank(), 2u);
}

}  // namespace
}  // namespace rnt::linalg
