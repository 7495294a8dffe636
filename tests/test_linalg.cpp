// Unit and property tests for the linear algebra substrate: matrix ops,
// elimination / rank / null space (validated against the testkit's exact
// integer rank referee), and the incremental basis oracle (against the
// testkit's dense reference basis).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numeric>
#include <thread>

#include "linalg/elimination.h"
#include "linalg/incremental_basis.h"
#include "linalg/matrix.h"
#include "testkit/dense_reference.h"
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
  const RowSpace space = testkit::row_space(m);
  EXPECT_EQ(space.rank, 2u);
  EXPECT_EQ(space.identifiable, (std::vector<std::size_t>{2}));
  EXPECT_EQ(testkit::row_space(Matrix(0, 3)).rank, 0u);
  EXPECT_TRUE(testkit::row_space(Matrix(0, 3)).identifiable.empty());
}

TEST(Elimination, RowSpaceRankMatchesRank) {
  Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    const Matrix m =
        random_binary_matrix(2 + rng.index(9), 2 + rng.index(9), 0.35, rng);
    EXPECT_EQ(testkit::row_space(m).rank, rank(m)) << "trial " << trial;
  }
}

TEST(Elimination, IdentifiableColumnsFullRankSquare) {
  const auto ids = testkit::identifiable_columns(Matrix::identity(4));
  EXPECT_EQ(ids.size(), 4u);
}

TEST(Elimination, IdentifiableColumnsPartial) {
  // x0 + x1 inseparable; x2 pinned.
  Matrix m{{1, 1, 0}, {0, 0, 1}};
  const auto ids = testkit::identifiable_columns(m);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], 2u);
}

TEST(Elimination, IdentifiableColumnsSumAndDifference) {
  // x0+x1 and x0-x1 together identify both.
  Matrix m{{1, 1}, {1, -1}};
  EXPECT_EQ(testkit::identifiable_columns(m).size(), 2u);
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

/// Sparse rows of random reals: each entry zero with probability 0.6,
/// otherwise uniform in (-2, 2).
std::vector<std::vector<double>> random_real_rows(std::size_t rows,
                                                  std::size_t cols, Rng& rng) {
  std::vector<std::vector<double>> out(rows, std::vector<double>(cols, 0.0));
  for (auto& row : out) {
    for (double& v : row) {
      if (rng.bernoulli(0.4)) v = rng.uniform(-2.0, 2.0);
    }
  }
  return out;
}

/// Same verdict and support, coefficients equal bit for bit.
void expect_same_reduction(const Reduction& got, const Reduction& want) {
  EXPECT_EQ(got.independent, want.independent);
  EXPECT_EQ(got.support, want.support);
  ASSERT_EQ(got.coefficients.size(), want.coefficients.size());
  for (std::size_t k = 0; k < got.coefficients.size(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.coefficients[k]),
              std::bit_cast<std::uint64_t>(want.coefficients[k]));
  }
}

void expect_same_pivots(const IncrementalBasis& a, const IncrementalBasis& b) {
  EXPECT_EQ(a.pivot_columns(), b.pivot_columns());
}

TEST(IncrementalBasis, PrefixCopyBehavesLikeBasisOfThoseRows) {
  Rng rng(17);
  const std::size_t cols = 12;
  const auto rows = random_real_rows(16, cols, rng);
  IncrementalBasis full(cols);
  std::vector<std::size_t> accepted;  // Input rows that raised the rank.
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (full.try_add(rows[r])) accepted.push_back(r);
  }
  const auto probes = random_real_rows(10, cols, rng);
  for (std::size_t prefix = 0; prefix <= full.rank() + 1; ++prefix) {
    IncrementalBasis copy(full, prefix);
    IncrementalBasis fresh(cols);
    for (std::size_t k = 0; k < std::min(prefix, accepted.size()); ++k) {
      fresh.try_add(rows[accepted[k]]);
    }
    ASSERT_EQ(copy.rank(), fresh.rank()) << "prefix " << prefix;
    expect_same_pivots(copy, fresh);
    for (const auto& probe : probes) {
      expect_same_reduction(copy.reduce(probe), fresh.reduce(probe));
      EXPECT_EQ(full.is_independent_prefix(probe, prefix),
                fresh.is_independent(probe));
    }
    // Both keep growing identically past the fork.
    for (const auto& probe : probes) {
      expect_same_reduction(copy.add_with_reduction(probe),
                            fresh.add_with_reduction(probe));
    }
    expect_same_pivots(copy, fresh);
  }
}

TEST(IncrementalBasis, PivotTieGoesToLowerColumn) {
  // row1 - row0 = {0, 0, 0, -1, 0, -1}: column 5 is touched before
  // column 3 (it is a nonzero of the input, column 3 only of row0), yet
  // the tie on |value| must go to column 3 as in a dense column scan.
  const std::vector<double> row0 = {0, 0, 2, 1, 0, 0};
  const std::vector<double> row1 = {0, 0, 2, 0, 0, -1};
  IncrementalBasis basis(6);
  testkit::DenseIncrementalBasis reference(6);
  ASSERT_TRUE(basis.try_add(row0));
  ASSERT_TRUE(basis.try_add(row1));
  reference.try_add(row0);
  reference.try_add(row1);
  ASSERT_EQ(basis.rank(), 2u);
  EXPECT_EQ(basis.pivot_columns()[0], 2u);
  EXPECT_EQ(basis.pivot_columns()[1], 3u);
  EXPECT_EQ(basis.pivot_columns(), reference.pivot_columns());
  const std::vector<double> flat = {0, 1, -1, 1};
  IncrementalBasis single(4);
  ASSERT_TRUE(single.try_add(flat));
  EXPECT_EQ(single.pivot_columns()[0], 1u);
}

TEST(IncrementalBasis, NegativeZeroIsHandledLikePositiveZero) {
  const std::vector<double> base = {2, 0, 1};
  IncrementalBasis basis(3);
  testkit::DenseIncrementalBasis reference(3);
  ASSERT_TRUE(basis.try_add(base));
  reference.try_add(base);
  // A -0.0 at the pivot column skips the basis row like +0.0 would.
  const std::vector<double> neg = {-0.0, 1, -0.0};
  const std::vector<double> pos = {0.0, 1, 0.0};
  expect_same_reduction(basis.reduce(neg), basis.reduce(pos));
  expect_same_reduction(basis.reduce(neg), reference.reduce(neg));
  // An all-negative-zero row is the zero row: dependent, empty support.
  const std::vector<double> zeros = {-0.0, -0.0, -0.0};
  const Reduction red = basis.reduce(zeros);
  EXPECT_FALSE(red.independent);
  EXPECT_TRUE(red.support.empty());
  EXPECT_FALSE(basis.try_add(zeros));
  // Inserting the -0.0 row gives the same basis as the +0.0 row.
  IncrementalBasis twin(basis, basis.rank());
  expect_same_reduction(basis.add_with_reduction(neg),
                        twin.add_with_reduction(pos));
  reference.try_add(neg);
  expect_same_pivots(basis, twin);
  EXPECT_EQ(basis.pivot_columns(), reference.pivot_columns());
  const std::vector<double> probe = {4, 3, -0.0};
  expect_same_reduction(basis.reduce(probe), twin.reduce(probe));
  expect_same_reduction(basis.reduce(probe), reference.reduce(probe));
}

TEST(IncrementalBasis, ClearThenReuseMatchesFreshBasis) {
  Rng rng(31);
  const std::size_t cols = 10;
  IncrementalBasis reused(cols);
  for (const auto& row : random_real_rows(12, cols, rng)) reused.try_add(row);
  reused.clear();
  EXPECT_EQ(reused.rank(), 0u);
  EXPECT_TRUE(reused.pivot_columns().empty());
  IncrementalBasis fresh(cols);
  for (const auto& row : random_real_rows(14, cols, rng)) {
    expect_same_reduction(reused.add_with_reduction(row),
                          fresh.add_with_reduction(row));
  }
  EXPECT_EQ(reused.rank(), fresh.rank());
  expect_same_pivots(reused, fresh);
  for (const auto& probe : random_real_rows(8, cols, rng)) {
    expect_same_reduction(reused.reduce(probe), fresh.reduce(probe));
  }
}

TEST(IncrementalBasis, UnitRowMatchesItsDenseForm) {
  // Paths as link-id lists; the dense twin sets 1.0 at each link.
  const std::vector<std::vector<std::uint32_t>> paths = {
      {0, 3, 5}, {1, 3}, {0, 1, 5}, {2, 4}, {3, 5, 0}, {1, 2, 4, 6},
      {0, 1, 3, 5}, {6, 6, 2}, {2, 4}};
  const std::size_t cols = 7;
  IncrementalBasis unit(cols);
  IncrementalBasis dense(cols);
  for (const auto& links : paths) {
    std::vector<double> row(cols, 0.0);
    for (const std::uint32_t l : links) row[l] = 1.0;
    expect_same_reduction(unit.reduce(UnitRow{links}), dense.reduce(row));
    EXPECT_EQ(unit.is_independent_prefix(UnitRow{links}, 2),
              dense.is_independent_prefix(row, 2));
    expect_same_reduction(unit.add_with_reduction(UnitRow{links}),
                          dense.add_with_reduction(row));
    expect_same_pivots(unit, dense);
  }
  const std::vector<std::uint32_t> outside = {1, 7};
  EXPECT_THROW(unit.try_add(UnitRow{outside}), std::out_of_range);
  // The failed call left no residue behind in this thread's scratch.
  const std::vector<std::uint32_t> probe = {1, 6};
  std::vector<double> probe_row(cols, 0.0);
  probe_row[1] = probe_row[6] = 1.0;
  expect_same_reduction(unit.reduce(UnitRow{probe}), dense.reduce(probe_row));
}

TEST(IncrementalBasis, ConcurrentConstQueriesAgreeWithSerial) {
  Rng rng(47);
  const std::size_t cols = 40;
  IncrementalBasis basis(cols);
  for (const auto& row : random_real_rows(30, cols, rng)) basis.try_add(row);
  const auto probes = random_real_rows(50, cols, rng);
  std::vector<Reduction> want;
  std::vector<bool> want_prefix;
  for (std::size_t k = 0; k < probes.size(); ++k) {
    want.push_back(basis.reduce(probes[k]));
    want_prefix.push_back(basis.is_independent_prefix(probes[k], k % 31));
  }
  const IncrementalBasis& shared = basis;
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        for (std::size_t k = 0; k < probes.size(); ++k) {
          const std::size_t q = (k + t * 13) % probes.size();
          const Reduction got = shared.reduce(probes[q]);
          if (got.independent != want[q].independent ||
              got.support != want[q].support ||
              got.coefficients != want[q].coefficients ||
              shared.is_independent_prefix(probes[q], q % 31) !=
                  want_prefix[q]) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
}

// --------------------------------------------------------------------------
// Exact rank referee on known matrices
// --------------------------------------------------------------------------

TEST(ExactRank, KnownMatrices) {
  EXPECT_EQ(referee_rank(Matrix::identity(5)), 5u);
  Matrix dep{{1, 1, 0}, {0, 1, 1}, {1, 2, 1}};
  EXPECT_EQ(referee_rank(dep), 2u);
}

}  // namespace
}  // namespace rnt::linalg
