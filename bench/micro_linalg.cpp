// Micro-benchmarks for the linear algebra substrate: batch vs. incremental
// rank, the Cholesky independence test, identifiable columns from one RREF
// pass against the testkit's null-space reference — the primitives whose
// costs dominate the figure experiments.
#include <benchmark/benchmark.h>

#include "linalg/cholesky.h"
#include "linalg/elimination.h"
#include "linalg/incremental_basis.h"
#include "linalg/sparse.h"
#include "testkit/dense_reference.h"
#include "tomo/monitors.h"
#include "graph/isp_topology.h"
#include "util/rng.h"

namespace rnt {
namespace {

/// A realistic path matrix: candidate paths on an ISP-like topology.
linalg::Matrix path_matrix(std::size_t paths, std::uint64_t seed = 7) {
  Rng rng(seed);
  graph::Graph g = graph::build_isp_like(87, 161, rng);
  tomo::PathSystem sys = tomo::build_path_system(g, paths, rng);
  return sys.matrix();
}

void BM_BatchRank(benchmark::State& state) {
  const auto m = path_matrix(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::rank(m));
  }
}
BENCHMARK(BM_BatchRank)->Arg(50)->Arg(100)->Arg(200);

void BM_IncrementalRank(benchmark::State& state) {
  const auto m = path_matrix(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    linalg::IncrementalBasis basis(m.cols());
    for (std::size_t r = 0; r < m.rows(); ++r) {
      basis.try_add(m.row(r));
    }
    benchmark::DoNotOptimize(basis.rank());
  }
}
BENCHMARK(BM_IncrementalRank)->Arg(50)->Arg(100)->Arg(200);

void BM_IndependenceQuery(benchmark::State& state) {
  // Cost of one is_independent() against a full basis — RoMe's inner loop.
  const auto m = path_matrix(static_cast<std::size_t>(state.range(0)));
  linalg::IncrementalBasis basis(m.cols());
  for (std::size_t r = 0; r + 1 < m.rows(); ++r) {
    basis.try_add(m.row(r));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(basis.is_independent(m.row(m.rows() - 1)));
  }
}
BENCHMARK(BM_IndependenceQuery)->Arg(100)->Arg(200);

void BM_CholeskyBasis(benchmark::State& state) {
  const auto m = path_matrix(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::cholesky_basis(m));
  }
}
BENCHMARK(BM_CholeskyBasis)->Arg(50)->Arg(100)->Arg(200);

/// The testkit null-space basis that linalg::row_space replaced in
/// production identifiability.
void BM_NullSpace(benchmark::State& state) {
  const auto m = path_matrix(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(testkit::null_space(m));
  }
}
BENCHMARK(BM_NullSpace)->Arg(50)->Arg(100);

void BM_IdentifiableColumns(benchmark::State& state) {
  const auto m = path_matrix(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::identifiable_columns(m));
  }
}
BENCHMARK(BM_IdentifiableColumns)->Arg(50)->Arg(100);

void BM_DenseMatVec(benchmark::State& state) {
  const auto m = path_matrix(static_cast<std::size_t>(state.range(0)));
  std::vector<double> x(m.cols(), 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.multiply(std::span<const double>(x)));
  }
}
BENCHMARK(BM_DenseMatVec)->Arg(100)->Arg(200);

void BM_SparseMatVec(benchmark::State& state) {
  const auto dense = path_matrix(static_cast<std::size_t>(state.range(0)));
  const auto m = linalg::SparseMatrix::from_dense(dense);
  std::vector<double> x(m.cols(), 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.multiply(x));
  }
}
BENCHMARK(BM_SparseMatVec)->Arg(100)->Arg(200);

}  // namespace
}  // namespace rnt
