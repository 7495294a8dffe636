// Micro-benchmarks for the linear algebra substrate: batch vs. incremental
// rank, the sparse incremental basis against the testkit's dense reference
// basis, the Cholesky independence test, identifiable columns from one
// RREF pass against the testkit's null-space reference — the primitives
// whose costs dominate the figure experiments.  Informational only; no
// gate reads these numbers.
#include <benchmark/benchmark.h>

#include <numeric>

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
  const tomo::PathSystem sys = tomo::build_path_system(g, paths, rng);
  std::vector<std::size_t> rows(sys.path_count());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  return tomo::path_matrix(sys, rows);
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

/// 400 candidate paths on the large calibrated topology (AS1239), with
/// their dense rows for the reference basis.
struct As1239 {
  tomo::PathSystem system;
  linalg::Matrix rows;
};

const As1239& as1239() {
  static const As1239 instance = [] {
    Rng rng(7);
    const graph::Graph g =
        graph::build_isp_topology(graph::IspTopology::kAS1239, rng);
    tomo::PathSystem system = tomo::build_path_system(g, 400, rng);
    std::vector<std::size_t> rows(system.path_count());
    std::iota(rows.begin(), rows.end(), std::size_t{0});
    linalg::Matrix dense = tomo::path_matrix(system, rows);
    return As1239{std::move(system), std::move(dense)};
  }();
  return instance;
}

/// Path row r in the form each basis's callers pass it: by link id to the
/// production basis (as ProbBound and the kernel do), densely to the
/// reference.
linalg::UnitRow path_row(const linalg::IncrementalBasis&, const As1239& w,
                         std::size_t r) {
  return w.system.unit_row(r);
}
std::span<const double> path_row(const testkit::DenseIncrementalBasis&,
                                 const As1239& w, std::size_t r) {
  return w.rows.row(r);
}

/// Building a tracked basis from every AS1239 path row, ProbBound's
/// add_with_reduction path.  Paired over the production sparse basis and
/// the testkit's dense reference.
template <class Basis>
void BM_BasisBuildAS1239(benchmark::State& state) {
  const As1239& w = as1239();
  const tomo::PathSystem& sys = w.system;
  for (auto _ : state) {
    Basis basis(sys.link_count());
    for (std::size_t r = 0; r < sys.path_count(); ++r) {
      basis.try_add(path_row(basis, w, r));
    }
    benchmark::DoNotOptimize(basis.rank());
  }
}
BENCHMARK_TEMPLATE(BM_BasisBuildAS1239, linalg::IncrementalBasis);
BENCHMARK_TEMPLATE(BM_BasisBuildAS1239, testkit::DenseIncrementalBasis);

/// One is_independent() query per AS1239 path row against the rank-only
/// basis of all of them (the system's natural rank): the kernel float
/// tier's query.  Items are queries.
template <class Basis>
void BM_BasisQueryAS1239(benchmark::State& state) {
  const As1239& w = as1239();
  const tomo::PathSystem& sys = w.system;
  Basis basis(sys.link_count(), linalg::kDefaultTolerance,
              /*track_combinations=*/false);
  for (std::size_t r = 0; r < sys.path_count(); ++r) {
    basis.try_add(path_row(basis, w, r));
  }
  for (auto _ : state) {
    for (std::size_t r = 0; r < sys.path_count(); ++r) {
      benchmark::DoNotOptimize(basis.is_independent(path_row(basis, w, r)));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sys.path_count()));
  state.counters["rank"] = static_cast<double>(basis.rank());
}
BENCHMARK_TEMPLATE(BM_BasisQueryAS1239, linalg::IncrementalBasis);
BENCHMARK_TEMPLATE(BM_BasisQueryAS1239, testkit::DenseIncrementalBasis);

void BM_CholeskyBasis(benchmark::State& state) {
  const auto m = path_matrix(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::cholesky_basis(m));
  }
}
BENCHMARK(BM_CholeskyBasis)->Arg(50)->Arg(100)->Arg(200);

/// The testkit null-space basis that the dense row space replaced as the
/// identifiability reference.
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
    benchmark::DoNotOptimize(testkit::identifiable_columns(m));
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
