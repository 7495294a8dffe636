// Micro-benchmarks for the correctness harness itself: per-case cost of
// instance generation, the brute-force oracles, and one full check pass.
// These numbers size the fuzz loop — `rnt_cli fuzz` throughput is roughly
// the reciprocal of the full-check-pass time — and flag regressions that
// would silently shrink CI fuzz coverage within its wall-clock budget.
#include <benchmark/benchmark.h>

#include "testkit/checks.h"
#include "testkit/instance.h"
#include "testkit/oracles.h"

namespace rnt::testkit {
namespace {

void BM_GenerateInstance(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_instance(seed++));
  }
}
BENCHMARK(BM_GenerateInstance);

void BM_ExhaustiveErTableBuild(benchmark::State& state) {
  const TestInstance inst = generate_instance(7);
  for (auto _ : state) {
    ExhaustiveErTable table(inst);
    benchmark::DoNotOptimize(table);
  }
}
BENCHMARK(BM_ExhaustiveErTableBuild);

void BM_ExhaustiveErQuery(benchmark::State& state) {
  // Amortized query cost over the memoized table: sweep all prefix masks.
  const TestInstance inst = generate_instance(7);
  const ExhaustiveErTable table(inst);
  const std::uint64_t full =
      (std::uint64_t{1} << inst.path_count()) - 1;
  std::uint64_t mask = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.er(mask));
    mask = mask == full ? 1 : ((mask << 1) | 1) & full;
  }
}
BENCHMARK(BM_ExhaustiveErQuery);

void BM_ExactRank(benchmark::State& state) {
  const TestInstance inst = generate_instance(7);
  std::vector<std::size_t> all(inst.path_count());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact_rank(dense_rows(inst, all)));
  }
}
BENCHMARK(BM_ExactRank);

void BM_FullCheckPass(benchmark::State& state) {
  // One fuzz case end to end: every registered check on one instance
  // (the workload-cache check is stride-gated in the real loop but
  // included here, so this is an upper bound on per-case cost).
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const TestInstance inst = generate_instance(seed++);
    for (const Check& c : all_checks()) {
      if (!c.shrinkable) continue;  // Skips the cache check's rebuilds.
      benchmark::DoNotOptimize(run_check(c, inst));
    }
  }
}
BENCHMARK(BM_FullCheckPass);

}  // namespace
}  // namespace rnt::testkit
