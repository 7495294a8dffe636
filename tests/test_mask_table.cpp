// Tests for core::MaskTable, the fixed-width path-mask table behind the
// kernel engine's rank memo, scenario classes and per-call dedup: caller
// hashes with full-mask equality, the O(1) one-bit hash update, growth,
// and that the engine's memo holds one entry per distinct surviving set.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/kernel_er.h"
#include "core/mask_table.h"
#include "exp/workload.h"
#include "util/rng.h"

namespace rnt {
namespace {

TEST(MaskTable, SameCallerHashDifferentMasksKeepTheirOwnIds) {
  core::MaskTable table(2);
  const std::vector<std::uint64_t> a = {1, 0};
  const std::vector<std::uint64_t> b = {0, 1};
  const std::uint64_t hash = 42;  // Deliberately shared: a full collision.
  const auto [ia, a_new] = table.insert(a, hash);
  const auto [ib, b_new] = table.insert(b, hash);
  EXPECT_TRUE(a_new);
  EXPECT_TRUE(b_new);
  EXPECT_NE(ia, ib);
  EXPECT_EQ(table.find(a, hash), ia);
  EXPECT_EQ(table.find(b, hash), ib);
  EXPECT_EQ(table.insert(b, hash), std::make_pair(ib, false));
  EXPECT_EQ(table.find(std::vector<std::uint64_t>{1, 1}, hash),
            core::MaskTable::npos);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(std::vector<std::uint64_t>(table.key(ib).begin(),
                                       table.key(ib).end()),
            b);
}

TEST(MaskTable, OneBitHashUpdateEqualsHashFromScratch) {
  const std::size_t paths = 130;  // Three words, the last one partial.
  Rng rng(7);
  for (const std::size_t bit : {std::size_t{0}, std::size_t{63},
                                std::size_t{64}, paths - 1}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<std::uint64_t> mask((paths + 63) / 64, 0);
      for (std::size_t p = 0; p < paths; ++p) {
        if (rng.index(3) == 0 && p != bit) {
          mask[p / 64] |= std::uint64_t{1} << (p % 64);
        }
      }
      const std::uint64_t before = core::mask_hash(mask);
      const std::uint64_t updated =
          core::mask_hash_with_bit(before, mask, bit);
      mask[bit / 64] |= std::uint64_t{1} << (bit % 64);
      EXPECT_EQ(updated, core::mask_hash(mask)) << "bit " << bit;
      // Setting a bit that is already set leaves the hash alone.
      EXPECT_EQ(core::mask_hash_with_bit(updated, mask, bit), updated);
    }
  }
  // Empty words contribute nothing, so the empty mask hashes to zero.
  EXPECT_EQ(core::mask_hash(std::vector<std::uint64_t>(3, 0)), 0u);
}

TEST(MaskTable, EveryEntrySurvivesGrowth) {
  core::MaskTable table(3);
  std::vector<std::vector<std::uint64_t>> masks;
  Rng rng(11);
  for (std::size_t i = 0; i < 5000; ++i) {
    std::vector<std::uint64_t> mask = {rng.next_word(), i, rng.next_word()};
    // Every fourth hash is a constant, so collision chains cross the
    // growth steps too.
    const std::uint64_t hash = i % 4 == 0 ? 99 : core::mask_hash(mask);
    ASSERT_EQ(table.insert(mask, hash), std::make_pair(i, true));
    masks.push_back(std::move(mask));
  }
  ASSERT_EQ(table.size(), masks.size());
  for (std::size_t i = 0; i < masks.size(); ++i) {
    const std::uint64_t hash = i % 4 == 0 ? 99 : core::mask_hash(masks[i]);
    EXPECT_EQ(table.find(masks[i], hash), i);
    EXPECT_EQ(table.hash(i), hash);
  }
}

TEST(MaskTable, EngineMemoHoldsOneEntryPerDistinctSurvivingSet) {
  const exp::Workload w = exp::make_custom_workload(40, 80, 90, 4, 5.0);
  const tomo::PathSystem& system = *w.system;
  Rng rng(3);
  const core::KernelErEngine base =
      core::KernelErEngine::monte_carlo(system, *w.failures, 96, rng);
  std::vector<std::size_t> subset;
  for (std::size_t p = 0; p < system.path_count(); p += 2) subset.push_back(p);

  // The surviving path-id sets evaluate() meets, counted independently.
  core::MaskTable sets((system.path_count() + 63) / 64);
  for (const failures::FailureVector& v : base.scenarios()) {
    std::vector<std::uint64_t> mask(sets.words(), 0);
    for (std::size_t p : subset) {
      if (system.path_survives(p, v)) {
        mask[p / 64] |= std::uint64_t{1} << (p % 64);
      }
    }
    sets.insert(mask, core::mask_hash(mask));
  }
  ASSERT_GT(sets.size(), 1u);

  for (const core::KernelMode mode :
       {core::KernelMode::kScalar, core::KernelMode::kSliced}) {
    core::KernelErEngine engine(system, base.scenarios(), base.weights(),
                                base.name());
    engine.set_kernel_mode(mode);
    engine.evaluate(subset);
    EXPECT_EQ(engine.rank_memo_entries(mode), sets.size())
        << core::kernel_mode_name(mode);
    engine.evaluate(subset);  // All hits: nothing new is stored.
    EXPECT_EQ(engine.rank_memo_entries(mode), sets.size());
  }
}

}  // namespace
}  // namespace rnt
