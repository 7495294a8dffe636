// Unit tests for util: rng determinism and sampling, streaming statistics,
// flag parsing, and table rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace rnt {
namespace {

// --------------------------------------------------------------------------
// Rng
// --------------------------------------------------------------------------

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  bool any_diff = false;
  for (int i = 0; i < 16 && !any_diff; ++i) {
    any_diff = a.uniform() != b.uniform();
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, IndexBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.index(13), 13u);
  }
  EXPECT_THROW(rng.index(0), std::invalid_argument);
}

TEST(Rng, IntegerInclusiveRange) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.integer(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // All five values should appear.
  EXPECT_THROW(rng.integer(3, 2), std::invalid_argument);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  const double freq = static_cast<double>(hits) / n;
  EXPECT_NEAR(freq, 0.3, 0.02);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(9);
  const auto sample = rng.sample_without_replacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (std::size_t s : sample) EXPECT_LT(s, 50u);
}

TEST(Rng, SampleWithoutReplacementFullPopulation) {
  Rng rng(9);
  const auto sample = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementRejectsOversample) {
  Rng rng(9);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), std::invalid_argument);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(13);
  const std::vector<double> w = {0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.weighted_index(w)];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, WeightedIndexRejectsBadInput) {
  Rng rng(13);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng.weighted_index({1.0, -1.0}), std::invalid_argument);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, ForkIsIndependentButDeterministic) {
  Rng a(99);
  Rng b(99);
  Rng fa = a.fork();
  Rng fb = b.fork();
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(fa.uniform(), fb.uniform());
  }
}

TEST(Rng, GoldenSequenceIsPlatformIndependent) {
  // Every draw is built from raw mt19937_64 words (pinned by the C++
  // standard) with fully specified arithmetic, so the same seed must give
  // exactly these values on every platform and standard library.  If this
  // test fails, replayability of every seeded experiment is broken.
  {
    Rng r(42);
    EXPECT_EQ(r.next_word(), 13930160852258120406ull);
    EXPECT_EQ(r.next_word(), 11788048577503494824ull);
    EXPECT_EQ(r.next_word(), 13874630024467741450ull);
    EXPECT_EQ(r.next_word(), 2513787319205155662ull);
  }
  {
    Rng r(42);
    EXPECT_EQ(r.uniform(), 0.75515553295453897);
    EXPECT_EQ(r.uniform(), 0.63903139385469743);
    EXPECT_EQ(r.uniform(), 0.7521452007480266);
    EXPECT_EQ(r.uniform(), 0.13627268363243705);
  }
  {
    Rng r(42);
    const std::size_t expected[] = {6, 8, 5, 0, 0, 6};
    for (std::size_t want : expected) EXPECT_EQ(r.index(10), want);
  }
  {
    Rng r(42);
    const std::int64_t expected[] = {1, 3, 5, 0};
    for (std::int64_t want : expected) EXPECT_EQ(r.integer(-5, 5), want);
  }
  // The shaped draws route through libm (log/cos/sqrt/pow), whose last-ulp
  // rounding is not pinned by the standard; allow a tiny relative slack.
  {
    Rng r(42);
    EXPECT_NEAR(r.normal(), -0.48121769980184498, 1e-12);
    EXPECT_NEAR(r.normal(), 0.49458385623521361, 1e-12);
    EXPECT_NEAR(r.normal(), 0.3745542688498138, 1e-12);
  }
  {
    Rng r(42);
    EXPECT_NEAR(r.gamma(2.5), 1.5327196342135072, 1e-12);
    EXPECT_NEAR(r.gamma(2.5), 5.5854363413736925, 1e-12);
  }
  {
    Rng r(42);
    EXPECT_NEAR(r.beta(2.0, 3.0), 0.15009817504931397, 1e-12);
    EXPECT_NEAR(r.beta(2.0, 3.0), 0.13711612213560034, 1e-12);
  }
}

TEST(Rng, BoundedHandlesPowerOfTwoAndOne) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.bounded(1), 0u);
    EXPECT_LT(rng.bounded(16), 16u);
    EXPECT_LT(rng.bounded(17), 17u);
  }
  EXPECT_THROW(rng.bounded(0), std::invalid_argument);
}

TEST(Rng, NormalAndGammaMoments) {
  Rng rng(23);
  RunningStats n, g;
  for (int i = 0; i < 20000; ++i) {
    n.add(rng.normal());
    g.add(rng.gamma(3.0));
  }
  EXPECT_NEAR(n.mean(), 0.0, 0.03);
  EXPECT_NEAR(n.stddev(), 1.0, 0.03);
  EXPECT_NEAR(g.mean(), 3.0, 0.06);  // Gamma(k,1) mean k, var k.
  EXPECT_NEAR(g.stddev(), std::sqrt(3.0), 0.06);
}

// --------------------------------------------------------------------------
// RunningStats
// --------------------------------------------------------------------------

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // Unbiased (n-1).
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SingleValueHasZeroVariance) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(21);
  RunningStats all;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-3, 7);
    all.add(x);
    (i < 200 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats b;
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

// --------------------------------------------------------------------------
// EmpiricalDistribution
// --------------------------------------------------------------------------

TEST(EmpiricalDistribution, CdfSteps) {
  EmpiricalDistribution d;
  for (double x : {1.0, 2.0, 3.0, 4.0}) d.add(x);
  EXPECT_DOUBLE_EQ(d.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(d.cdf(2.5), 0.5);
  EXPECT_DOUBLE_EQ(d.cdf(4.0), 1.0);
  EXPECT_DOUBLE_EQ(d.cdf(99.0), 1.0);
}

TEST(EmpiricalDistribution, Quantiles) {
  EmpiricalDistribution d;
  for (int i = 0; i <= 100; ++i) d.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(d.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), 100.0);
  EXPECT_THROW(d.quantile(1.5), std::invalid_argument);
}

TEST(EmpiricalDistribution, QuantileRequiresSamples) {
  EmpiricalDistribution d;
  EXPECT_THROW(d.quantile(0.5), std::logic_error);
}

TEST(EmpiricalDistribution, CdfCurveMonotone) {
  EmpiricalDistribution d;
  Rng rng(31);
  for (int i = 0; i < 300; ++i) d.add(rng.uniform(0, 10));
  const auto curve = d.cdf_curve(50);
  ASSERT_EQ(curve.size(), 50u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].second, curve[i - 1].second);
    EXPECT_GE(curve[i].first, curve[i - 1].first);
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(EmpiricalDistribution, InterleavedAddAndQuery) {
  EmpiricalDistribution d;
  d.add(5.0);
  EXPECT_DOUBLE_EQ(d.cdf(5.0), 1.0);
  d.add(1.0);  // Must re-sort lazily.
  EXPECT_DOUBLE_EQ(d.cdf(1.0), 0.5);
  EXPECT_DOUBLE_EQ(d.quantile(0.0), 1.0);
}

// --------------------------------------------------------------------------
// Flags
// --------------------------------------------------------------------------

TEST(Flags, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "2.5", "--gamma",
                        "--name", "hello"};
  Flags flags(7, argv);
  EXPECT_EQ(flags.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(flags.get_double("beta", 0.0), 2.5);
  EXPECT_TRUE(flags.get_bool("gamma", false));
  EXPECT_EQ(flags.get_string("name", ""), "hello");
  EXPECT_NO_THROW(flags.finish());
}

TEST(Flags, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags(1, argv);
  EXPECT_EQ(flags.get_int("missing", 7), 7);
  EXPECT_EQ(flags.get_string("missing2", "d"), "d");
  EXPECT_FALSE(flags.get_bool("missing3", false));
}

TEST(Flags, RejectsUnknownFlag) {
  const char* argv[] = {"prog", "--oops=1"};
  Flags flags(2, argv);
  EXPECT_THROW(flags.finish(), std::invalid_argument);
}

TEST(Flags, RejectsMalformedValues) {
  const char* argv[] = {"prog", "--n=abc", "--x=1.2.3", "--b=maybe"};
  Flags flags(4, argv);
  EXPECT_THROW(flags.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(flags.get_bool("b", false), std::invalid_argument);
}

TEST(Flags, CountsRejectNegativesInsteadOfWrapping) {
  const char* argv[] = {"prog", "--n=5", "--m=-1"};
  Flags flags(3, argv);
  EXPECT_EQ(flags.get_count("n", 0), 5u);
  EXPECT_EQ(flags.get_count("absent", 9), 9u);
  try {
    flags.get_count("m", 0);
    ADD_FAILURE() << "negative count accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--m"), std::string::npos)
        << e.what();
  }
}

TEST(Flags, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW(Flags(2, argv), std::invalid_argument);
}

// --------------------------------------------------------------------------
// TablePrinter
// --------------------------------------------------------------------------

TEST(TablePrinter, AlignedOutputContainsCells) {
  TablePrinter t({"name", "value"});
  t.add_row(std::vector<std::string>{"alpha", "1"});
  t.add_row(std::vector<std::string>{"bb", "22"});
  std::ostringstream out;
  t.print(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
}

TEST(TablePrinter, CsvOutput) {
  TablePrinter t({"a", "b"});
  t.add_row(std::vector<double>{1.5, 2.25}, 2);
  std::ostringstream out;
  t.print(out, /*csv=*/true);
  EXPECT_EQ(out.str(), "a,b\n1.50,2.25\n");
}

TEST(TablePrinter, RejectsWidthMismatch) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row(std::vector<std::string>{"only-one"}), std::invalid_argument);
  EXPECT_THROW(TablePrinter({}), std::invalid_argument);
}

TEST(FormatHelpers, FmtAndMeanStd) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  RunningStats s;
  s.add(1.0);
  s.add(3.0);
  const Summary sum = summarize(s);
  EXPECT_EQ(format_mean_std(sum, 1), "2.0 ± 1.4");
}

}  // namespace
}  // namespace rnt
