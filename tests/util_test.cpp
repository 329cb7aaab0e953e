// Unit tests for the deterministic utility layer: RNG, distributions,
// streaming statistics, histograms, tables, config parsing, the Zipf
// sampler and the sliding-rate windows that back DD-POLICE's monitors.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/config.hpp"
#include "util/rate_window.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/types.hpp"
#include "util/zipf.hpp"

namespace ddp::util {
namespace {

// ---------------------------------------------------------------- types

TEST(Types, MinuteConversionsRoundTrip) {
  EXPECT_DOUBLE_EQ(minutes(1.0), 60.0);
  EXPECT_DOUBLE_EQ(minutes(2.5), 150.0);
  EXPECT_DOUBLE_EQ(to_minutes(minutes(7.25)), 7.25);
}

TEST(Types, InvalidPeerIsSentinel) {
  EXPECT_EQ(kInvalidPeer, std::numeric_limits<PeerId>::max());
}

// ------------------------------------------------------------------ rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 1000; ++i) same += a.next_u32() == b.next_u32();
  EXPECT_LT(same, 5);
}

TEST(Rng, ForkIsOrderIndependent) {
  Rng m1(99), m2(99);
  Rng a1 = m1.fork("alpha");
  (void)m1.fork("beta");
  Rng b2 = m2.fork("beta");
  Rng a2 = m2.fork("alpha");
  (void)b2;
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a1.next_u32(), a2.next_u32());
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng m(7);
  Rng a = m.fork("x");
  Rng b = m.fork("y");
  int same = 0;
  for (int i = 0; i < 1000; ++i) same += a.next_u32() == b.next_u32();
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(4);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform(-3.0, 5.5);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.5);
  }
}

TEST(Rng, BelowIsBoundedAndCoversRange) {
  Rng r(5);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t v = r.below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, BelowZeroOrOneReturnsZero) {
  Rng r(6);
  EXPECT_EQ(r.below(0), 0u);
  EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng r(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = r.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(r.range(9, 9), 9);
  EXPECT_EQ(r.range(5, 3), 5);  // degenerate: lo returned
}

TEST(Rng, ChanceEdgeCases) {
  Rng r(8);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_FALSE(r.chance(-1.0));
  EXPECT_TRUE(r.chance(1.0));
  EXPECT_TRUE(r.chance(2.0));
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng r(9);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng r(10);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, NormalMomentsMatch) {
  Rng r(11);
  StreamingStats s;
  for (int i = 0; i < 100000; ++i) s.add(r.normal(10.0, 3.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

TEST(Rng, LognormalTargetsArithmeticMoments) {
  Rng r(12);
  StreamingStats s;
  // The paper's churn parameters: mean 10 (minutes), variance 5.
  for (int i = 0; i < 200000; ++i) s.add(r.lognormal_mean_var(10.0, 5.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.variance(), 5.0, 0.4);
}

TEST(Rng, ParetoMeanMatches) {
  Rng r(13);
  // shape 3, scale 2 -> mean = shape*scale/(shape-1) = 3.
  StreamingStats s;
  for (int i = 0; i < 200000; ++i) s.add(r.pareto(2.0, 3.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.1);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.pareto(2.0, 3.0), 2.0);
}

class PoissonRateTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonRateTest, MeanAndVarianceMatchRate) {
  const double rate = GetParam();
  Rng r(static_cast<std::uint64_t>(rate * 1000) + 17);
  StreamingStats s;
  for (int i = 0; i < 50000; ++i) s.add(r.poisson(rate));
  EXPECT_NEAR(s.mean(), rate, std::max(0.05, rate * 0.05));
  EXPECT_NEAR(s.variance(), rate, std::max(0.2, rate * 0.12));
}

INSTANTIATE_TEST_SUITE_P(Rates, PoissonRateTest,
                         ::testing::Values(0.3, 1.0, 5.0, 20.0, 100.0));

TEST(Rng, PoissonZeroRate) {
  Rng r(14);
  EXPECT_EQ(r.poisson(0.0), 0u);
  EXPECT_EQ(r.poisson(-1.0), 0u);
}

TEST(Rng, HashTagIsStable) {
  EXPECT_EQ(hash_tag("churn"), hash_tag("churn"));
  EXPECT_NE(hash_tag("churn"), hash_tag("workload"));
}

// ---------------------------------------------------------------- stats

TEST(StreamingStats, MatchesNaiveComputation) {
  Rng r(20);
  std::vector<double> xs;
  StreamingStats s;
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(-5, 5);
    xs.push_back(x);
    s.add(x);
  }
  double mean = 0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size());
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), var, 1e-9);
  EXPECT_EQ(s.count(), xs.size());
}

TEST(StreamingStats, EmptyIsZero) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(StreamingStats, MergeEqualsSequential) {
  Rng r(21);
  StreamingStats whole, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = r.normal(3.0, 2.0);
    whole.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(StreamingStats, MergeWithEmpty) {
  StreamingStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);  // adopt
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Histogram, BinningAndQuantiles) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i % 10) + 0.5);
  EXPECT_DOUBLE_EQ(h.total_weight(), 100.0);
  for (std::size_t b = 0; b < 10; ++b) EXPECT_DOUBLE_EQ(h.bin_weight(b), 10.0);
  EXPECT_NEAR(h.quantile(0.5), 5.0, 0.6);
  EXPECT_NEAR(h.quantile(0.0), 0.0, 1e-9);
}

TEST(Histogram, OverflowUnderflow) {
  Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(2.0, 3.0);
  EXPECT_DOUBLE_EQ(h.underflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 3.0);
  EXPECT_DOUBLE_EQ(h.total_weight(), 4.0);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), std::invalid_argument);
}

TEST(TimeSeries, CrossingTimes) {
  TimeSeries ts;
  for (int i = 0; i <= 10; ++i) ts.add(i, i * 10.0);  // 0,10,...,100
  EXPECT_DOUBLE_EQ(ts.first_time_at_or_above(35.0), 4.0);
  EXPECT_DOUBLE_EQ(ts.first_time_at_or_below(20.0), 0.0);
  EXPECT_DOUBLE_EQ(ts.first_time_at_or_below(20.0, 3.0), -1.0);
  EXPECT_DOUBLE_EQ(ts.first_time_at_or_above(1000.0), -1.0);
}

TEST(TimeSeries, TailMeanAndMax) {
  TimeSeries ts;
  for (int i = 0; i < 8; ++i) ts.add(i, i < 4 ? 100.0 : 20.0);
  EXPECT_DOUBLE_EQ(ts.tail_mean(0.5), 20.0);
  EXPECT_DOUBLE_EQ(ts.max_value(), 100.0);
  TimeSeries empty;
  EXPECT_DOUBLE_EQ(empty.tail_mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.max_value(), 0.0);
}

TEST(Quantile, ExactSmallVectors) {
  EXPECT_DOUBLE_EQ(quantile({5.0}, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0}, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

// ---------------------------------------------------------------- table

TEST(Table, AlignedRendering) {
  Table t({"a", "long_header"});
  t.row().cell(std::int64_t{1}).cell("x");
  t.row().cell(std::int64_t{22}).cell("yy");
  const std::string s = t.to_string();
  EXPECT_NE(s.find("long_header"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(Table, CsvEscaping) {
  Table t({"v"});
  t.row().cell("plain");
  t.row().cell("with,comma");
  t.row().cell("with\"quote");
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
  EXPECT_NE(csv.find("plain\n"), std::string::npos);
}

TEST(Table, DoubleFormatting) {
  EXPECT_EQ(format_double(1.5, 2), "1.50");
  EXPECT_EQ(format_double(-0.25, 1), "-0.2");
  EXPECT_EQ(format_double(3.0, 0), "3");
}

// --------------------------------------------------------------- config

TEST(Config, Truthiness) {
  // One boolean vocabulary, case-insensitive; anything else is rejected.
  for (const char* t : {"1", "true", "YES", "On"}) {
    EXPECT_EQ(parse_bool(t), std::optional<bool>(true)) << t;
  }
  for (const char* f : {"0", "False", "no", "off"}) {
    EXPECT_EQ(parse_bool(f), std::optional<bool>(false)) << f;
  }
  for (const char* bad : {"", "2", "maybe", "y", " on", "truee"}) {
    EXPECT_FALSE(parse_bool(bad).has_value()) << bad;
  }
}

TEST(Config, ParseIsWholeAndFinite) {
  EXPECT_EQ(parse<std::int64_t>("-42"), -42);
  EXPECT_EQ(parse<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"", "2k", "1.5", "+5", " 5", "5 ", "0x10", "1e3"}) {
    EXPECT_FALSE(parse<std::int64_t>(bad).has_value()) << bad;
  }
  EXPECT_DOUBLE_EQ(*parse<double>("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*parse<double>("1e3"), 1000.0);
  EXPECT_DOUBLE_EQ(*parse<double>("-.5"), -0.5);
  for (const char* bad : {"", "3x", "inf", "-inf", "nan", "1e400", "+1"}) {
    EXPECT_FALSE(parse<double>(bad).has_value()) << bad;
  }
}

TEST(Config, ParseRejectsWhatTheTypeCannotHold) {
  // Each narrowing type at its edge: no value wraps.
  EXPECT_EQ(parse<std::uint8_t>("255"), std::uint8_t{255});
  EXPECT_FALSE(parse<std::uint8_t>("300").has_value());
  EXPECT_EQ(parse<std::uint16_t>("65535"), std::uint16_t{65535});
  EXPECT_FALSE(parse<std::uint16_t>("70000").has_value());
  EXPECT_FALSE(parse<std::size_t>("-5").has_value());
  EXPECT_EQ(parse<int>("2147483647"), 2147483647);
  EXPECT_FALSE(parse<int>("4294967297").has_value());
  EXPECT_FALSE(parse<unsigned>("-1").has_value());
}

TEST(Config, ParseHonoursBounds) {
  EXPECT_EQ(parse<int>("1", 1, 2), 1);
  EXPECT_EQ(parse<int>("2", 1, 2), 2);
  EXPECT_FALSE(parse<int>("0", 1, 2).has_value());
  EXPECT_FALSE(parse<int>("3", 1, 2).has_value());
  EXPECT_FALSE(parse<double>("1.0000001", 0.0, 1.0).has_value());
  EXPECT_EQ(accepted<std::uint8_t>(1, 255), "an integer in [1, 255]");
  EXPECT_EQ(accepted(0.5, 2.0), "a finite number in [0.5, 2]");
  EXPECT_EQ(accepted(std::numeric_limits<double>::lowest(),
                     std::numeric_limits<double>::max()),
            "a finite number");
}

TEST(Config, OptionsParse) {
  const char* argv[] = {"prog", "peers=100", "rate=2.5", "flag=yes", "loose",
                        "name=", "ports=1,,3,"};
  Options o(7, argv);
  EXPECT_EQ(o.get("peers", std::size_t{0}), 100u);
  EXPECT_DOUBLE_EQ(o.get("rate", 0.0), 2.5);
  EXPECT_TRUE(o.get("flag", false));
  EXPECT_EQ(o.get("missing", std::string("dflt")), "dflt");
  EXPECT_EQ(o.get("name", std::string("dflt")), "");
  EXPECT_EQ(o.get("ports", std::vector<std::uint16_t>{}, 1, 65535),
            (std::vector<std::uint16_t>{1, 3}));
  EXPECT_EQ(o.positional(0), "loose");
  EXPECT_EQ(o.positional(1, "none"), "none");
  EXPECT_EQ(o.error(), "");
  EXPECT_EQ(o.summary(), "flag=yes name= peers=100 ports=1,,3, rate=2.5");
}

TEST(Config, OptionsRejectMalformedValues) {
  // A malformed value reads as the fallback, and error() reports the
  // first one read, naming the key and what it accepts.
  const char* argv[] = {"prog", "n=abc", "ct=3x", "radius=4294967297",
                        "ttl=300", "flag=maybe", "empty="};
  Options o(7, argv);
  EXPECT_EQ(o.get("n", std::int64_t{7}), 7);
  EXPECT_EQ(o.error(), "n must be an integer in [-9223372036854775808, "
                       "9223372036854775807], got 'abc'");
  EXPECT_DOUBLE_EQ(o.get("ct", 5.0), 5.0);
  EXPECT_EQ(o.get("radius", 1), 1);
  EXPECT_EQ(o.get("ttl", std::uint8_t{5}, 1, 255), 5);
  EXPECT_FALSE(o.get("flag", false));
  EXPECT_DOUBLE_EQ(o.get("empty", 1.5), 1.5);
  EXPECT_EQ(o.error().rfind("n must be", 0), 0u);

  const char* argv2[] = {"prog", "ct=3x", "ttl=300", "flag=maybe"};
  Options o2(4, argv2);
  o2.get("ct", 5.0);
  EXPECT_EQ(o2.error(), "ct must be a finite number, got '3x'");
  Options o3(4, argv2);
  o3.get("ttl", std::uint8_t{5}, 1, 255);
  EXPECT_EQ(o3.error(), "ttl must be an integer in [1, 255], got '300'");
  Options o4(4, argv2);
  o4.get("flag", false);
  EXPECT_EQ(o4.error(),
            "flag must be one of 1/0, true/false, yes/no, on/off, got 'maybe'");
  Options o5(4, argv2);
  o5.get("ct", std::vector<double>{5.0});
  EXPECT_EQ(o5.error(),
            "ct must be a comma-separated list, each a finite number, "
            "got '3x'");
}

enum class Shade : std::uint8_t { kLight, kDark };
std::string_view shade_name(Shade s) noexcept {
  switch (s) {
    case Shade::kLight: return "light";
    case Shade::kDark: return "dark";
  }
  return "?";
}

TEST(Config, OptionsReadEnumsByName) {
  const char* argv[] = {"prog", "a=dark", "b=Dark"};
  Options o(3, argv);
  EXPECT_EQ(o.get("a", Shade::kLight, shade_name), Shade::kDark);
  EXPECT_EQ(o.get("missing", Shade::kDark, shade_name), Shade::kDark);
  EXPECT_EQ(o.get("b", Shade::kLight, shade_name), Shade::kLight);
  EXPECT_EQ(o.error(), "b must be one of light, dark, got 'Dark'");
}

TEST(Config, OptionsReportUnknownKeysAndStrayArguments) {
  const char* argv[] = {"prog", "peers=5", "adaptve=1", "2000"};
  Options o(4, argv);
  EXPECT_EQ(o.get("peers", std::size_t{600}), 5u);
  o.get("adaptive", false);
  EXPECT_EQ(o.error(), "unknown key 'adaptve' (known keys: adaptive, peers)");
  o.get("adaptve", false);
  EXPECT_EQ(o.error(), "unexpected argument '2000' (arguments are key=value)");
  o.positional(0);
  EXPECT_EQ(o.error(), "");
}

TEST(Config, OptionsLastDuplicateWins) {
  // Later keys override earlier ones; an overridden malformed value is
  // never read.
  const char* argv[] = {"prog", "ct=abc", "port=0", "ct=7", "port=9"};
  Options o(5, argv);
  EXPECT_DOUBLE_EQ(o.get("ct", 5.0), 7.0);
  EXPECT_EQ(o.get("port", std::uint16_t{1}), 9);
  EXPECT_EQ(o.error(), "");
  EXPECT_EQ(o.summary(), "ct=7 port=9");
}

TEST(Config, EnvSeedFallback) {
  std::string problem;
  unsetenv("DDP_SEED");
  EXPECT_EQ(env("DDP_SEED", std::uint64_t{42}, problem), 42u);
  setenv("DDP_SEED", "", 1);
  EXPECT_EQ(env("DDP_SEED", std::uint64_t{42}, problem), 42u);
  setenv("DDP_SEED", "777", 1);
  EXPECT_EQ(env("DDP_SEED", std::uint64_t{42}, problem), 777u);
  EXPECT_EQ(problem, "");
  setenv("DDP_SEED", "1.5", 1);
  EXPECT_EQ(env("DDP_SEED", std::uint64_t{42}, problem), 42u);
  EXPECT_EQ(problem,
            "DDP_SEED must be an integer in [0, 18446744073709551615], "
            "got '1.5'");
  unsetenv("DDP_SEED");
}

// ----------------------------------------------------------------- zipf

TEST(Zipf, UniformWhenThetaZero) {
  ZipfSampler z(4, 0.0);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(z.pmf(i), 0.25, 1e-12);
}

TEST(Zipf, PmfSumsToOneAndDecreases) {
  ZipfSampler z(1000, 0.8);
  double sum = 0.0;
  for (std::size_t i = 0; i < 1000; ++i) {
    sum += z.pmf(i);
    if (i > 0) {
      EXPECT_LE(z.pmf(i), z.pmf(i - 1) + 1e-15);
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, SampleFrequenciesMatchPmf) {
  ZipfSampler z(50, 1.0);
  Rng r(30);
  std::vector<int> counts(50, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[z.sample(r)];
  for (std::size_t rank : {0u, 1u, 5u, 20u}) {
    EXPECT_NEAR(static_cast<double>(counts[rank]) / n, z.pmf(rank),
                0.05 * z.pmf(0) + 0.002);
  }
}

TEST(Zipf, RejectsBadArguments) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, -0.1), std::invalid_argument);
}

// ---------------------------------------------------------- rate window

TEST(RateWindow, CountsWithinWindow) {
  RateWindow w(60.0, 60);
  w.add(0.0, 5.0);
  w.add(30.0, 3.0);
  EXPECT_DOUBLE_EQ(w.total(59.0), 8.0);
  EXPECT_DOUBLE_EQ(w.per_minute_at(59.0), 8.0);
}

TEST(RateWindow, ExpiresOldEvents) {
  RateWindow w(60.0, 60);
  w.add(0.0, 10.0);
  w.add(50.0, 1.0);
  // At t=90 the t=0 bucket is out of [30, 90].
  EXPECT_DOUBLE_EQ(w.total(90.0), 1.0);
  // At t=200 everything expired.
  EXPECT_DOUBLE_EQ(w.total(200.0), 0.0);
}

TEST(RateWindow, SubMinuteWindowScalesPerMinute) {
  RateWindow w(30.0, 30);
  w.add(0.0, 10.0);
  EXPECT_DOUBLE_EQ(w.per_minute_at(10.0), 20.0);  // 10 in 30 s -> 20/min
}

TEST(RateWindow, ResetForgets) {
  RateWindow w(60.0, 60);
  w.add(5.0, 9.0);
  w.reset();
  EXPECT_DOUBLE_EQ(w.total(6.0), 0.0);
}

TEST(RateWindow, SteadyRateMeasuresCorrectly) {
  RateWindow w(60.0, 60);
  // 100 events/s for 3 minutes; windowed total should settle at 6000.
  for (int t = 0; t < 180; ++t) w.add(static_cast<double>(t), 100.0);
  EXPECT_NEAR(w.total(179.0), 6000.0, 101.0);
}

TEST(RateWindow, RejectsBadConstruction) {
  EXPECT_THROW(RateWindow(0.0, 10), std::invalid_argument);
  EXPECT_THROW(RateWindow(60.0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace ddp::util
