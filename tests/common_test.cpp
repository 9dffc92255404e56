// Unit tests for src/common: Status/Result, units, RNG, stats, flag parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/units.h"

namespace ofc {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("no such object");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: no such object");
}

TEST(StatusTest, AllErrorConstructorsSetDistinctCodes) {
  std::set<StatusCode> codes = {
      NotFoundError("").code(),           AlreadyExistsError("").code(),
      InvalidArgumentError("").code(),    FailedPreconditionError("").code(),
      ResourceExhaustedError("").code(),  UnavailableError("").code(),
      AbortedError("").code(),            DeadlineExceededError("").code(),
      InternalError("").code()};
  EXPECT_EQ(codes.size(), 9u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = InvalidArgumentError("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(UnitsTest, ByteHelpers) {
  EXPECT_EQ(KiB(1), 1024);
  EXPECT_EQ(MiB(1), 1024 * 1024);
  EXPECT_EQ(GiB(2), 2LL * 1024 * 1024 * 1024);
}

TEST(UnitsTest, TimeHelpers) {
  EXPECT_EQ(Millis(1), 1000);
  EXPECT_EQ(Seconds(1), 1000000);
  EXPECT_EQ(Minutes(2), 120 * 1000000LL);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(ToMillis(Millis(5)), 5.0);
}

TEST(UnitsTest, Formatting) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(MiB(10)), "10 MiB");
  EXPECT_EQ(FormatDuration(Micros(250)), "250 us");
  EXPECT_EQ(FormatDuration(Millis(12)), "12 ms");
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += a.NextU64() == b.NextU64();
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.UniformInt(3, 8);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 8);
    saw_lo |= v == 3;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  RunningStat stat;
  for (int i = 0; i < 20000; ++i) {
    stat.Add(rng.Gaussian(10.0, 2.0));
  }
  EXPECT_NEAR(stat.mean(), 10.0, 0.1);
  EXPECT_NEAR(stat.stddev(), 2.0, 0.1);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  RunningStat stat;
  for (int i = 0; i < 20000; ++i) {
    stat.Add(rng.Exponential(60.0));
  }
  EXPECT_NEAR(stat.mean(), 60.0, 2.0);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(17);
  std::vector<double> weights = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) {
    ++counts[rng.WeightedIndex(weights)];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.4);
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(21);
  Rng child = parent.Fork();
  // The child stream must not simply replay the parent.
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    equal += parent.NextU64() == child.NextU64();
  }
  EXPECT_LT(equal, 2);
}

TEST(RunningStatTest, Basics) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.1380899, 1e-6);
}

TEST(SamplesTest, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 100.0);
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(0.99), 99.01, 0.01);
}

TEST(SamplesTest, PercentilesRefreshAfterLaterAdds) {
  // Regression: Add() must invalidate the sorted-percentile cache. Querying a
  // percentile (which builds the cache) and then adding more samples used to
  // keep serving the stale sorted copy.
  Samples s;
  s.Add(10.0);
  EXPECT_DOUBLE_EQ(s.Median(), 10.0);  // Builds the sorted cache.
  s.Add(30.0);
  s.Add(20.0);
  EXPECT_DOUBLE_EQ(s.Median(), 20.0);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 30.0);
  EXPECT_DOUBLE_EQ(s.Min(), 10.0);
}

TEST(SamplesTest, EmptyIsZero) {
  Samples s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.Median(), 0.0);
}

TEST(HistogramTest, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.Add(-1.0);   // clamps to bucket 0
  h.Add(0.5);
  h.Add(9.9);
  h.Add(25.0);   // clamps to last bucket
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_DOUBLE_EQ(h.BucketLow(1), 2.0);
  EXPECT_DOUBLE_EQ(h.BucketHigh(1), 4.0);
  EXPECT_FALSE(h.ToString("test").empty());
}

TEST(SlidingTimeWindowTest, ExpiresOldSamples) {
  SlidingTimeWindow w(Seconds(60));
  w.Add(Seconds(0), 100.0);
  w.Add(Seconds(30), 50.0);
  EXPECT_DOUBLE_EQ(w.MeanAt(Seconds(30)), 75.0);
  // At t=90s the t=0 sample is outside the 60 s window.
  EXPECT_DOUBLE_EQ(w.MeanAt(Seconds(90)), 50.0);
  EXPECT_EQ(w.CountAt(Seconds(200)), 0u);
}

TEST(SlidingTimeWindowTest, MaxTracksWindow) {
  SlidingTimeWindow w(Seconds(10));
  w.Add(Seconds(1), 5.0);
  w.Add(Seconds(2), 9.0);
  w.Add(Seconds(3), 3.0);
  EXPECT_DOUBLE_EQ(w.MaxAt(Seconds(3)), 9.0);
  EXPECT_DOUBLE_EQ(w.MaxAt(Seconds(13)), 3.0);
}

// A small flag table over local fields, one row per binder kind.
struct TestFlags {
  enum class Color { kRed, kBlue };
  static constexpr FlagChoice<Color> kColors[] = {{"red", Color::kRed}, {"blue", Color::kBlue}};

  std::uint64_t seed = 42;
  std::string out;
  bool progress = false;
  std::vector<std::string> functions;
  Color color = Color::kRed;
  std::size_t ring = 0;
  std::vector<std::string> events;

  std::vector<FlagRow> Rows() {
    return {
        {"G", "--seed=N", "", NumberFlag(&seed, 0)},
        {"G", "--out=PATH", "", PathFlag(&out)},
        {"G", "--progress", "", SwitchFlag(&progress)},
        {"G", "--functions=f1,...", "", ListFlag(&functions)},
        {"G", "--color=red|blue", "", ChoiceFlag(&color, kColors)},
        {"G", "--ring[=N]", "",
         [this](const char* flag, const std::string* value) {
           if (value == nullptr) {
             ring = 4096;
             return true;
           }
           return ParseNumber(flag, *value, std::size_t{1}, &ring);
         }},
        {"G", "--event=E", "",
         [this](const char*, const std::string* value) {
           events.push_back(*value);
           return true;
         }},
    };
  }

  // Runs ParseFlags over `args` as argv[1..].
  bool Parse(std::vector<std::string> args) {
    std::string program = "test";
    std::vector<char*> argv = {program.data()};
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    return ParseFlags(static_cast<int>(argv.size()), argv.data(), Rows());
  }
};

TEST(FlagsTest, ParseFlagsSplitsNameFromValueAtTheFirstEquals) {
  TestFlags flags;
  EXPECT_TRUE(flags.Parse({"--seed=7", "--out=a=b"}));
  EXPECT_EQ(flags.seed, 7u);
  EXPECT_EQ(flags.out, "a=b");
  EXPECT_TRUE(flags.Parse({"--out="}));
  EXPECT_EQ(flags.out, "");
  EXPECT_FALSE(flags.Parse({"--seeds=7"}));
}

TEST(FlagsTest, ParseFlagsRejectsUnknownFlagsAndPositionalArguments) {
  TestFlags flags;
  EXPECT_FALSE(flags.Parse({"--no-such-flag"}));
  EXPECT_FALSE(flags.Parse({"--seed=1", "--no-such-flag=3"}));
  EXPECT_FALSE(flags.Parse({"seed=1"}));
  EXPECT_FALSE(flags.Parse({"--help"}));
}

TEST(FlagsTest, ParseFlagsRejectsABareSwitchGivenAValue) {
  TestFlags flags;
  EXPECT_FALSE(flags.Parse({"--progress=1"}));
  EXPECT_FALSE(flags.Parse({"--progress="}));
  EXPECT_FALSE(flags.progress);
  EXPECT_TRUE(flags.Parse({"--progress"}));
  EXPECT_TRUE(flags.progress);
}

TEST(FlagsTest, ParseFlagsRejectsAValuedFlagGivenNone) {
  TestFlags flags;
  EXPECT_FALSE(flags.Parse({"--seed"}));
  EXPECT_FALSE(flags.Parse({"--out"}));
  EXPECT_EQ(flags.seed, 42u);
}

TEST(FlagsTest, ChoiceFlagRejectsANameOutsideItsList) {
  TestFlags flags;
  EXPECT_TRUE(flags.Parse({"--color=blue"}));
  EXPECT_EQ(flags.color, TestFlags::Color::kBlue);
  EXPECT_FALSE(flags.Parse({"--color=green"}));
  EXPECT_FALSE(flags.Parse({"--color=Blue"}));
  EXPECT_FALSE(flags.Parse({"--color="}));
  EXPECT_EQ(flags.color, TestFlags::Color::kBlue);
  EXPECT_STREQ(FlagChoiceName(TestFlags::kColors, TestFlags::Color::kBlue), "blue");
}

TEST(FlagsTest, OptionalValueFlagTakesBothForms) {
  TestFlags flags;
  EXPECT_TRUE(flags.Parse({"--ring"}));
  EXPECT_EQ(flags.ring, 4096u);
  EXPECT_TRUE(flags.Parse({"--ring=8"}));
  EXPECT_EQ(flags.ring, 8u);
  EXPECT_FALSE(flags.Parse({"--ring=0"}));
  EXPECT_FALSE(flags.Parse({"--ring="}));
  EXPECT_EQ(flags.ring, 8u);
}

TEST(FlagsTest, ListFlagDropsEmptyFields) {
  TestFlags flags;
  EXPECT_TRUE(flags.Parse({"--functions=a,,b,"}));
  EXPECT_EQ(flags.functions, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(flags.Parse({"--functions=,,"}));
  EXPECT_TRUE(flags.functions.empty());
}

TEST(FlagsTest, LaterRepeatOverridesWhileAccumulatingBindersAccumulate) {
  TestFlags flags;
  EXPECT_TRUE(flags.Parse({"--seed=1", "--event=x", "--functions=a", "--seed=3", "--event=y",
                           "--functions=b,c"}));
  EXPECT_EQ(flags.seed, 3u);
  EXPECT_EQ(flags.functions, (std::vector<std::string>{"b", "c"}));
  EXPECT_EQ(flags.events, (std::vector<std::string>{"x", "y"}));
}

TEST(FlagsTest, ParseNumberAcceptsWholeValuesAtOrAboveTheBound) {
  std::uint64_t count = 0;
  EXPECT_TRUE(ParseNumber("--n", "50000", std::uint64_t{1}, &count));
  EXPECT_EQ(count, 50000u);
  int workers = 0;
  EXPECT_TRUE(ParseNumber("--workers", "1", 1, &workers));
  EXPECT_EQ(workers, 1);
  double seconds = 0.0;
  EXPECT_TRUE(ParseNumber("--s", "2.5", 0.0, &seconds, /*above=*/true));
  EXPECT_EQ(seconds, 2.5);
}

TEST(FlagsTest, ParseNumberRejectsMalformedAndOutOfRangeValues) {
  std::uint64_t count = 9;
  EXPECT_FALSE(ParseNumber("--n", "abc", std::uint64_t{1}, &count));
  EXPECT_FALSE(ParseNumber("--n", "", std::uint64_t{1}, &count));
  EXPECT_FALSE(ParseNumber("--n", "12x", std::uint64_t{1}, &count));  // Trailing junk.
  EXPECT_FALSE(ParseNumber("--n", "-5", std::uint64_t{1}, &count));   // No wrap-around.
  EXPECT_FALSE(ParseNumber("--n", "0", std::uint64_t{1}, &count));    // Below the bound.
  EXPECT_FALSE(ParseNumber("--n", "99999999999999999999", std::uint64_t{1}, &count));
  EXPECT_EQ(count, 9u);  // Untouched on failure.
  int workers = 3;
  EXPECT_FALSE(ParseNumber("--workers", "-3", 1, &workers));
  EXPECT_EQ(workers, 3);
  double seconds = 1.0;
  EXPECT_FALSE(ParseNumber("--s", "0", 0.0, &seconds, /*above=*/true));
  EXPECT_FALSE(ParseNumber("--s", "inf", 0.0, &seconds));
  EXPECT_FALSE(ParseNumber("--s", "nan", 0.0, &seconds));
  EXPECT_EQ(seconds, 1.0);
}

TEST(FlagsTest, ParseDurationConvertsToWholeMicros) {
  SimDuration d = 0;
  EXPECT_TRUE(ParseDuration("--s", "2.5", Seconds(1), &d));
  EXPECT_EQ(d, Micros(2'500'000));
  EXPECT_TRUE(ParseDuration("--ms", "250", Millis(1), &d));
  EXPECT_EQ(d, Millis(250));
  EXPECT_TRUE(ParseDuration("--s", "0", Seconds(1), &d));
  EXPECT_EQ(d, 0);
  EXPECT_TRUE(ParseDuration("--s", "4611686018427", Seconds(1), &d));  // Just under 2^62 us.
  EXPECT_GT(d, Seconds(4611686018426));
  EXPECT_LT(d, kMaxFlagDuration);
}

TEST(FlagsTest, ParseDurationRejectsNonFiniteOverflowingAndMalformedValues) {
  SimDuration d = 7;
  EXPECT_FALSE(ParseDuration("--queue-deadline-s", "1e300", Seconds(1), &d));
  EXPECT_FALSE(ParseDuration("--breaker-open-s", "1e300", Seconds(1), &d));
  EXPECT_FALSE(ParseDuration("--inject-breach-at", "1e300", Seconds(1), &d));
  EXPECT_FALSE(ParseDuration("--s", "4611686018428", Seconds(1), &d));  // Past 2^62 us.
  EXPECT_FALSE(ParseDuration("--s", "1e400", Seconds(1), &d));  // Past double range.
  EXPECT_FALSE(ParseDuration("--s", "nan", Seconds(1), &d));
  EXPECT_FALSE(ParseDuration("--s", "inf", Seconds(1), &d));
  EXPECT_FALSE(ParseDuration("--s", "-1", Seconds(1), &d));
  EXPECT_FALSE(ParseDuration("--s", "60x", Seconds(1), &d));  // Trailing junk.
  EXPECT_FALSE(ParseDuration("--s", "", Seconds(1), &d));
  EXPECT_FALSE(ParseDuration("--s", "0", Seconds(1), &d, /*above=*/true));
  EXPECT_FALSE(ParseDuration("--s", "1e-7", Seconds(1), &d, /*above=*/true));  // 0 us.
  EXPECT_EQ(d, 7);  // Untouched on failure.
}

}  // namespace
}  // namespace ofc
