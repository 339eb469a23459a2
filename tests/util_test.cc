#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <set>
#include <utility>

#include "util/arena.h"
#include "util/civil_time.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/table.h"

namespace govdns::util {
namespace {

// ---------------------------------------------------------------------------
// Status
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = TimeoutError("server x");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kTimeout);
  EXPECT_EQ(s.message(), "server x");
  EXPECT_EQ(s.ToString(), "TIMEOUT: server x");
}

TEST(StatusTest, AllErrorConstructorsSetDistinctCodes) {
  std::set<ErrorCode> codes;
  codes.insert(InvalidArgumentError("").code());
  codes.insert(ParseError("").code());
  codes.insert(NotFoundError("").code());
  codes.insert(TimeoutError("").code());
  codes.insert(RefusedError("").code());
  codes.insert(UnavailableError("").code());
  codes.insert(FailedPreconditionError("").code());
  codes.insert(InternalError("").code());
  EXPECT_EQ(codes.size(), 8u);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(7), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(NotFoundError("nope"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(v.value_or(7), 7);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v(std::make_unique<int>(5));
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> p = *std::move(v);
  EXPECT_EQ(*p, 5);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, ForkIsIndependentOfDrawCount) {
  Rng a(7), b(7);
  a.NextU64();  // advance one stream only
  // Forks depend only on (seed, name), not on generator state.
  EXPECT_EQ(a.Fork("x").NextU64(), b.Fork("x").NextU64());
}

TEST(RngTest, ForkDiffersByName) {
  Rng a(7);
  EXPECT_NE(a.Fork("x").NextU64(), a.Fork("y").NextU64());
}

TEST(RngTest, UniformU64RespectsBound) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformU64(17), 17u);
  }
}

TEST(RngTest, UniformU64CoversRange) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformU64(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliApproximatesProbability) {
  Rng rng(42);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ZipfFavorsLowRanks) {
  Rng rng(8);
  const ZipfTable zipf(10, 1.0);
  int64_t rank1 = 0, rank10 = 0;
  for (int i = 0; i < 20000; ++i) {
    uint64_t r = zipf.Draw(rng);
    ASSERT_GE(r, 1u);
    ASSERT_LE(r, 10u);
    if (r == 1) ++rank1;
    if (r == 10) ++rank10;
  }
  EXPECT_GT(rank1, rank10 * 4);
}

// The draw ZipfTable replaced (formerly Rng::Zipf), copied as the
// reference: it sums the normalizer again on every draw.
uint64_t ReferenceZipf(Rng& rng, uint64_t n, double s) {
  if (n == 1) return 1;
  double total = 0.0;
  for (uint64_t k = 1; k <= n; ++k) total += 1.0 / std::pow(double(k), s);
  double target = rng.UniformDouble() * total;
  double run = 0.0;
  for (uint64_t k = 1; k <= n; ++k) {
    run += 1.0 / std::pow(double(k), s);
    if (run >= target) return k;
  }
  return n;
}

TEST(RngTest, ZipfTableMatchesReferenceDraws) {
  for (uint64_t n : {1, 2, 3, 7, 64, 1000, 4096}) {
    for (double s : {0.5, 1.0, 1.5}) {
      const ZipfTable table(n, s);
      ASSERT_EQ(table.n(), n);
      Rng a(n * 31 + static_cast<uint64_t>(s * 10));
      Rng b = a;
      for (int i = 0; i < 10000; ++i) {
        ASSERT_EQ(table.Draw(a), ReferenceZipf(b, n, s))
            << "n=" << n << " s=" << s << " draw " << i;
      }
      // Same ranks from the same number of draws: the streams stay in step.
      EXPECT_EQ(a.NextU64(), b.NextU64()) << "n=" << n << " s=" << s;
    }
  }
}

TEST(RngTest, WeightedIndexProportional) {
  Rng rng(21);
  std::vector<double> weights = {1.0, 3.0};
  int hi = 0;
  for (int i = 0; i < 10000; ++i) {
    size_t k = rng.WeightedIndex(weights);
    ASSERT_LT(k, 2u);
    hi += k == 1;
  }
  EXPECT_NEAR(hi / 10000.0, 0.75, 0.03);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, HashStringStable) {
  EXPECT_EQ(HashString("abc"), HashString("abc"));
  EXPECT_NE(HashString("abc"), HashString("abd"));
  EXPECT_NE(HashString("abc", 1), HashString("abc", 2));
}

// ---------------------------------------------------------------------------
// Civil time
// ---------------------------------------------------------------------------

TEST(CivilTimeTest, EpochIsZero) {
  EXPECT_EQ(DayFromYmd(1970, 1, 1), 0);
  EXPECT_EQ(DateFromDay(0), (CivilDate{1970, 1, 1}));
}

TEST(CivilTimeTest, KnownDates) {
  EXPECT_EQ(DayFromYmd(2020, 1, 1), 18262);
  EXPECT_EQ(DayFromYmd(2011, 1, 1), 14975);
}

TEST(CivilTimeTest, LeapYears) {
  EXPECT_TRUE(IsLeapYear(2020));
  EXPECT_TRUE(IsLeapYear(2000));
  EXPECT_FALSE(IsLeapYear(1900));
  EXPECT_FALSE(IsLeapYear(2019));
  EXPECT_EQ(DaysInYear(2020), 366);
  EXPECT_EQ(DaysInYear(2021), 365);
  EXPECT_EQ(DaysInMonth(2020, 2), 29);
  EXPECT_EQ(DaysInMonth(2021, 2), 28);
}

TEST(CivilTimeTest, YearBoundariesAreConsistent) {
  for (int year = 2010; year <= 2022; ++year) {
    EXPECT_EQ(YearEnd(year) - YearStart(year) + 1, DaysInYear(year));
    EXPECT_EQ(YearStart(year + 1), YearEnd(year) + 1);
  }
}

TEST(CivilTimeTest, RoundTripAcrossDecades) {
  for (CivilDay day = DayFromYmd(1999, 12, 25); day < DayFromYmd(2030, 1, 7);
       day += 13) {
    EXPECT_EQ(DayFromDate(DateFromDay(day)), day);
  }
}

TEST(CivilTimeTest, FormatAndParse) {
  EXPECT_EQ(FormatDay(DayFromYmd(2021, 2, 15)), "2021-02-15");
  auto parsed = ParseDay("2021-02-15");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, DayFromYmd(2021, 2, 15));
}

TEST(CivilTimeTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseDay("not a date").ok());
  EXPECT_FALSE(ParseDay("2021-13-01").ok());
  EXPECT_FALSE(ParseDay("2021-02-30").ok());
}

TEST(DayIntervalTest, ContainsAndOverlaps) {
  DayInterval a{10, 20};
  EXPECT_TRUE(a.Contains(10));
  EXPECT_TRUE(a.Contains(20));
  EXPECT_FALSE(a.Contains(21));
  EXPECT_TRUE(a.Overlaps({20, 30}));
  EXPECT_TRUE(a.Overlaps({0, 10}));
  EXPECT_FALSE(a.Overlaps({21, 30}));
  EXPECT_EQ(a.LengthDays(), 11);
  EXPECT_EQ((DayInterval{5, 5}).LengthDays(), 1);
}

TEST(DayIntervalTest, LengthVersusGap) {
  // The §III-C stability filter compares the first-to-last *gap*
  // (last - first), which is one less than the inclusive LengthDays(). A
  // sighting on 7 consecutive calendar days spans only a 6-day gap.
  DayInterval week{DayFromYmd(2015, 3, 1), DayFromYmd(2015, 3, 7)};
  EXPECT_EQ(week.LengthDays(), 7);
  EXPECT_EQ(week.last - week.first, 6);
  DayInterval single{100, 100};
  EXPECT_EQ(single.last - single.first, 0);
  EXPECT_EQ(single.LengthDays(), 1);
}

TEST(DayIntervalTest, OverlapsIsSymmetricAndSelfInclusive) {
  DayInterval a{10, 20};
  EXPECT_TRUE(a.Overlaps(a));
  // Single-day touching at each endpoint, both directions.
  EXPECT_TRUE(a.Overlaps({10, 10}));
  EXPECT_TRUE(a.Overlaps({20, 20}));
  EXPECT_TRUE((DayInterval{20, 20}).Overlaps(a));
  EXPECT_FALSE(a.Overlaps({9, 9}));
  EXPECT_FALSE(a.Overlaps({21, 21}));
  // Containment in both nestings.
  EXPECT_TRUE(a.Overlaps({0, 30}));
  EXPECT_TRUE((DayInterval{0, 30}).Overlaps(a));
}

TEST(DayIntervalTest, YearBoundaryAdjacency) {
  // Dec 31 and Jan 1 are adjacent, not overlapping — the mining sweep
  // depends on year intervals partitioning the timeline exactly.
  DayInterval y2015{YearStart(2015), YearEnd(2015)};
  DayInterval y2016{YearStart(2016), YearEnd(2016)};
  EXPECT_EQ(y2015.last + 1, y2016.first);
  EXPECT_FALSE(y2015.Overlaps(y2016));
  EXPECT_EQ(y2015.LengthDays(), 365);
  EXPECT_EQ((DayInterval{YearStart(2012), YearEnd(2012)}).LengthDays(), 366);
  DayInterval crossing{DayFromYmd(2015, 12, 31), DayFromYmd(2016, 1, 1)};
  EXPECT_TRUE(crossing.Overlaps(y2015));
  EXPECT_TRUE(crossing.Overlaps(y2016));
}

// ---------------------------------------------------------------------------
// Strings
// ---------------------------------------------------------------------------

TEST(StringsTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(Split("a.b.c", '.'),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a..b", '.'), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", '.'), (std::vector<std::string>{""}));
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b"}, "."), "a.b");
  EXPECT_EQ(Join({}, "."), "");
}

TEST(StringsTest, CaseHelpers) {
  EXPECT_EQ(ToLower("NS1.Example.COM"), "ns1.example.com");
  EXPECT_TRUE(EqualsIgnoreCase("AbC", "aBc"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
  EXPECT_TRUE(EndsWithIgnoreCase("ns1.AWSDNS-03.com", ".awsdns-03.COM"));
  EXPECT_FALSE(EndsWithIgnoreCase("short", "longer-suffix"));
  EXPECT_TRUE(ContainsIgnoreCase("ns-0.AWSdns-12.org", ".awsdns-"));
  EXPECT_FALSE(ContainsIgnoreCase("ns1.cloudflare.com", ".awsdns-"));
}

TEST(StringsTest, WithCommas) {
  EXPECT_EQ(WithCommas(0), "0");
  EXPECT_EQ(WithCommas(999), "999");
  EXPECT_EQ(WithCommas(1000), "1,000");
  EXPECT_EQ(WithCommas(1234567), "1,234,567");
  EXPECT_EQ(WithCommas(-1234), "-1,234");
}

TEST(StringsTest, Percent) {
  EXPECT_EQ(Percent(0.2954), "29.5%");
  EXPECT_EQ(Percent(1.0, 0), "100%");
}

TEST(StringsTest, ParseUintTakesOnlyAWholeInRangeToken) {
  EXPECT_EQ(ParseUint("0", 10), 0u);
  EXPECT_EQ(ParseUint("21", 21), 21u);
  EXPECT_EQ(ParseUint("18446744073709551615", UINT64_MAX), UINT64_MAX);
  EXPECT_EQ(ParseUint("22", 21), std::nullopt);
  EXPECT_EQ(ParseUint("18446744073709551616", UINT64_MAX), std::nullopt);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "abc", "1.5",
                          "0x10", "nan", "inf"}) {
    EXPECT_EQ(ParseUint(bad, UINT64_MAX), std::nullopt) << bad;
  }
}

TEST(StringsTest, ParseDoubleTakesOnlyAWholeFiniteInRangeToken) {
  EXPECT_EQ(ParseDouble("0", 0.0, 10.0), 0.0);
  EXPECT_EQ(ParseDouble("0.25", 0.0, 10.0), 0.25);
  EXPECT_EQ(ParseDouble("1e1", 0.0, 10.0), 10.0);
  EXPECT_EQ(ParseDouble("-0.5", -1.0, 1.0), -0.5);
  EXPECT_EQ(ParseDouble("-1", 0.0, 10.0), std::nullopt);
  EXPECT_EQ(ParseDouble("10.5", 0.0, 10.0), std::nullopt);
  EXPECT_EQ(ParseDouble("1e400", 0.0, 1e308), std::nullopt);
  for (const char* bad : {"", "abc", "nan", "-nan", "inf", "-inf",
                          "infinity", "+1", " 1", "1 ", "1x", "1,5"}) {
    EXPECT_EQ(ParseDouble(bad, -1e308, 1e308), std::nullopt) << bad;
  }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(StatsTest, ModeBasic) {
  EXPECT_EQ(ModeOf({1, 2, 2, 3}), 2);
  EXPECT_EQ(ModeOf({5}), 5);
}

TEST(StatsTest, ModeTieBreaksTowardSmaller) {
  EXPECT_EQ(ModeOf({1, 1, 2, 2}), 1);
  EXPECT_EQ(ModeOf({3, 2, 3, 2}), 2);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> v = {0, 10};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 5.0);
}

TEST(StatsTest, MedianAndMean) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3, 4}), 2.5);
}

TEST(StatsTest, EmpiricalCdfMonotone) {
  auto cdf = EmpiricalCdf({3, 1, 2, 2});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1.0);
  EXPECT_DOUBLE_EQ(cdf[0].cumulative_fraction, 0.25);
  EXPECT_DOUBLE_EQ(cdf[1].cumulative_fraction, 0.75);
  EXPECT_DOUBLE_EQ(cdf[2].cumulative_fraction, 1.0);
}

TEST(StatsTest, HistogramBuckets) {
  auto counts = Histogram({0.5, 1.5, 1.7, 2.0}, {0, 1, 2});
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 3);  // final bucket inclusive of the last edge
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(TableTest, RendersAlignedColumns) {
  TextTable table({"A", "Looooong"});
  table.AddRow({"x", "y"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("| A "), std::string::npos);
  EXPECT_NE(out.find("| x "), std::string::npos);
}

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

TEST(ArenaTest, AllocRespectsAlignmentAndReset) {
  BumpArena arena(/*initial_bytes=*/256);
  void* a = arena.Alloc(3, 1);
  void* b = arena.Alloc(8, 8);
  EXPECT_NE(a, b);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 8, 0u);
  arena.Reset();
  // After a reset the same block is re-bumped from the start.
  EXPECT_EQ(arena.Alloc(3, 1), a);
  EXPECT_EQ(arena.block_count(), 1u);
}

TEST(ArenaTest, OverflowCoalescesToOneBlockOnReset) {
  BumpArena arena(/*initial_bytes=*/256);
  // Force several overflow blocks in one cycle.
  for (int i = 0; i < 8; ++i) arena.Alloc(300, 8);
  EXPECT_GT(arena.block_count(), 1u);
  const size_t high_water = arena.capacity_bytes();
  arena.Reset();
  // The steady state: one block, at least the high-water size, and the next
  // identical cycle allocates nothing new.
  EXPECT_EQ(arena.block_count(), 1u);
  EXPECT_GE(arena.capacity_bytes(), high_water);
  for (int i = 0; i < 8; ++i) arena.Alloc(300, 8);
  EXPECT_EQ(arena.block_count(), 1u);
}

TEST(ArenaTest, ArenaVecGrowsAndSurvivesRelocation) {
  BumpArena arena;
  ArenaVec<int> v(&arena);
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  ASSERT_EQ(v.size(), 1000u);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(v[static_cast<size_t>(i)], i);
  EXPECT_EQ(v.front(), 0);
  EXPECT_EQ(v.back(), 999);
  v.resize_down(10);
  EXPECT_EQ(v.size(), 10u);
  v.clear();
  EXPECT_TRUE(v.empty());
}

TEST(ArenaTest, ArenaVecHoldsPairScratchTypes) {
  // The miner's sweep scratch: pairs of scalars (not trivially copyable in
  // the std::is_trivially_copyable sense, but trivially destructible and
  // copy-constructible — the contract ArenaVec actually needs).
  BumpArena arena;
  ArenaVec<std::pair<int, int64_t>> v(&arena);
  for (int i = 0; i < 100; ++i) v.emplace_back(i, int64_t{1} << 40);
  EXPECT_EQ(v[99].first, 99);
  EXPECT_EQ(v[99].second, int64_t{1} << 40);
}

TEST(ArenaTest, CacheAlignedElementsLandOnDistinctLines) {
  static_assert(sizeof(CacheAligned<int>) == kCacheLineBytes);
  static_assert(alignof(CacheAligned<int>) == kCacheLineBytes);
  CacheAligned<int> two[2];
  const auto a = reinterpret_cast<uintptr_t>(&two[0].value);
  const auto b = reinterpret_cast<uintptr_t>(&two[1].value);
  EXPECT_GE(b - a, kCacheLineBytes);
}

TEST(TableTest, CsvEscaping) {
  TextTable table({"name", "value"});
  table.AddRow({"with,comma", "with\"quote"});
  std::string csv = table.ToCsv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

}  // namespace
}  // namespace govdns::util
