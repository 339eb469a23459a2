#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/mining.h"
#include "tests/mined_datasets.h"

namespace govdns::core {
namespace {

using dns::Name;
using dns::RRType;
using testing::NsNames;
using testing::RandomDataset;
using util::DayFromYmd;

std::vector<SeedDomain> OneSeed() {
  return {{0, Name::FromString("gov.xx"), SeedVerification::kRegistryPolicy,
           false}};
}

TEST(DisposableHeuristicTest, MatchesHexTails) {
  EXPECT_TRUE(
      PdnsMiner::LooksDisposable(Name::FromString("portal-4f3a9c.gov.xx")));
  EXPECT_FALSE(PdnsMiner::LooksDisposable(Name::FromString("portal.gov.xx")));
  EXPECT_FALSE(
      PdnsMiner::LooksDisposable(Name::FromString("health-xyzwvu.gov.xx")));
  EXPECT_FALSE(PdnsMiner::LooksDisposable(Name::FromString("a-1.gov.xx")));
}

TEST(MinerTest, StabilityFilterDropsTransients) {
  pdns::PdnsSnapshotBuilder db(/*merge_gap_days=*/0);
  Name domain = Name::FromString("moe.gov.xx");
  db.ObserveInterval(domain, RRType::kNS, "ns1.moe.gov.xx",
                     {DayFromYmd(2015, 1, 1), DayFromYmd(2015, 12, 31)});
  db.ObserveInterval(domain, RRType::kNS, "ns1.ddos.net",
                     {DayFromYmd(2015, 6, 1), DayFromYmd(2015, 6, 3)});
  MiningConfig config;
  PdnsMiner miner(config);
  auto dataset = miner.Mine(db.Build(), OneSeed());
  ASSERT_EQ(dataset.domains.size(), 1u);
  EXPECT_EQ(dataset.Mode(0, 2015 - 2011), 1);
  const auto ids = dataset.NsIds(0, 2015 - 2011);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(dataset.NsName(ids[0]), "ns1.moe.gov.xx");
}

TEST(MinerTest, ModeReflectsMajorityOfDays) {
  pdns::PdnsSnapshotBuilder db(/*merge_gap_days=*/0);
  Name domain = Name::FromString("moe.gov.xx");
  // ns1 active all year; ns2 only 100 days: mode is 1 (265 days at count 1).
  db.ObserveInterval(domain, RRType::kNS, "ns1.x",
                     {DayFromYmd(2015, 1, 1), DayFromYmd(2015, 12, 31)});
  db.ObserveInterval(domain, RRType::kNS, "ns2.x",
                     {DayFromYmd(2015, 1, 1), DayFromYmd(2015, 4, 10)});
  PdnsMiner miner;
  auto dataset = miner.Mine(db.Build(), OneSeed());
  EXPECT_EQ(dataset.Mode(0, 4), 1);
}

TEST(MinerTest, ModeTwoWhenPairDominates) {
  pdns::PdnsSnapshotBuilder db(/*merge_gap_days=*/0);
  Name domain = Name::FromString("moe.gov.xx");
  db.ObserveInterval(domain, RRType::kNS, "ns1.x",
                     {DayFromYmd(2015, 1, 1), DayFromYmd(2015, 12, 31)});
  db.ObserveInterval(domain, RRType::kNS, "ns2.x",
                     {DayFromYmd(2015, 1, 1), DayFromYmd(2015, 9, 30)});
  PdnsMiner miner;
  auto dataset = miner.Mine(db.Build(), OneSeed());
  EXPECT_EQ(dataset.Mode(0, 4), 2);
}

TEST(MinerTest, StatisticVariants) {
  pdns::PdnsSnapshotBuilder db(/*merge_gap_days=*/0);
  Name domain = Name::FromString("moe.gov.xx");
  db.ObserveInterval(domain, RRType::kNS, "ns1.x",
                     {DayFromYmd(2015, 1, 1), DayFromYmd(2015, 12, 31)});
  db.ObserveInterval(domain, RRType::kNS, "ns2.x",
                     {DayFromYmd(2015, 7, 1), DayFromYmd(2015, 12, 31)});
  auto mine = [&](YearlyStatistic stat) {
    MiningConfig config;
    config.statistic = stat;
    PdnsMiner miner(config);
    return miner.Mine(db.Build(), OneSeed()).Mode(0, 4);
  };
  EXPECT_EQ(mine(YearlyStatistic::kMin), 1);
  EXPECT_EQ(mine(YearlyStatistic::kMax), 2);
  // 181 days at 1, 184 days at 2 -> mode 2, mean rounds to 2.
  EXPECT_EQ(mine(YearlyStatistic::kMode), 2);
  EXPECT_EQ(mine(YearlyStatistic::kMean), 2);
}

TEST(MinerTest, StabilityBoundaryMatchesPaper) {
  // §III-C: stable iff last_seen − first_seen >= 7 (the gap, not the
  // inclusive calendar length). The 7-calendar-day sighting below has only a
  // 6-day gap and must be dropped — the old `LengthDays() < stability_days`
  // predicate kept it.
  auto mine_span = [](int span_days) {
    pdns::PdnsSnapshotBuilder db(/*merge_gap_days=*/0);
    db.ObserveInterval(Name::FromString("moe.gov.xx"), RRType::kNS, "ns1.x",
                       {DayFromYmd(2015, 3, 1),
                        DayFromYmd(2015, 3, 1) + span_days - 1});
    PdnsMiner miner;
    auto dataset = miner.Mine(db.Build(), OneSeed());
    EXPECT_EQ(dataset.domains.size(), 1u);
    return !dataset.domains.empty() && dataset.HasData(0, 2015 - 2011);
  };
  EXPECT_FALSE(mine_span(6));  // gap 5: unstable either way
  EXPECT_FALSE(mine_span(7));  // gap 6: the off-by-one boundary
  EXPECT_TRUE(mine_span(8));   // gap 7: stable
}

TEST(MinerTest, StabilityBoundaryCountedInStats) {
  pdns::PdnsSnapshotBuilder db(/*merge_gap_days=*/0);
  Name domain = Name::FromString("moe.gov.xx");
  db.ObserveInterval(domain, RRType::kNS, "ns1.x",
                     {DayFromYmd(2015, 3, 1), DayFromYmd(2015, 3, 7)});
  db.ObserveInterval(domain, RRType::kNS, "ns2.x",
                     {DayFromYmd(2015, 3, 1), DayFromYmd(2015, 3, 8)});
  PdnsMiner miner;
  auto dataset = miner.Mine(db.Build(), OneSeed());
  EXPECT_EQ(dataset.stats.seeds, 1);
  EXPECT_EQ(dataset.stats.entries_scanned, 2);
  EXPECT_EQ(dataset.stats.entries_unstable, 1);
  EXPECT_EQ(dataset.stats.domains, 1);
  EXPECT_EQ(dataset.stats.domains_disposable, 0);
  EXPECT_EQ(dataset.stats.domains_in_active_window, 0);
}

TEST(MinerTest, RequireStableForActiveTightensQueryList) {
  pdns::PdnsSnapshotBuilder db(/*merge_gap_days=*/0);
  // A 2-day wonder inside the collection window.
  db.ObserveInterval(Name::FromString("brief.gov.xx"), RRType::kNS, "ns1.x",
                     {DayFromYmd(2020, 5, 1), DayFromYmd(2020, 5, 2)});
  MiningConfig config;
  config.require_stable_for_active = true;
  PdnsMiner miner(config);
  auto dataset = miner.Mine(db.Build(), OneSeed());
  ASSERT_EQ(dataset.domains.size(), 1u);
  EXPECT_FALSE(dataset.domains[0].in_active_window);
  EXPECT_TRUE(PdnsMiner::ActiveQueryList(dataset).empty());
}

TEST(MinerTest, YearBoundariesRespected) {
  pdns::PdnsSnapshotBuilder db(/*merge_gap_days=*/0);
  Name domain = Name::FromString("moe.gov.xx");
  db.ObserveInterval(domain, RRType::kNS, "ns1.x",
                     {DayFromYmd(2014, 12, 1), DayFromYmd(2015, 1, 20)});
  PdnsMiner miner;
  auto dataset = miner.Mine(db.Build(), OneSeed());
  ASSERT_EQ(dataset.domains.size(), 1u);
  EXPECT_TRUE(dataset.HasData(0, 2014 - 2011));
  EXPECT_TRUE(dataset.HasData(0, 2015 - 2011));
  EXPECT_FALSE(dataset.HasData(0, 2016 - 2011));
  EXPECT_FALSE(dataset.HasData(0, 2013 - 2011));
}

TEST(MinerTest, ModeSweepCountsYearEndDay) {
  pdns::PdnsSnapshotBuilder db(/*merge_gap_days=*/0);
  Name domain = Name::FromString("moe.gov.xx");
  // ns1 all year; ns2 Jul 2 .. Dec 31. Inclusive of Dec 31 that is 182 days
  // at count 1 vs 183 at count 2 -> mode 2. An off-by-one that drops the
  // year-end day (the sweep's `to+1` delta lands on Jan 1) ties 182/182 and
  // flips the mode to 1.
  db.ObserveInterval(domain, RRType::kNS, "ns1.x",
                     {DayFromYmd(2015, 1, 1), DayFromYmd(2015, 12, 31)});
  db.ObserveInterval(domain, RRType::kNS, "ns2.x",
                     {DayFromYmd(2015, 7, 2), DayFromYmd(2015, 12, 31)});
  PdnsMiner miner;
  auto dataset = miner.Mine(db.Build(), OneSeed());
  EXPECT_EQ(dataset.Mode(0, 2015 - 2011), 2);
  // The Jan 1, 2016 sweep delta must not leak a phantom 2016 sighting.
  EXPECT_FALSE(dataset.HasData(0, 2016 - 2011));
}

TEST(MinerTest, ModeSweepSplitsCrossYearInterval) {
  pdns::PdnsSnapshotBuilder db(/*merge_gap_days=*/0);
  Name domain = Name::FromString("moe.gov.xx");
  // Dec 1, 2015 .. Jan 31, 2016 clamps to 31 in-year days on each side.
  db.ObserveInterval(domain, RRType::kNS, "ns1.x",
                     {DayFromYmd(2015, 12, 1), DayFromYmd(2016, 1, 31)});
  // A second nameserver only around the new year: Dec 17 .. Jan 15 is 15
  // days at count 2 in each year — a minority against 16 single-NS days in
  // December and 16 in January, so both years keep mode 1. Counting the
  // boundary day twice (or leaking the `to+1` delta across the year edge)
  // would flip one of them.
  db.ObserveInterval(domain, RRType::kNS, "ns2.x",
                     {DayFromYmd(2015, 12, 17), DayFromYmd(2016, 1, 15)});
  PdnsMiner miner;
  auto dataset = miner.Mine(db.Build(), OneSeed());
  ASSERT_EQ(dataset.domains.size(), 1u);
  EXPECT_EQ(dataset.Mode(0, 2015 - 2011), 1);
  EXPECT_EQ(dataset.Mode(0, 2016 - 2011), 1);
  EXPECT_FALSE(dataset.HasData(0, 2014 - 2011));
  EXPECT_FALSE(dataset.HasData(0, 2017 - 2011));
}

TEST(MinerTest, ActiveWindowUsesUnfilteredSightings) {
  pdns::PdnsSnapshotBuilder db(/*merge_gap_days=*/0);
  // Only a 2-day sighting inside the collection window: dropped from the
  // yearly trend data, still in the query list (the paper extracted raw
  // FQDNs for querying).
  Name domain = Name::FromString("brief.gov.xx");
  db.ObserveInterval(domain, RRType::kNS, "ns1.x",
                     {DayFromYmd(2020, 5, 1), DayFromYmd(2020, 5, 2)});
  PdnsMiner miner;
  auto dataset = miner.Mine(db.Build(), OneSeed());
  ASSERT_EQ(dataset.domains.size(), 1u);
  EXPECT_FALSE(dataset.HasData(0, 2020 - 2011));
  EXPECT_TRUE(dataset.domains[0].in_active_window);
  EXPECT_EQ(PdnsMiner::ActiveQueryList(dataset).size(), 1u);
}

TEST(MinerTest, QueryListExcludesDisposablesAndStale) {
  pdns::PdnsSnapshotBuilder db(/*merge_gap_days=*/0);
  db.ObserveInterval(Name::FromString("real.gov.xx"), RRType::kNS, "a",
                     {DayFromYmd(2020, 1, 1), DayFromYmd(2020, 8, 1)});
  db.ObserveInterval(Name::FromString("junk-0a1b2c.gov.xx"), RRType::kNS, "b",
                     {DayFromYmd(2020, 1, 1), DayFromYmd(2020, 8, 1)});
  db.ObserveInterval(Name::FromString("old.gov.xx"), RRType::kNS, "c",
                     {DayFromYmd(2015, 1, 1), DayFromYmd(2016, 8, 1)});
  PdnsMiner miner;
  auto dataset = miner.Mine(db.Build(), OneSeed());
  auto list = PdnsMiner::ActiveQueryList(dataset);
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0].ToString(), "real.gov.xx");
}

TEST(MinerTest, WorkerCountCannotChangeTheDataset) {
  // Multi-seed database with NS hostnames shared across seeds, so the
  // worker-local intern tables genuinely disagree before the fold remaps
  // them. Any worker count must produce the byte-identical MinedDataset —
  // ns_names order and stats included.
  pdns::PdnsSnapshotBuilder db(/*merge_gap_days=*/0);
  std::vector<SeedDomain> seeds;
  for (int c = 0; c < 5; ++c) {
    std::string cc = std::string("a") + char('a' + c);
    seeds.push_back({c, Name::FromString("gov." + cc),
                     SeedVerification::kRegistryPolicy, false});
    for (int d = 0; d < 4; ++d) {
      Name domain = Name::FromString("d" + std::to_string(d) + ".gov." + cc);
      // "shared.host.zz" appears under every seed; the rest are seed-local.
      db.ObserveInterval(domain, RRType::kNS, "shared.host.zz",
                         {DayFromYmd(2012 + c, 1, 1), DayFromYmd(2019, 6, 1)});
      db.ObserveInterval(domain, RRType::kNS,
                         "ns" + std::to_string(d) + ".gov." + cc,
                         {DayFromYmd(2013, 1, 1), DayFromYmd(2020, 6, 1)});
      db.ObserveInterval(domain, RRType::kNS, "flaky.host.zz",
                         {DayFromYmd(2016, 5, 1), DayFromYmd(2016, 5, 3)});
    }
  }
  auto mine = [&](int workers) {
    MinerOptions options;
    options.workers = workers;
    PdnsMiner miner(MiningConfig(), options);
    return miner.Mine(db.Build(), seeds);
  };
  const MinedDataset serial = mine(1);
  EXPECT_EQ(serial.stats.seeds, 5);
  EXPECT_EQ(serial.stats.domains, 20);
  EXPECT_GT(serial.stats.entries_unstable, 0);
  // First-appearance intern order: seed 0's first domain sees the shared
  // host first, then its own ns0.
  ASSERT_GE(serial.ns_count(), 2u);
  EXPECT_EQ(serial.NsName(0), "shared.host.zz");
  EXPECT_EQ(serial.NsName(1), "ns0.gov.aa");
  for (int workers : {2, 3, 7, 16}) {
    const MinedDataset pooled = mine(workers);
    EXPECT_TRUE(pooled == serial) << "workers=" << workers;
    EXPECT_EQ(NsNames(pooled), NsNames(serial)) << "workers=" << workers;
    EXPECT_EQ(pooled.stats, serial.stats) << "workers=" << workers;
  }
}

TEST(AggregatesTest, CountPerYearAndChurn) {
  pdns::PdnsSnapshotBuilder db(/*merge_gap_days=*/0);
  // One domain 2011-2020 with a single NS; a second domain appears in 2015
  // as d_1NS; a third is always dual-NS.
  db.ObserveInterval(Name::FromString("a.gov.xx"), RRType::kNS, "ns1.a.gov.xx",
                     {DayFromYmd(2011, 1, 1), DayFromYmd(2020, 12, 31)});
  db.ObserveInterval(Name::FromString("b.gov.xx"), RRType::kNS, "ns1.b.gov.xx",
                     {DayFromYmd(2015, 2, 1), DayFromYmd(2020, 12, 31)});
  db.ObserveInterval(Name::FromString("c.gov.xx"), RRType::kNS, "x1.host.zz",
                     {DayFromYmd(2011, 1, 1), DayFromYmd(2020, 12, 31)});
  db.ObserveInterval(Name::FromString("c.gov.xx"), RRType::kNS, "x2.host.zz",
                     {DayFromYmd(2011, 1, 1), DayFromYmd(2020, 12, 31)});
  PdnsMiner miner;
  auto dataset = miner.Mine(db.Build(), OneSeed());

  auto counts = CountPerYear(dataset);
  ASSERT_EQ(counts.size(), 10u);
  EXPECT_EQ(counts[0].domains, 2);
  EXPECT_EQ(counts[5].domains, 3);
  EXPECT_EQ(counts[0].nameservers, 3);
  EXPECT_EQ(counts[0].countries, 1);

  auto churn = D1nsChurn(dataset);
  EXPECT_EQ(churn[0].d1ns_total, 1);  // a only
  EXPECT_EQ(churn[5].d1ns_total, 2);  // a and b
  // In 2016, b was not d_1NS in 2011 -> 50% overlap with 2011.
  EXPECT_DOUBLE_EQ(churn[5].pct_overlap_2011, 0.5);
  EXPECT_DOUBLE_EQ(churn[5].pct_2011_cohort_gone, 0.0);

  auto priv = PrivateShare(dataset, OneSeed());
  // a and b are private (NS inside gov.xx); c is external.
  EXPECT_DOUBLE_EQ(priv[5].pct_d1ns_private, 1.0);
  EXPECT_NEAR(priv[5].pct_all_private, 2.0 / 3.0, 1e-9);
}

// The std::set CountPerYear and D1nsChurn that the dense versions replaced,
// kept verbatim as the reference they must match.
std::vector<YearlyCounts> SetCountPerYear(const MinedDataset& dataset) {
  const int years = dataset.config.year_count();
  std::vector<YearlyCounts> out(years);
  std::vector<std::set<int>> countries(years);
  std::vector<std::set<int32_t>> nameservers(years);
  for (int y = 0; y < years; ++y) {
    out[y].year = dataset.config.first_year + y;
  }
  for (size_t i = 0; i < dataset.domains.size(); ++i) {
    for (int y = 0; y < years; ++y) {
      if (!dataset.HasData(i, y)) continue;
      ++out[y].domains;
      countries[y].insert(dataset.domains[i].country);
      const auto ids = dataset.NsIds(i, y);
      nameservers[y].insert(ids.begin(), ids.end());
    }
  }
  for (int y = 0; y < years; ++y) {
    out[y].countries = static_cast<int64_t>(countries[y].size());
    out[y].nameservers = static_cast<int64_t>(nameservers[y].size());
  }
  return out;
}

std::vector<D1nsChurnRow> SetD1nsChurn(const MinedDataset& dataset) {
  const int years = dataset.config.year_count();
  std::vector<std::set<size_t>> d1ns(years);
  std::vector<std::set<size_t>> has_data(years);
  for (size_t i = 0; i < dataset.domains.size(); ++i) {
    for (int y = 0; y < years; ++y) {
      if (!dataset.HasData(i, y)) continue;
      has_data[y].insert(i);
      if (dataset.Mode(i, y) == 1) d1ns[y].insert(i);
    }
  }
  std::vector<D1nsChurnRow> out;
  for (int y = 0; y < years; ++y) {
    D1nsChurnRow row;
    row.year = dataset.config.first_year + y;
    row.d1ns_total = static_cast<int64_t>(d1ns[y].size());
    if (y > 0 && !d1ns[y].empty()) {
      int64_t overlap_2011 = 0, fresh = 0;
      for (size_t i : d1ns[y]) {
        if (d1ns[0].contains(i)) ++overlap_2011;
        if (!d1ns[y - 1].contains(i)) ++fresh;
      }
      row.pct_overlap_2011 = double(overlap_2011) / double(d1ns[y].size());
      row.pct_new_vs_prev = double(fresh) / double(d1ns[y].size());
    }
    if (y > 0 && !d1ns[0].empty()) {
      int64_t gone = 0;
      for (size_t i : d1ns[0]) {
        if (!has_data[y].contains(i)) ++gone;
      }
      row.pct_2011_cohort_gone = double(gone) / double(d1ns[0].size());
    }
    out.push_back(row);
  }
  return out;
}

TEST(AggregatesTest, DenseMatchesSetReference) {
  int churn_rows_with_overlap = 0;
  for (uint64_t seed = 0; seed < 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const MinedDataset dataset = RandomDataset(seed);

    const std::vector<YearlyCounts> counts = CountPerYear(dataset);
    const std::vector<YearlyCounts> counts_ref = SetCountPerYear(dataset);
    ASSERT_EQ(counts.size(), counts_ref.size());
    for (size_t y = 0; y < counts.size(); ++y) {
      EXPECT_EQ(counts[y].year, counts_ref[y].year);
      EXPECT_EQ(counts[y].domains, counts_ref[y].domains);
      EXPECT_EQ(counts[y].countries, counts_ref[y].countries);
      EXPECT_EQ(counts[y].nameservers, counts_ref[y].nameservers);
    }

    // Same integer numerators and denominators, so the doubles are exact.
    const std::vector<D1nsChurnRow> churn = D1nsChurn(dataset);
    const std::vector<D1nsChurnRow> churn_ref = SetD1nsChurn(dataset);
    ASSERT_EQ(churn.size(), churn_ref.size());
    for (size_t y = 0; y < churn.size(); ++y) {
      EXPECT_EQ(churn[y].year, churn_ref[y].year);
      EXPECT_EQ(churn[y].d1ns_total, churn_ref[y].d1ns_total);
      EXPECT_EQ(churn[y].pct_overlap_2011, churn_ref[y].pct_overlap_2011);
      EXPECT_EQ(churn[y].pct_new_vs_prev, churn_ref[y].pct_new_vs_prev);
      EXPECT_EQ(churn[y].pct_2011_cohort_gone,
                churn_ref[y].pct_2011_cohort_gone);
      if (churn_ref[y].pct_overlap_2011 > 0.0) ++churn_rows_with_overlap;
    }
  }
  // The odd seeds keep a populated first year, so the churn ratios were
  // exercised, not only their zero defaults.
  EXPECT_GT(churn_rows_with_overlap, 0);
}

}  // namespace
}  // namespace govdns::core
