#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "pdns/db.h"
#include "util/rng.h"

namespace govdns::pdns {
namespace {

using dns::Name;
using dns::RRType;
using util::DayFromYmd;

// Every entry owned by exactly `rrname` that matches `query`.
std::vector<PdnsEntry> Lookup(const PdnsSnapshot& snap, const Name& rrname,
                              const Query& query = Query()) {
  std::vector<PdnsEntry> out = snap.WildcardSearch(rrname, query);
  std::erase_if(out, [&](const PdnsEntry& e) { return e.rrname != rrname; });
  return out;
}

// The incremental coalescing the store once did on every sighting, kept as
// the builder's reference: owners in a std::map (canonical order), each
// with its entries in creation order. A sighting extends the first same-key
// entry within the merge gap, then the widened entry absorbs any later
// entry it now reaches, until a fixed point.
class ReferenceDatabase {
 public:
  explicit ReferenceDatabase(int merge_gap_days)
      : merge_gap_days_(merge_gap_days) {}

  void ObserveInterval(const Name& rrname, RRType type,
                       const std::string& rdata, util::DayInterval interval,
                       uint64_t count_per_day = 1) {
    auto& entries = by_name_[rrname];
    const uint64_t count =
        count_per_day * static_cast<uint64_t>(interval.LengthDays());
    auto reaches = [&](const util::DayInterval& a,
                       const util::DayInterval& b) {
      return util::DayInterval{a.first - merge_gap_days_ - 1,
                               a.last + merge_gap_days_ + 1}
          .Overlaps(b);
    };
    auto same_key = [&](const PdnsEntry& e) {
      return e.type == type && e.rdata == rdata;
    };
    size_t merged = entries.size();
    for (size_t i = 0; i < entries.size(); ++i) {
      if (same_key(entries[i]) && reaches(entries[i].seen, interval)) {
        merged = i;
        break;
      }
    }
    if (merged == entries.size()) {
      entries.push_back(PdnsEntry{rrname, type, rdata, interval, count});
      return;
    }
    auto absorb = [](PdnsEntry& into, const util::DayInterval& seen,
                     uint64_t n) {
      into.seen.first = std::min(into.seen.first, seen.first);
      into.seen.last = std::max(into.seen.last, seen.last);
      into.count += n;
    };
    absorb(entries[merged], interval, count);
    for (bool changed = true; changed;) {
      changed = false;
      for (size_t i = 0; i < entries.size(); ++i) {
        if (i == merged || !same_key(entries[i]) ||
            !reaches(entries[merged].seen, entries[i].seen)) {
          continue;
        }
        absorb(entries[merged], entries[i].seen, entries[i].count);
        entries.erase(entries.begin() + static_cast<ptrdiff_t>(i));
        if (i < merged) --merged;
        changed = true;
        break;
      }
    }
  }

  std::vector<PdnsEntry> WildcardSearch(const Name& suffix,
                                        const Query& query) const {
    std::vector<PdnsEntry> out;
    for (auto it = by_name_.lower_bound(suffix); it != by_name_.end(); ++it) {
      if (!it->first.IsSubdomainOf(suffix)) break;
      for (const PdnsEntry& e : it->second) {
        if (EntryMatches({e.type, e.rdata, e.seen, e.count}, query)) {
          out.push_back(e);
        }
      }
    }
    return out;
  }

  const std::map<Name, std::vector<PdnsEntry>>& by_name() const {
    return by_name_;
  }

 private:
  int merge_gap_days_;
  std::map<Name, std::vector<PdnsEntry>> by_name_;
};

// Feeds the same sighting to the builder and to the reference.
struct BothStores {
  PdnsSnapshotBuilder builder;
  ReferenceDatabase reference;

  explicit BothStores(int gap) : builder(gap), reference(gap) {}
  void ObserveInterval(const Name& rrname, RRType type,
                       const std::string& rdata, util::DayInterval interval,
                       uint64_t count_per_day = 1) {
    builder.ObserveInterval(rrname, type, rdata, interval, count_per_day);
    reference.ObserveInterval(rrname, type, rdata, interval, count_per_day);
  }
};

// Same names in the same order, and per owner the same entries in the same
// order.
void ExpectSameStore(const PdnsSnapshot& snap, const ReferenceDatabase& ref) {
  ASSERT_EQ(snap.name_count(), ref.by_name().size());
  size_t i = 0, entries = 0;
  for (const auto& [name, want] : ref.by_name()) {
    EXPECT_EQ(snap.name(i), name) << "name " << i;
    std::vector<PdnsEntry> got;
    for (const PdnsEntryView v : snap.entries(i)) {
      got.push_back({name, v.type, std::string(v.rdata), v.seen, v.count});
    }
    EXPECT_EQ(got, want) << name.ToString();
    entries += want.size();
    ++i;
  }
  EXPECT_EQ(snap.entry_count(), entries);
}

TEST(PdnsTest, ObserveCreatesEntry) {
  PdnsSnapshotBuilder db;
  db.Observe(Name::FromString("moe.gov.cn"), RRType::kNS, "ns1.moe.gov.cn",
             DayFromYmd(2015, 3, 1));
  const PdnsSnapshot snap = db.Build();
  EXPECT_EQ(snap.entry_count(), 1u);
  auto entries = Lookup(snap, Name::FromString("moe.gov.cn"));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].rdata, "ns1.moe.gov.cn");
  EXPECT_EQ(entries[0].seen.first, entries[0].seen.last);
}

TEST(PdnsTest, NearbySightingsMerge) {
  PdnsSnapshotBuilder db(/*merge_gap_days=*/30);
  Name name = Name::FromString("moe.gov.cn");
  db.Observe(name, RRType::kNS, "ns1.x", DayFromYmd(2015, 3, 1));
  db.Observe(name, RRType::kNS, "ns1.x", DayFromYmd(2015, 3, 20));
  const PdnsSnapshot snap = db.Build();
  EXPECT_EQ(snap.entry_count(), 1u);
  auto entries = Lookup(snap, name);
  EXPECT_EQ(entries[0].seen.first, DayFromYmd(2015, 3, 1));
  EXPECT_EQ(entries[0].seen.last, DayFromYmd(2015, 3, 20));
}

TEST(PdnsTest, LongSilenceStartsNewEntry) {
  PdnsSnapshotBuilder db(/*merge_gap_days=*/30);
  Name name = Name::FromString("moe.gov.cn");
  db.Observe(name, RRType::kNS, "ns1.x", DayFromYmd(2015, 3, 1));
  db.Observe(name, RRType::kNS, "ns1.x", DayFromYmd(2016, 3, 1));
  EXPECT_EQ(db.Build().entry_count(), 2u);
}

TEST(PdnsTest, DifferentRdataNeverMerge) {
  PdnsSnapshotBuilder db;
  Name name = Name::FromString("moe.gov.cn");
  db.Observe(name, RRType::kNS, "ns1.x", DayFromYmd(2015, 3, 1));
  db.Observe(name, RRType::kNS, "ns2.x", DayFromYmd(2015, 3, 1));
  EXPECT_EQ(db.Build().entry_count(), 2u);
}

TEST(PdnsTest, DifferentTypesNeverMerge) {
  PdnsSnapshotBuilder db;
  Name name = Name::FromString("moe.gov.cn");
  db.Observe(name, RRType::kNS, "x", DayFromYmd(2015, 3, 1));
  db.Observe(name, RRType::kA, "x", DayFromYmd(2015, 3, 1));
  EXPECT_EQ(db.Build().entry_count(), 2u);
}

TEST(PdnsTest, CountAccumulates) {
  PdnsSnapshotBuilder db;
  Name name = Name::FromString("moe.gov.cn");
  db.ObserveInterval(name, RRType::kNS, "ns1.x",
                     {DayFromYmd(2015, 1, 1), DayFromYmd(2015, 1, 10)});
  auto entries = Lookup(db.Build(), name);
  EXPECT_EQ(entries[0].count, 10u);
}

TEST(PdnsTest, WildcardSearchFindsAllSubdomains) {
  PdnsSnapshotBuilder db;
  db.Observe(Name::FromString("gov.cn"), RRType::kNS, "a", 100);
  db.Observe(Name::FromString("moe.gov.cn"), RRType::kNS, "b", 100);
  db.Observe(Name::FromString("x.moe.gov.cn"), RRType::kNS, "c", 100);
  db.Observe(Name::FromString("gov.com"), RRType::kNS, "d", 100);
  auto hits = db.Build().WildcardSearch(Name::FromString("gov.cn"));
  EXPECT_EQ(hits.size(), 3u);
}

TEST(PdnsTest, WildcardSearchIsLabelBounded) {
  PdnsSnapshotBuilder db;
  db.Observe(Name::FromString("agov.cn"), RRType::kNS, "x", 100);
  db.Observe(Name::FromString("gov.cna"), RRType::kNS, "x", 100);
  // Neither is a subdomain of gov.cn even though the strings overlap.
  EXPECT_TRUE(db.Build().WildcardSearch(Name::FromString("gov.cn")).empty());
}

TEST(PdnsTest, QueryFiltersByType) {
  PdnsSnapshotBuilder db;
  Name name = Name::FromString("moe.gov.cn");
  db.Observe(name, RRType::kNS, "ns", 100);
  db.Observe(name, RRType::kA, "1.2.3.4", 100);
  Query q;
  q.type = RRType::kNS;
  EXPECT_EQ(Lookup(db.Build(), name, q).size(), 1u);
}

TEST(PdnsTest, QueryFiltersByWindowOverlap) {
  PdnsSnapshotBuilder db;
  Name name = Name::FromString("moe.gov.cn");
  db.ObserveInterval(name, RRType::kNS, "ns", {100, 200});
  const PdnsSnapshot snap = db.Build();
  Query q;
  q.window = util::DayInterval{150, 300};
  EXPECT_EQ(Lookup(snap, name, q).size(), 1u);
  q.window = util::DayInterval{201, 300};
  EXPECT_TRUE(Lookup(snap, name, q).empty());
}

TEST(PdnsTest, StabilityFilterDropsShortLived) {
  PdnsSnapshotBuilder db(/*merge_gap_days=*/0);
  Name name = Name::FromString("moe.gov.cn");
  db.ObserveInterval(name, RRType::kNS, "junk", {100, 102});     // gap 2
  db.ObserveInterval(name, RRType::kNS, "stable", {100, 300});   // gap 200
  Query q;
  q.min_seen_gap_days = 7;
  auto hits = Lookup(db.Build(), name, q);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].rdata, "stable");
}

TEST(PdnsTest, MinSeenGapUsesGapSemantics) {
  // Gap semantics, like the §III-C miner filter: keep iff last − first >= 7.
  // The {100, 106} sighting spans 7 calendar days but only a 6-day gap and
  // must be dropped — the old `LengthDays() < min_duration_days` predicate
  // kept it, letting the two filters drift apart.
  PdnsSnapshotBuilder db(/*merge_gap_days=*/0);
  Name name = Name::FromString("moe.gov.cn");
  db.ObserveInterval(name, RRType::kNS, "gap6", {100, 106});
  db.ObserveInterval(name, RRType::kNS, "gap7", {100, 107});
  Query q;
  q.min_seen_gap_days = 7;
  auto hits = Lookup(db.Build(), name, q);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].rdata, "gap7");
}

TEST(PdnsTest, ZeroGapMergesOnlyAdjacent) {
  PdnsSnapshotBuilder db(/*merge_gap_days=*/0);
  Name name = Name::FromString("a.b");
  db.Observe(name, RRType::kNS, "x", 100);
  db.Observe(name, RRType::kNS, "x", 101);  // adjacent: merges
  EXPECT_EQ(db.Build().entry_count(), 1u);
  db.Observe(name, RRType::kNS, "x", 103);  // one-day hole: new entry
  EXPECT_EQ(db.Build().entry_count(), 2u);
}

TEST(PdnsTest, EntriesKeepFirstSightingOrder) {
  // Per owner, entries come out in the order their first sighting arrived —
  // not sorted by type, rdata or day — and a later sighting that bridges two
  // entries folds them into the earlier-created one.
  PdnsSnapshotBuilder db(/*merge_gap_days=*/0);
  Name name = Name::FromString("moe.gov.cn");
  db.ObserveInterval(name, RRType::kNS, "zz", {300, 310});
  db.ObserveInterval(name, RRType::kA, "1.2.3.4", {100, 110});
  db.ObserveInterval(name, RRType::kNS, "aa", {200, 210});
  db.ObserveInterval(name, RRType::kNS, "zz", {100, 110});
  db.ObserveInterval(name, RRType::kNS, "zz", {111, 299});  // bridges both
  auto entries = Lookup(db.Build(), name);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].rdata, "zz");
  EXPECT_EQ(entries[0].seen, (util::DayInterval{100, 310}));
  EXPECT_EQ(entries[0].count, 211u);
  EXPECT_EQ(entries[1].rdata, "1.2.3.4");
  EXPECT_EQ(entries[2].rdata, "aa");
}

// ---------------------------------------------------------------------------
// Flat-index snapshot
// ---------------------------------------------------------------------------

TEST(PdnsSnapshotTest, WildcardRangeExcludesLookalikeNeighbors) {
  PdnsSnapshotBuilder db;
  // notgov.au and xgov.au are string-suffix lookalikes that sit adjacent to
  // the gov.au subtree in canonical order; the binary-searched range must
  // exclude them on label boundaries.
  db.Observe(Name::FromString("gov.au"), RRType::kNS, "a", 100);
  db.Observe(Name::FromString("health.gov.au"), RRType::kNS, "b", 100);
  db.Observe(Name::FromString("notgov.au"), RRType::kNS, "c", 100);
  db.Observe(Name::FromString("xgov.au"), RRType::kNS, "d", 100);
  db.Observe(Name::FromString("gov.aux"), RRType::kNS, "e", 100);
  const PdnsSnapshot snap = db.Build();
  EXPECT_EQ(snap.entry_count(), 5u);
  EXPECT_EQ(snap.name_count(), 5u);

  auto [lo, hi] = snap.WildcardNameRange(Name::FromString("gov.au"));
  EXPECT_EQ(hi - lo, 2u);
  auto hits = snap.WildcardSearch(Name::FromString("gov.au"));
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].rdata, "a");
  EXPECT_EQ(hits[1].rdata, "b");
  EXPECT_EQ(snap.EntriesInNameRange(lo, hi).size(), 2u);
  EXPECT_TRUE(snap.WildcardSearch(Name::FromString("gov.zz")).empty());
  auto [zlo, zhi] = snap.WildcardNameRange(Name::FromString("gov.zz"));
  EXPECT_TRUE(snap.EntriesInNameRange(zlo, zhi).empty());
}

TEST(PdnsSnapshotTest, EmptyAndDefaultSnapshotsAreSafe) {
  PdnsSnapshot defaulted;
  EXPECT_TRUE(defaulted.WildcardSearch(Name::FromString("gov.xx")).empty());
  EXPECT_TRUE(defaulted.WildcardSearch(Name::Root()).empty());
  EXPECT_TRUE(defaulted.EntriesInNameRange(0, 0).empty());
  PdnsSnapshotBuilder db;
  const PdnsSnapshot empty = db.Build();
  EXPECT_EQ(empty.entry_count(), 0u);
  EXPECT_EQ(empty.name_count(), 0u);
  auto [lo, hi] = empty.WildcardNameRange(Name::FromString("gov.xx"));
  EXPECT_TRUE(empty.EntriesInNameRange(lo, hi).empty());
}

// Property: the builder's one sort-merge agrees entry-for-entry (and in
// per-owner order) with incremental coalescing, and so do searches with
// filters, on random databases.
class PdnsSnapshotOracle : public ::testing::TestWithParam<int> {};

TEST_P(PdnsSnapshotOracle, FreezeMatchesMapBackedSearch) {
  util::Rng rng(GetParam() * 7717);
  static const char* kSuffixes[] = {"gov.au", "notgov.au", "xgov.au",
                                    "gov.aux", "go.au"};
  static const char* kLabels[] = {"health", "tax", "portal"};

  BothStores db(/*gap=*/10);
  for (int i = 0; i < 400; ++i) {
    Name name = Name::FromString(kSuffixes[rng.UniformU64(5)]);
    int depth = static_cast<int>(rng.UniformU64(3));
    for (int d = 0; d < depth; ++d) {
      name = name.Child(kLabels[rng.UniformU64(3)]);
    }
    RRType type = rng.Bernoulli(0.8) ? RRType::kNS : RRType::kA;
    std::string rdata = "ns" + std::to_string(rng.UniformU64(4)) + ".h.cc";
    util::CivilDay start = static_cast<util::CivilDay>(rng.UniformU64(1000));
    util::CivilDay len = static_cast<util::CivilDay>(rng.UniformU64(50));
    db.ObserveInterval(name, type, rdata, {start, start + len});
  }
  const PdnsSnapshot snap = db.builder.Build();
  ExpectSameStore(snap, db.reference);

  std::vector<Query> queries(4);
  queries[1].type = RRType::kNS;
  queries[2].window = util::DayInterval{200, 600};
  queries[3].type = RRType::kNS;
  queries[3].window = util::DayInterval{100, 800};
  queries[3].min_seen_gap_days = 7;

  for (const char* suffix_text : kSuffixes) {
    Name suffix = Name::FromString(suffix_text);
    for (const Query& query : queries) {
      EXPECT_EQ(snap.WildcardSearch(suffix, query),
                db.reference.WildcardSearch(suffix, query));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PdnsSnapshotOracle, ::testing::Range(1, 7));

// Random sighting streams built to stress the sort-merge against the
// incremental model: several owners, NS and A records, at least three
// rdatas per owner, intervals arriving out of order, and short sightings
// that land in the silence between two entries and bridge them.
TEST(PdnsBuilderTest, MatchesIncrementalCoalescingOnRandomStreams) {
  static const char* kOwners[] = {"gov.xx", "a.gov.xx", "b.gov.xx",
                                  "x.a.gov.xx", "gov.yy"};
  static const char* kRdata[] = {"ns1.p.net", "ns2.p.net", "ns3.q.org",
                                 "10.0.0.1"};
  for (int gap : {0, 5, 10, 30}) {
    for (uint64_t seed = 1; seed <= 40; ++seed) {
      util::Rng rng(seed * 977 + static_cast<uint64_t>(gap));
      BothStores db(gap);
      const int sightings = 20 + static_cast<int>(rng.UniformU64(150));
      for (int i = 0; i < sightings; ++i) {
        // The first 15 sightings give every owner three distinct rdatas.
        const Name owner =
            Name::FromString(kOwners[i < 15 ? i / 3 : rng.UniformU64(5)]);
        const RRType type = rng.Bernoulli(0.75) ? RRType::kNS : RRType::kA;
        const std::string rdata = kRdata[i < 15 ? i % 3 : rng.UniformU64(4)];
        const util::CivilDay start =
            static_cast<util::CivilDay>(rng.UniformU64(400));
        // Mostly short sightings so silences near the gap are common.
        const util::CivilDay len = static_cast<util::CivilDay>(
            rng.Bernoulli(0.2) ? rng.UniformU64(60) : rng.UniformU64(3));
        db.ObserveInterval(owner, type, rdata, {start, start + len},
                           1 + rng.UniformU64(3));
      }
      SCOPED_TRACE("gap=" + std::to_string(gap) +
                   " seed=" + std::to_string(seed));
      ExpectSameStore(db.builder.Build(), db.reference);
    }
  }
}

// Property: same-rdata entries never overlap, regardless of insert order.
class PdnsMergeProperty : public ::testing::TestWithParam<int> {};

TEST_P(PdnsMergeProperty, EntriesForSameKeyStayDisjoint) {
  util::Rng rng(GetParam() * 101);
  PdnsSnapshotBuilder db(/*merge_gap_days=*/10);
  Name name = Name::FromString("prop.gov.xx");
  for (int i = 0; i < 200; ++i) {
    util::CivilDay start = static_cast<util::CivilDay>(rng.UniformU64(2000));
    util::CivilDay len = static_cast<util::CivilDay>(rng.UniformU64(60));
    db.ObserveInterval(name, RRType::kNS, "ns1.x", {start, start + len});
  }
  auto entries = Lookup(db.Build(), name);
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_LE(entries[i].seen.first, entries[i].seen.last);
    for (size_t j = i + 1; j < entries.size(); ++j) {
      EXPECT_FALSE(entries[i].seen.Overlaps(entries[j].seen))
          << "entries " << i << " and " << j << " overlap";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PdnsMergeProperty, ::testing::Range(1, 9));

}  // namespace
}  // namespace govdns::pdns
