// Randomized property sweeps: each suite generates structured-random
// inputs from a seeded RNG and checks the implementation against a
// brute-force oracle or an algebraic invariant. TEST_P instantiations give
// independent seeds, so a failure names the seed that reproduces it.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "pdns/db.h"
#include "registrar/suffix.h"
#include "util/rng.h"
#include "util/stats.h"
#include "zone/auth_server.h"
#include "zone/lint.h"
#include "zone/zone.h"
#include "zone/zonefile.h"

namespace govdns {
namespace {

using dns::Name;
using dns::RRType;

// ---------------------------------------------------------------------------
// Random zone construction shared by the suites.
// ---------------------------------------------------------------------------

struct RandomZone {
  std::shared_ptr<zone::Zone> zone;
  std::vector<dns::ResourceRecord> records;  // everything added
  std::set<Name> delegation_cuts;
};

RandomZone MakeRandomZone(util::Rng& rng) {
  static const char* kLabels[] = {"a", "b", "ns1", "ns2", "www", "mail",
                                  "moe", "portal", "x", "y"};
  RandomZone out;
  Name origin = Name::FromString("gov.zz");
  out.zone = std::make_shared<zone::Zone>(origin);
  auto add = [&](dns::ResourceRecord rr) {
    out.records.push_back(rr);
    out.zone->Add(std::move(rr));
  };
  add(dns::MakeSoa(origin, origin.Child("ns1"), origin.Child("hostmaster"),
                   static_cast<uint32_t>(rng.UniformU64(1000) + 1)));
  add(dns::MakeNs(origin, origin.Child("ns1")));
  add(dns::MakeNs(origin, origin.Child("ns2")));
  add(dns::MakeA(origin.Child("ns1"),
                 geo::IPv4(static_cast<uint32_t>(rng.NextU64()))));
  add(dns::MakeA(origin.Child("ns2"),
                 geo::IPv4(static_cast<uint32_t>(rng.NextU64()))));

  int extra = 4 + static_cast<int>(rng.UniformU64(12));
  for (int i = 0; i < extra; ++i) {
    Name owner = origin.Child(kLabels[rng.UniformU64(std::size(kLabels))]);
    if (rng.Bernoulli(0.4)) {
      owner = owner.Child(kLabels[rng.UniformU64(std::size(kLabels))]);
    }
    switch (rng.UniformU64(3)) {
      case 0:
        add(dns::MakeA(owner, geo::IPv4(static_cast<uint32_t>(rng.NextU64()))));
        break;
      case 1:
        add(dns::MakeTxt(owner, "t" + std::to_string(rng.UniformU64(99))));
        break;
      default: {
        // A delegation cut (only if strictly below the origin and no data
        // name is its ancestor/descendant conflictingly — Zone allows it).
        if (owner.IsProperSubdomainOf(origin)) {
          add(dns::MakeNs(owner, owner.Child("ns1")));
          add(dns::MakeA(owner.Child("ns1"),
                         geo::IPv4(static_cast<uint32_t>(rng.NextU64()))));
          out.delegation_cuts.insert(owner);
        }
        break;
      }
    }
  }
  out.zone->Seal();
  return out;
}

// ---------------------------------------------------------------------------
// Zone lookup vs brute force
// ---------------------------------------------------------------------------

class ZoneOracleProperty : public ::testing::TestWithParam<int> {};

TEST_P(ZoneOracleProperty, FindMatchesBruteForce) {
  util::Rng rng(GetParam() * 7717);
  for (int round = 0; round < 20; ++round) {
    RandomZone rz = MakeRandomZone(rng);
    // Query every (name, type) combination seen plus some misses.
    std::set<Name> names;
    for (const auto& rr : rz.records) names.insert(rr.name);
    names.insert(Name::FromString("missing.gov.zz"));
    for (const Name& name : names) {
      for (RRType type : {RRType::kA, RRType::kNS, RRType::kTXT,
                          RRType::kSOA}) {
        auto got = rz.zone->Find(name, type);
        std::vector<dns::ResourceRecord> expected;
        for (const auto& rr : rz.records) {
          if (rr.name == name && rr.type() == type) expected.push_back(rr);
        }
        EXPECT_EQ(got.size(), expected.size())
            << name.ToString() << " " << dns::RRTypeName(type);
        // The whole RRset, in insertion order.
        EXPECT_EQ(std::vector<dns::ResourceRecord>(got.begin(), got.end()),
                  expected)
            << name.ToString() << " " << dns::RRTypeName(type);
      }
    }
    // record_count equals the number of added records.
    EXPECT_EQ(rz.zone->record_count(), rz.records.size());
  }
}

TEST_P(ZoneOracleProperty, DelegationDetectionMatchesCutSet) {
  util::Rng rng(GetParam() * 1337 + 3);
  for (int round = 0; round < 20; ++round) {
    RandomZone rz = MakeRandomZone(rng);
    std::set<Name> names;
    for (const auto& rr : rz.records) names.insert(rr.name);
    for (const Name& name : names) {
      auto cut = rz.zone->FindDelegation(name);
      // Oracle: the topmost cut that is an ancestor-or-self of the name.
      const Name* expected = nullptr;
      for (const Name& candidate : rz.delegation_cuts) {
        if (name.IsSubdomainOf(candidate) &&
            (expected == nullptr ||
             candidate.LabelCount() < expected->LabelCount())) {
          expected = &candidate;
        }
      }
      if (expected == nullptr) {
        EXPECT_FALSE(cut.has_value()) << name.ToString();
      } else {
        ASSERT_TRUE(cut.has_value()) << name.ToString();
        EXPECT_EQ(*cut, *expected) << name.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZoneOracleProperty, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// AuthServer responses are always well-formed and consistent with the zone
// ---------------------------------------------------------------------------

class AuthServerProperty : public ::testing::TestWithParam<int> {};

TEST_P(AuthServerProperty, ResponsesAreConsistentWithZoneData) {
  util::Rng rng(GetParam() * 90001);
  for (int round = 0; round < 15; ++round) {
    RandomZone rz = MakeRandomZone(rng);
    zone::AuthServer server("prop.test");
    server.AddZone(rz.zone);

    std::set<Name> names;
    for (const auto& rr : rz.records) names.insert(rr.name);
    names.insert(Name::FromString("nope.gov.zz"));
    names.insert(Name::FromString("deep.under.nope.gov.zz"));

    for (const Name& name : names) {
      auto query = dns::MakeQuery(1, name, RRType::kA);
      const std::vector<uint8_t> wire = server.Answer(query);
      // Every reply decodes, and re-encodes to the same bytes.
      auto decoded = dns::Message::Decode(wire);
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(decoded->Encode(), wire);
      const dns::Message& reply = *decoded;

      auto cut = rz.zone->FindDelegation(name);
      if (cut.has_value()) {
        // At or below a cut: must be a referral to that cut, never AA.
        EXPECT_FALSE(reply.header.aa) << name.ToString();
        ASSERT_TRUE(reply.IsReferral()) << name.ToString();
        for (const auto& rr : reply.authority) {
          EXPECT_EQ(rr.name, *cut);
        }
      } else {
        EXPECT_TRUE(reply.header.aa) << name.ToString();
        if (reply.header.rcode == dns::Rcode::kNxDomain) {
          EXPECT_FALSE(rz.zone->NameExists(name)) << name.ToString();
        }
        for (const auto& rr : reply.answers) {
          EXPECT_EQ(rr.name, name);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AuthServerProperty, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// Zone file round trip on random zones
// ---------------------------------------------------------------------------

class ZoneFileProperty : public ::testing::TestWithParam<int> {};

TEST_P(ZoneFileProperty, SerializeParseRoundTrip) {
  util::Rng rng(GetParam() * 5557);
  for (int round = 0; round < 10; ++round) {
    RandomZone rz = MakeRandomZone(rng);
    std::string text = zone::WriteZoneFile(*rz.zone);
    auto reparsed = zone::ParseZoneFile(text, rz.zone->origin());
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << text;
    EXPECT_EQ(reparsed->record_count(), rz.zone->record_count()) << text;
    // Every original record set survives with identical contents.
    std::set<Name> names;
    for (const auto& rr : rz.records) names.insert(rr.name);
    for (const Name& name : names) {
      for (RRType type :
           {RRType::kA, RRType::kNS, RRType::kTXT, RRType::kSOA}) {
        const auto a_view = rz.zone->Find(name, type);
        const auto b_view = reparsed->Find(name, type);
        std::vector<dns::ResourceRecord> a(a_view.begin(), a_view.end());
        std::vector<dns::ResourceRecord> b(b_view.begin(), b_view.end());
        ASSERT_EQ(a.size(), b.size()) << name.ToString();
        std::sort(a.begin(), a.end(), [](const auto& x, const auto& y) {
          return dns::RdataToString(x.rdata) < dns::RdataToString(y.rdata);
        });
        std::sort(b.begin(), b.end(), [](const auto& x, const auto& y) {
          return dns::RdataToString(x.rdata) < dns::RdataToString(y.rdata);
        });
        EXPECT_EQ(a, b) << name.ToString();
      }
    }
  }
}

TEST_P(ZoneFileProperty, LintIsStableAcrossRoundTrip) {
  // Linting a zone and linting its serialized-reparsed twin must agree on
  // the rule multiset (findings are structural, not textual).
  util::Rng rng(GetParam() * 7103);
  for (int round = 0; round < 10; ++round) {
    RandomZone rz = MakeRandomZone(rng);
    auto reparsed = zone::ParseZoneFile(zone::WriteZoneFile(*rz.zone),
                                        rz.zone->origin());
    ASSERT_TRUE(reparsed.ok());
    auto rules_of = [](const std::vector<zone::LintFinding>& findings) {
      std::multiset<zone::LintRule> rules;
      for (const auto& f : findings) rules.insert(f.rule);
      return rules;
    };
    EXPECT_EQ(rules_of(zone::LintZone(*rz.zone)),
              rules_of(zone::LintZone(*reparsed)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZoneFileProperty, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// PDNS wildcard search vs brute force
// ---------------------------------------------------------------------------

class PdnsOracleProperty : public ::testing::TestWithParam<int> {};

TEST_P(PdnsOracleProperty, WildcardSearchMatchesBruteForce) {
  util::Rng rng(GetParam() * 31321);
  static const char* kSuffixes[] = {"gov.aa", "gov.ab", "go.aa", "gov.aab"};
  static const char* kHosts[] = {"x", "y", "z"};

  pdns::PdnsSnapshotBuilder db(/*merge_gap_days=*/5);
  struct Observation {
    Name name;
    std::string rdata;
    util::DayInterval seen;
  };
  std::vector<Observation> observations;
  for (int i = 0; i < 300; ++i) {
    Name name = Name::FromString(kSuffixes[rng.UniformU64(4)]);
    int depth = static_cast<int>(rng.UniformU64(3));
    for (int d = 0; d < depth; ++d) {
      name = name.Child(kHosts[rng.UniformU64(3)]);
    }
    std::string rdata = "ns" + std::to_string(rng.UniformU64(3)) + ".h.cc";
    util::CivilDay start = static_cast<util::CivilDay>(rng.UniformU64(1000));
    util::CivilDay len = static_cast<util::CivilDay>(rng.UniformU64(40));
    db.ObserveInterval(name, RRType::kNS, rdata, {start, start + len});
    observations.push_back({name, rdata, {start, start + len}});
  }

  const pdns::PdnsSnapshot snap = db.Build();
  for (const char* suffix_text : kSuffixes) {
    Name suffix = Name::FromString(suffix_text);
    pdns::Query query;
    query.window = util::DayInterval{200, 600};
    auto hits = snap.WildcardSearch(suffix, query);
    // Oracle: brute-force day coverage per (name, rdata) key.
    std::set<std::pair<std::string, std::string>> expected_keys;
    for (const auto& ob : observations) {
      if (!ob.name.IsSubdomainOf(suffix)) continue;
      if (!ob.seen.Overlaps(*query.window)) continue;
      expected_keys.insert({ob.name.ToString(), ob.rdata});
    }
    std::set<std::pair<std::string, std::string>> got_keys;
    for (const auto& entry : hits) {
      EXPECT_TRUE(entry.rrname.IsSubdomainOf(suffix));
      EXPECT_TRUE(entry.seen.Overlaps(*query.window));
      got_keys.insert({entry.rrname.ToString(), entry.rdata});
    }
    // Every expected key surfaces (merged entries may widen intervals, so
    // extra keys cannot appear: a merged interval is a union of observed
    // ones... which may bridge the window — hence superset check).
    for (const auto& key : expected_keys) {
      EXPECT_TRUE(got_keys.contains(key)) << key.first << " " << key.second;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PdnsOracleProperty, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// Public-suffix list vs brute force
// ---------------------------------------------------------------------------

class PslOracleProperty : public ::testing::TestWithParam<int> {};

TEST_P(PslOracleProperty, RegisteredDomainMatchesBruteForce) {
  util::Rng rng(GetParam() * 41999);
  registrar::PublicSuffixList psl;
  std::vector<Name> suffixes = {
      Name::FromString("aa"),        Name::FromString("bb"),
      Name::FromString("co.aa"),     Name::FromString("gov.aa"),
      Name::FromString("gov.bb"),    Name::FromString("x.gov.bb"),
  };
  for (const auto& s : suffixes) psl.AddSuffix(s);

  static const char* kLabels[] = {"a", "b", "co", "gov", "x", "www"};
  for (int i = 0; i < 400; ++i) {
    // Random name over the same label alphabet, 1-5 labels, ending aa/bb.
    std::vector<std::string> labels;
    int n = 1 + static_cast<int>(rng.UniformU64(4));
    for (int j = 0; j < n; ++j) {
      labels.push_back(kLabels[rng.UniformU64(std::size(kLabels))]);
    }
    labels.push_back(rng.Bernoulli(0.5) ? "aa" : "bb");
    Name name = *Name::FromLabels(labels);

    // Oracle: longest suffix in the list, then +1 label.
    const Name* best = nullptr;
    for (const auto& s : suffixes) {
      if (name.IsSubdomainOf(s) &&
          (best == nullptr || s.LabelCount() > best->LabelCount())) {
        best = &s;
      }
    }
    auto got = psl.RegisteredDomain(name);
    if (best == nullptr || best->LabelCount() == name.LabelCount()) {
      EXPECT_FALSE(got.has_value()) << name.ToString();
    } else {
      ASSERT_TRUE(got.has_value()) << name.ToString();
      EXPECT_EQ(*got, name.Suffix(best->LabelCount() + 1)) << name.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PslOracleProperty, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// Statistics invariants
// ---------------------------------------------------------------------------

class StatsProperty : public ::testing::TestWithParam<int> {};

TEST_P(StatsProperty, ModeIsAnElementWithMaximalCount) {
  util::Rng rng(GetParam() * 65537);
  for (int round = 0; round < 50; ++round) {
    std::vector<int> values;
    int n = 1 + static_cast<int>(rng.UniformU64(40));
    for (int i = 0; i < n; ++i) {
      values.push_back(static_cast<int>(rng.UniformU64(6)));
    }
    int mode = util::ModeOf(values);
    std::map<int, int> counts;
    for (int v : values) ++counts[v];
    int max_count = 0;
    for (const auto& [v, c] : counts) max_count = std::max(max_count, c);
    EXPECT_EQ(counts[mode], max_count);
    // Tie-break: no smaller value has the same count.
    for (const auto& [v, c] : counts) {
      if (c == max_count) {
        EXPECT_GE(v, mode);
        break;  // map order: the first maximal is the smallest
      }
    }
  }
}

TEST_P(StatsProperty, PercentileIsMonotoneAndBounded) {
  util::Rng rng(GetParam() * 271);
  for (int round = 0; round < 20; ++round) {
    std::vector<double> values;
    int n = 1 + static_cast<int>(rng.UniformU64(60));
    for (int i = 0; i < n; ++i) values.push_back(rng.UniformDouble() * 100);
    double lo = *std::min_element(values.begin(), values.end());
    double hi = *std::max_element(values.begin(), values.end());
    double prev = lo;
    for (double p = 0.0; p <= 1.0001; p += 0.1) {
      double q = util::Percentile(values, std::min(p, 1.0));
      EXPECT_GE(q, lo - 1e-9);
      EXPECT_LE(q, hi + 1e-9);
      EXPECT_GE(q, prev - 1e-9);  // monotone in p
      prev = q;
    }
  }
}

TEST_P(StatsProperty, EmpiricalCdfIsAProperCdf) {
  util::Rng rng(GetParam() * 9001);
  std::vector<double> values;
  int n = 1 + static_cast<int>(rng.UniformU64(100));
  for (int i = 0; i < n; ++i) {
    values.push_back(double(rng.UniformU64(20)));
  }
  auto cdf = util::EmpiricalCdf(values);
  double prev_value = -1, prev_frac = 0;
  for (const auto& point : cdf) {
    EXPECT_GT(point.value, prev_value);
    EXPECT_GT(point.cumulative_fraction, prev_frac);
    prev_value = point.value;
    prev_frac = point.cumulative_fraction;
  }
  EXPECT_DOUBLE_EQ(cdf.back().cumulative_fraction, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsProperty, ::testing::Range(1, 9));

}  // namespace
}  // namespace govdns
