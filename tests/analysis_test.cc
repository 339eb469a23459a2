// Unit tests for the §IV analyses over synthetic MeasurementResults — every
// classification branch, without any network involved.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/analysis.h"
#include "util/rng.h"

namespace govdns::core {
namespace {

using dns::Name;

NsHostResult Host(const char* name, NsHostStatus status, bool in_p, bool in_c,
                  std::vector<geo::IPv4> addrs = {}) {
  NsHostResult host;
  host.host = Name::FromString(name);
  host.status = status;
  host.in_parent_set = in_p;
  host.in_child_set = in_c;
  host.addresses = std::move(addrs);
  return host;
}

MeasurementResult Result(const char* domain,
                         std::vector<const char*> parent_ns,
                         std::vector<const char*> child_ns,
                         std::vector<NsHostResult> hosts) {
  MeasurementResult r;
  r.domain = Name::FromString(domain);
  r.parent_located = true;
  r.parent_responded = true;
  for (const char* ns : parent_ns) r.parent_ns.push_back(Name::FromString(ns));
  for (const char* ns : child_ns) r.child_ns.push_back(Name::FromString(ns));
  r.parent_has_records = !r.parent_ns.empty();
  r.hosts = std::move(hosts);
  for (const auto& host : r.hosts) {
    if (host.status == NsHostStatus::kAuthoritative) {
      r.child_any_authoritative = true;
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Delegation classification
// ---------------------------------------------------------------------------

TEST(ClassifyDelegationTest, Healthy) {
  auto r = Result("d.gov.xx", {"a.x", "b.x"}, {"a.x", "b.x"},
                  {Host("a.x", NsHostStatus::kAuthoritative, true, true),
                   Host("b.x", NsHostStatus::kAuthoritative, true, true)});
  EXPECT_EQ(ClassifyDelegation(r), DelegationHealth::kHealthy);
}

TEST(ClassifyDelegationTest, EveryFailureModeIsDefective) {
  for (auto status : {NsHostStatus::kNonAuthoritative, NsHostStatus::kRefused,
                      NsHostStatus::kNoResponse, NsHostStatus::kUnresolvable}) {
    auto r = Result("d.gov.xx", {"a.x", "b.x"}, {"a.x", "b.x"},
                    {Host("a.x", NsHostStatus::kAuthoritative, true, true),
                     Host("b.x", status, true, true)});
    EXPECT_EQ(ClassifyDelegation(r), DelegationHealth::kPartiallyDefective)
        << static_cast<int>(status);
  }
}

TEST(ClassifyDelegationTest, AllBadIsFullyDefective) {
  auto r = Result("d.gov.xx", {"a.x", "b.x"}, {},
                  {Host("a.x", NsHostStatus::kNoResponse, true, false),
                   Host("b.x", NsHostStatus::kUnresolvable, true, false)});
  EXPECT_EQ(ClassifyDelegation(r), DelegationHealth::kFullyDefective);
}

TEST(ClassifyDelegationTest, ChildOnlyHostsDoNotCount) {
  // A dead child-only NS is an inconsistency problem, not a (parent)
  // delegation defect.
  auto r = Result("d.gov.xx", {"a.x"}, {"a.x", "c.x"},
                  {Host("a.x", NsHostStatus::kAuthoritative, true, true),
                   Host("c.x", NsHostStatus::kNoResponse, false, true)});
  EXPECT_EQ(ClassifyDelegation(r), DelegationHealth::kHealthy);
}

// ---------------------------------------------------------------------------
// Consistency classification
// ---------------------------------------------------------------------------

TEST(ClassifyConsistencyTest, Equal) {
  auto r = Result("d.gov.xx", {"a.x", "b.x"}, {"b.x", "a.x"},
                  {Host("a.x", NsHostStatus::kAuthoritative, true, true),
                   Host("b.x", NsHostStatus::kAuthoritative, true, true)});
  EXPECT_EQ(ClassifyConsistency(r), ConsistencyClass::kEqual);
}

TEST(ClassifyConsistencyTest, ChildSuperset) {
  auto r = Result("d.gov.xx", {"a.x"}, {"a.x", "b.x"},
                  {Host("a.x", NsHostStatus::kAuthoritative, true, true),
                   Host("b.x", NsHostStatus::kAuthoritative, false, true)});
  EXPECT_EQ(ClassifyConsistency(r), ConsistencyClass::kChildSuperset);
}

TEST(ClassifyConsistencyTest, ParentSuperset) {
  auto r = Result("d.gov.xx", {"a.x", "b.x"}, {"a.x"},
                  {Host("a.x", NsHostStatus::kAuthoritative, true, true),
                   Host("b.x", NsHostStatus::kNoResponse, true, false)});
  EXPECT_EQ(ClassifyConsistency(r), ConsistencyClass::kParentSuperset);
}

TEST(ClassifyConsistencyTest, OverlapNeither) {
  auto r = Result("d.gov.xx", {"a.x", "old.x"}, {"a.x", "new.x"},
                  {Host("a.x", NsHostStatus::kAuthoritative, true, true),
                   Host("old.x", NsHostStatus::kNoResponse, true, false),
                   Host("new.x", NsHostStatus::kAuthoritative, false, true)});
  EXPECT_EQ(ClassifyConsistency(r), ConsistencyClass::kOverlapNeither);
}

TEST(ClassifyConsistencyTest, DisjointWithSharedAddresses) {
  geo::IPv4 shared(10, 0, 0, 1);
  auto r = Result("d.gov.xx", {"old.x"}, {"new.x"},
                  {Host("old.x", NsHostStatus::kAuthoritative, true, false,
                        {shared}),
                   Host("new.x", NsHostStatus::kAuthoritative, false, true,
                        {shared})});
  EXPECT_EQ(ClassifyConsistency(r), ConsistencyClass::kDisjointSharedIp);
}

TEST(ClassifyConsistencyTest, DisjointDifferentAddresses) {
  auto r = Result("d.gov.xx", {"old.x"}, {"new.x"},
                  {Host("old.x", NsHostStatus::kAuthoritative, true, false,
                        {geo::IPv4(10, 0, 0, 1)}),
                   Host("new.x", NsHostStatus::kAuthoritative, false, true,
                        {geo::IPv4(10, 0, 0, 2)})});
  EXPECT_EQ(ClassifyConsistency(r), ConsistencyClass::kDisjoint);
}

TEST(ClassifyConsistencyTest, NoChildAnswerNotComparable) {
  auto r = Result("d.gov.xx", {"a.x"}, {},
                  {Host("a.x", NsHostStatus::kNoResponse, true, false)});
  EXPECT_EQ(ClassifyConsistency(r), ConsistencyClass::kNotComparable);
}

// ---------------------------------------------------------------------------
// Aggregations
// ---------------------------------------------------------------------------

ActiveDataset SmallDataset() {
  std::vector<CountryMeta> metas = {{"aa", "Aland", "Northern Europe", false},
                                    {"bb", "Borduria", "Eastern Europe", false}};
  std::vector<SeedDomain> seeds;
  seeds.push_back({0, Name::FromString("gov.aa"),
                   SeedVerification::kRegistryPolicy, false});
  seeds.push_back({1, Name::FromString("gov.bb"),
                   SeedVerification::kRegistryPolicy, false});

  std::vector<MeasurementResult> results;
  // Healthy 2-NS in aa.
  results.push_back(
      Result("x.gov.aa", {"n1.x.gov.aa", "n2.x.gov.aa"},
             {"n1.x.gov.aa", "n2.x.gov.aa"},
             {Host("n1.x.gov.aa", NsHostStatus::kAuthoritative, true, true,
                   {geo::IPv4(10, 0, 0, 1)}),
              Host("n2.x.gov.aa", NsHostStatus::kAuthoritative, true, true,
                   {geo::IPv4(10, 0, 1, 1)})}));
  // Stale 1-NS in aa.
  results.push_back(Result(
      "y.gov.aa", {"n1.y.gov.aa"}, {},
      {Host("n1.y.gov.aa", NsHostStatus::kNoResponse, true, false)}));
  // Partially defective in bb, pointing at an external dead host.
  results.push_back(
      Result("z.gov.bb", {"n1.z.gov.bb", "ns1.deadhost.com"},
             {"n1.z.gov.bb", "ns1.deadhost.com"},
             {Host("n1.z.gov.bb", NsHostStatus::kAuthoritative, true, true,
                   {geo::IPv4(10, 1, 0, 1)}),
              Host("ns1.deadhost.com", NsHostStatus::kUnresolvable, true,
                   true)}));
  // No parent records (removed) in bb.
  MeasurementResult removed;
  removed.domain = Name::FromString("w.gov.bb");
  removed.parent_located = true;
  removed.parent_responded = true;
  results.push_back(removed);

  return ActiveDataset::Build(std::move(results), std::move(seeds),
                              std::move(metas));
}

TEST(ActiveDatasetTest, BuildsCountryMapping) {
  auto dataset = SmallDataset();
  EXPECT_EQ(dataset.country[0], 0);
  EXPECT_EQ(dataset.country[2], 1);
}

// Regression: with duplicate seed rows for the same d_gov (equal label
// count), attribution used `>=` and silently let the *last* duplicate win.
// The tiebreak is first-seed-in-input-order, independent of list order.
TEST(ActiveDatasetTest, CountryTiebreakIsFirstSeedWins) {
  std::vector<CountryMeta> metas = {{"aa", "Aland", "Northern Europe", false},
                                    {"bb", "Borduria", "Eastern Europe", false}};
  std::vector<SeedDomain> seeds;
  seeds.push_back({0, Name::FromString("gov.aa"),
                   SeedVerification::kRegistryPolicy, false});
  seeds.push_back({1, Name::FromString("gov.aa"),
                   SeedVerification::kRegistryPolicy, false});

  std::vector<MeasurementResult> results;
  MeasurementResult r;
  r.domain = Name::FromString("x.gov.aa");
  results.push_back(r);

  auto dataset =
      ActiveDataset::Build(std::move(results), std::move(seeds), metas);
  EXPECT_EQ(dataset.country[0], 0);

  // Same duplicates, reversed: the first listed still wins.
  std::vector<SeedDomain> reversed;
  reversed.push_back({1, Name::FromString("gov.aa"),
                      SeedVerification::kRegistryPolicy, false});
  reversed.push_back({0, Name::FromString("gov.aa"),
                      SeedVerification::kRegistryPolicy, false});
  std::vector<MeasurementResult> results2;
  results2.push_back(r);
  auto dataset2 = ActiveDataset::Build(std::move(results2),
                                       std::move(reversed), metas);
  EXPECT_EQ(dataset2.country[0], 1);

  // The longest-match rule itself is untouched: a deeper seed still beats a
  // shallower one listed earlier.
  std::vector<SeedDomain> nested;
  nested.push_back({0, Name::FromString("aa"),
                    SeedVerification::kRegistryPolicy, false});
  nested.push_back({1, Name::FromString("gov.aa"),
                    SeedVerification::kRegistryPolicy, false});
  std::vector<MeasurementResult> results3;
  results3.push_back(r);
  auto dataset3 =
      ActiveDataset::Build(std::move(results3), std::move(nested), metas);
  EXPECT_EQ(dataset3.country[0], 1);
}

// The O(results x seeds) attribution loop ActiveDataset::Build used before
// the suffix lookup, kept as the reference it must reproduce.
std::vector<int> LinearScanCountries(
    const std::vector<MeasurementResult>& results,
    const std::vector<SeedDomain>& seeds) {
  std::vector<int> country(results.size(), -1);
  for (size_t i = 0; i < results.size(); ++i) {
    int best = -1;
    size_t best_labels = 0;
    for (const SeedDomain& seed : seeds) {
      if (!results[i].domain.IsSubdomainOf(seed.d_gov)) continue;
      if (best >= 0 && seed.d_gov.LabelCount() <= best_labels) continue;
      best = seed.country;
      best_labels = seed.d_gov.LabelCount();
    }
    country[i] = best;
  }
  return country;
}

TEST(ActiveDatasetTest, SeedAttributionMatchesLinearScan) {
  // A small label alphabet makes seeds nest, repeat and enclose the
  // measured domains often. Every seed carries a valid country index, as
  // selection's seeds do.
  const std::vector<std::string> words = {"gov", "go", "jis", "moh", "a"};
  const std::vector<std::string> tlds = {"aa", "bb", "jm"};
  const std::vector<CountryMeta> metas = {{"aa", "Aland", "N", false},
                                          {"bb", "Borduria", "E", false},
                                          {"jm", "Jamaica", "C", false},
                                          {"cc", "Cocos", "A", false}};
  util::Rng rng(20221);
  auto random_name = [&](size_t labels) {
    Name name = Name::FromString(rng.Pick(tlds));
    for (size_t k = 1; k < labels; ++k) name = name.Child(rng.Pick(words));
    return name;
  };
  // What the random inputs covered, so the equality below is not vacuous.
  int equal_to_seed = 0, under_no_seed = 0, nested = 0, conflicting = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<SeedDomain> seeds;
    const size_t seed_count = 1 + rng.UniformU64(12);
    for (size_t s = 0; s < seed_count; ++s) {
      SeedDomain seed;
      seed.country = static_cast<int>(rng.UniformU64(metas.size()));
      const uint64_t kind = seeds.empty() ? 0 : rng.UniformU64(3);
      if (kind == 0) {
        seed.d_gov = random_name(1 + rng.UniformU64(3));
      } else if (kind == 1) {  // a duplicate name, its country drawn anew
        seed.d_gov = rng.Pick(seeds).d_gov;
      } else {  // nested below, or enclosing, an earlier seed
        const Name& base = rng.Pick(seeds).d_gov;
        seed.d_gov = base.LabelCount() == 1 || rng.Bernoulli(0.5)
                         ? base.Child(rng.Pick(words))
                         : base.Parent();
      }
      seeds.push_back(seed);
    }
    std::vector<MeasurementResult> results(40);
    for (MeasurementResult& r : results) {
      const uint64_t kind = rng.UniformU64(3);
      if (kind == 0) {
        r.domain = rng.Pick(seeds).d_gov;
      } else if (kind == 1) {
        r.domain = rng.Pick(seeds).d_gov.Child(rng.Pick(words));
      } else {
        r.domain = random_name(1 + rng.UniformU64(5));
      }
    }
    const std::vector<int> expected = LinearScanCountries(results, seeds);
    const ActiveDataset dataset = ActiveDataset::Build(results, seeds, metas);
    EXPECT_EQ(dataset.country, expected) << "trial " << trial;

    for (const MeasurementResult& r : results) {
      std::vector<const SeedDomain*> enclosing;
      for (const SeedDomain& seed : seeds) {
        if (r.domain.IsSubdomainOf(seed.d_gov)) enclosing.push_back(&seed);
        if (r.domain == seed.d_gov) ++equal_to_seed;
      }
      if (enclosing.empty()) ++under_no_seed;
      for (const SeedDomain* a : enclosing) {
        for (const SeedDomain* b : enclosing) {
          if (a->d_gov.LabelCount() < b->d_gov.LabelCount()) ++nested;
          if (a < b && a->d_gov == b->d_gov && a->country != b->country) {
            ++conflicting;
          }
        }
      }
    }
  }
  EXPECT_GT(equal_to_seed, 0);
  EXPECT_GT(under_no_seed, 0);
  EXPECT_GT(nested, 0);
  EXPECT_GT(conflicting, 0);
}

TEST(ActiveDatasetTest, Funnel) {
  auto dataset = SmallDataset();
  auto funnel = dataset.ComputeFunnel();
  EXPECT_EQ(funnel.queried, 4);
  EXPECT_EQ(funnel.parent_responded, 4);
  EXPECT_EQ(funnel.parent_has_records, 3);
  EXPECT_EQ(funnel.child_authoritative, 2);
}

TEST(AnalyzeReplicationTest, CountsAndCdf) {
  auto summary = AnalyzeReplication(SmallDataset());
  EXPECT_EQ(summary.domains_considered, 3);
  EXPECT_EQ(summary.d1ns_count, 1);
  EXPECT_DOUBLE_EQ(summary.d1ns_stale_pct, 1.0);
  EXPECT_NEAR(summary.pct_at_least_two, 2.0 / 3.0, 1e-9);
  ASSERT_FALSE(summary.ns_count_cdf.empty());
  EXPECT_DOUBLE_EQ(summary.ns_count_cdf.back().second, 1.0);
}

TEST(AnalyzeDelegationsTest, PerCountryRows) {
  auto summary = AnalyzeDelegations(SmallDataset());
  EXPECT_EQ(summary.domains_considered, 3);
  EXPECT_EQ(summary.partially_defective, 1);
  EXPECT_EQ(summary.fully_defective, 1);
  ASSERT_EQ(summary.by_country.size(), 2u);
}

TEST(AnalyzeDiversityTest, MultiCounting) {
  geo::AsnDatabase asn_db;
  asn_db.Add(geo::Cidr(geo::IPv4(10, 0, 0, 0), 24), 100, "a");
  asn_db.Add(geo::Cidr(geo::IPv4(10, 0, 1, 0), 24), 200, "b");
  asn_db.Add(geo::Cidr(geo::IPv4(10, 1, 0, 0), 24), 300, "c");
  auto rows = AnalyzeDiversity(SmallDataset(), asn_db, {"aa", "bb"});
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].label, "Total");
  // Multi-NS domains with addresses: x.gov.aa (2 IPs, 2 /24s, 2 ASNs) and
  // z.gov.bb (1 IP).
  EXPECT_EQ(rows[0].domains, 2);
  EXPECT_DOUBLE_EQ(rows[0].pct_multi_ip, 0.5);
  EXPECT_DOUBLE_EQ(rows[0].pct_multi_24, 0.5);
  EXPECT_DOUBLE_EQ(rows[0].pct_multi_asn, 0.5);
  EXPECT_EQ(rows[1].label, "aa");
  EXPECT_DOUBLE_EQ(rows[1].pct_multi_ip, 1.0);
}

TEST(AnalyzeConsistencyTest, Percentages) {
  auto summary = AnalyzeConsistency(SmallDataset());
  EXPECT_EQ(summary.comparable, 2);
  EXPECT_DOUBLE_EQ(summary.pct_equal, 1.0);
}

class FakeRegistrar : public registrar::RegistrarClient {
 public:
  bool IsAvailable(const dns::Name& domain) const override {
    return domain == Name::FromString("deadhost.com");
  }
  std::optional<double> PriceUsd(const dns::Name& domain) const override {
    if (!IsAvailable(domain)) return std::nullopt;
    return 11.99;
  }
};

TEST(AnalyzeHijackRiskTest, FindsAvailableNsDomain) {
  registrar::PublicSuffixList psl;
  psl.AddSuffix(Name::FromString("com"));
  psl.AddSuffix(Name::FromString("aa"));
  psl.AddSuffix(Name::FromString("bb"));
  psl.AddSuffix(Name::FromString("gov.aa"));
  psl.AddSuffix(Name::FromString("gov.bb"));
  FakeRegistrar registrar;
  auto summary = AnalyzeHijackRisk(SmallDataset(), psl, registrar);
  EXPECT_EQ(summary.available_ns_domains, 1);
  EXPECT_EQ(summary.affected_domains, 1);
  EXPECT_EQ(summary.affected_countries, 1);
  ASSERT_EQ(summary.prices_usd.size(), 1u);
  EXPECT_DOUBLE_EQ(summary.prices_usd[0], 11.99);
  // Government-owned dead hosts (n1.y.gov.aa) were excluded.
  EXPECT_EQ(summary.candidate_ns_domains, 1);
}

class EverythingAvailableRegistrar : public registrar::RegistrarClient {
 public:
  bool IsAvailable(const dns::Name&) const override { return true; }
  std::optional<double> PriceUsd(const dns::Name&) const override {
    return 9.99;
  }
};

// A dead host under a seed nested below a name that is no seed itself (a
// jis.gov.jm-style seed) is government infrastructure: the suffix lookup
// has to find the deeper seed and skip the host, even where the registrar
// would sell its registered domain. A dead host beside that seed, under no
// seed, stays a candidate.
TEST(AnalyzeHijackRiskTest, SkipsDefectiveHostsUnderNestedSeeds) {
  ActiveDataset dataset = SmallDataset();
  dataset.seeds.push_back({1, Name::FromString("jis.gov.cc"),
                           SeedVerification::kRegisteredDomain, false});
  dataset.results.push_back(Result(
      "p.gov.bb", {"n1.p.gov.bb", "ns1.jis.gov.cc", "ns1.other.gov.cc"},
      {"n1.p.gov.bb"},
      {Host("n1.p.gov.bb", NsHostStatus::kAuthoritative, true, true),
       Host("ns1.jis.gov.cc", NsHostStatus::kNoResponse, true, false),
       Host("ns1.other.gov.cc", NsHostStatus::kNoResponse, true, false)}));
  dataset.country.push_back(1);
  registrar::PublicSuffixList psl;
  for (const char* suffix : {"com", "aa", "bb", "cc", "gov.aa", "gov.bb",
                             "gov.cc"}) {
    psl.AddSuffix(Name::FromString(suffix));
  }
  const HijackSummary summary =
      AnalyzeHijackRisk(dataset, psl, EverythingAvailableRegistrar());
  // deadhost.com and other.gov.cc; jis.gov.cc is a seed's own name.
  EXPECT_EQ(summary.candidate_ns_domains, 2);
  EXPECT_EQ(summary.available_ns_domains, 2);
  EXPECT_EQ(summary.affected_domains, 2);
}

}  // namespace
}  // namespace govdns::core
