#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "ckpt/journal.h"
#include "pdns/db.h"
#include "worldgen/countries.h"
#include "worldgen/providers.h"
#include "worldgen/world.h"
#include "zone/zonefile.h"

namespace govdns::worldgen {
namespace {

// ---------------------------------------------------------------------------
// Static tables
// ---------------------------------------------------------------------------

TEST(CountryTableTest, Has193UniqueMembers) {
  auto countries = Countries();
  EXPECT_EQ(countries.size(), 193u);
  std::set<std::string> codes;
  for (const auto& c : countries) codes.insert(c.code);
  EXPECT_EQ(codes.size(), 193u);
}

TEST(CountryTableTest, SubRegionsAreTheTwentyTwoM49Ones) {
  std::set<std::string> valid(SubRegionNames().begin(),
                              SubRegionNames().end());
  EXPECT_EQ(valid.size(), 22u);
  std::set<std::string> used;
  for (const auto& c : Countries()) {
    ASSERT_TRUE(valid.contains(c.subregion)) << c.code;
    used.insert(c.subregion);
  }
  EXPECT_EQ(used.size(), 22u);  // every sub-region has members
}

TEST(CountryTableTest, Top10AreRealCountriesWithExplicitTargets) {
  auto top10 = Top10CountryCodes();
  EXPECT_EQ(top10.size(), 10u);
  for (const char* code : top10) {
    int idx = CountryIndexByCode(code);
    ASSERT_GE(idx, 0) << code;
    EXPECT_TRUE(Countries()[idx].explicit_target) << code;
  }
  // 22 sub-regions + 10 split-out countries = the paper's 32 groups.
  EXPECT_EQ(SubRegionNames().size() + top10.size(), 32u);
}

TEST(CountryTableTest, IndexByCode) {
  EXPECT_GE(CountryIndexByCode("cn"), 0);
  EXPECT_EQ(CountryIndexByCode("zz"), -1);
  EXPECT_EQ(std::string(Countries()[CountryIndexByCode("br")].name), "Brazil");
}

TEST(ProviderTableTest, GroupKeysUniqueAndIndexed) {
  std::set<std::string> keys;
  for (const auto& p : Providers()) keys.insert(p.group_key);
  EXPECT_EQ(keys.size(), Providers().size());
  EXPECT_GE(ProviderIndexByGroupKey("cloudflare.com"), 0);
  EXPECT_EQ(ProviderIndexByGroupKey("nope"), -1);
}

TEST(ProviderTableTest, HostnameGenerationFollowsStyles) {
  const auto& aws = Providers()[ProviderIndexByGroupKey("AWS DNS")];
  auto host = ProviderHostname(aws, 0);
  EXPECT_NE(host.ToString().find("awsdns-"), std::string::npos);
  const auto& azure = Providers()[ProviderIndexByGroupKey("Azure DNS")];
  EXPECT_NE(ProviderHostname(azure, 2).ToString().find("azure-dns."),
            std::string::npos);
  const auto& cf = Providers()[ProviderIndexByGroupKey("cloudflare.com")];
  EXPECT_TRUE(ProviderHostname(cf, 0).IsSubdomainOf(
      dns::Name::FromString("ns.cloudflare.com")));
}

TEST(ProviderTableTest, CustomerNsPicksAreValid) {
  util::Rng rng(5);
  for (const auto& spec : Providers()) {
    for (int trial = 0; trial < 10; ++trial) {
      auto ns = PickCustomerNs(spec, rng);
      EXPECT_EQ(ns.size(), static_cast<size_t>(spec.ns_per_customer))
          << spec.display;
      std::set<dns::Name> distinct(ns.begin(), ns.end());
      EXPECT_EQ(distinct.size(), ns.size()) << spec.display;
    }
  }
}

// ---------------------------------------------------------------------------
// Generated-world invariants (small world, shared across tests)
// ---------------------------------------------------------------------------

class WorldTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorldConfig config;
    config.scale = 0.02;
    world_ = BuildWorld(config).release();
  }
  static void TearDownTestSuite() { delete world_; }
  static World* world_;
};

World* WorldTest::world_ = nullptr;

TEST_F(WorldTest, EveryCountryHasSuffixAndKbEntry) {
  ASSERT_EQ(world_->country_runtime().size(), 193u);
  ASSERT_EQ(world_->knowledge_base().size(), 193u);
  for (const auto& rt : world_->country_runtime()) {
    EXPECT_FALSE(rt.suffix.IsRoot());
    EXPECT_FALSE(rt.central_ns.empty());
  }
}

TEST_F(WorldTest, DomainsBelongToTheirCountrySuffix) {
  for (const auto& d : world_->domains()) {
    ASSERT_GE(d.country, 0);
    EXPECT_TRUE(d.name.IsSubdomainOf(
        world_->country_runtime()[d.country].suffix))
        << d.name.ToString();
  }
}

TEST_F(WorldTest, EpochsAreContiguousAndOrdered) {
  for (const auto& d : world_->domains()) {
    ASSERT_FALSE(d.epochs.empty()) << d.name.ToString();
    for (size_t i = 0; i < d.epochs.size(); ++i) {
      EXPECT_LE(d.epochs[i].days.first, d.epochs[i].days.last);
      if (i > 0) {
        EXPECT_EQ(d.epochs[i].days.first, d.epochs[i - 1].days.last + 1)
            << d.name.ToString();
      }
      EXPECT_FALSE(d.epochs[i].ns_names.empty());
    }
    EXPECT_EQ(d.epochs.front().days.first, d.birth);
  }
}

TEST_F(WorldTest, QueryListDomainsWereVisibleInWindow) {
  const util::CivilDay window_start = util::DayFromYmd(2020, 1, 1);
  for (const auto& d : world_->domains()) {
    if (!d.in_query_list) continue;
    EXPECT_FALSE(d.disposable_excluded) << d.name.ToString();
    bool visible = d.death == kAliveForever || d.death >= window_start ||
                   d.fate == DomainFate::kStaleDelegation;
    EXPECT_TRUE(visible) << d.name.ToString();
  }
}

TEST_F(WorldTest, PdnsCoversEveryNonDisposableDomain) {
  int checked = 0;
  for (const auto& d : world_->domains()) {
    if (checked >= 500) break;  // spot-check; full sweep is slow
    ++checked;
    const pdns::PdnsSnapshot& pdns = world_->pdns_db();
    const auto [lo, hi] = pdns.WildcardNameRange(d.name);
    EXPECT_TRUE(lo < hi && pdns.name_key(lo) == d.name.CanonicalKey() &&
                !pdns.entries(lo).empty())
        << d.name.ToString();
  }
}

TEST_F(WorldTest, ActiveDomainsHaveReachableInfrastructure) {
  // For a sample of kActive domains, at least one final-epoch NS hostname
  // resolves within the world's host map and answers authoritatively.
  int checked = 0;
  for (const auto& d : world_->domains()) {
    if (!d.in_query_list || d.fate != DomainFate::kActive) continue;
    if (d.parked_ns_ref || d.relative_name_truncation) continue;
    if (++checked > 200) break;
    // The zone must exist: query via the network is covered by integration
    // tests; here we just check the endpoint bookkeeping is consistent.
    EXPECT_FALSE(d.epochs.back().ns_names.empty());
  }
  EXPECT_GT(checked, 50);
}

TEST_F(WorldTest, RegistrarStateMatchesGroundTruth) {
  for (const auto& rt : world_->country_runtime()) {
    for (const auto& comp : rt.companies) {
      bool alive = comp.last_year == 0;
      if (alive) {
        EXPECT_TRUE(world_->registrar_client().IsRegistered(comp.domain))
            << comp.domain.ToString();
      }
      if (comp.dead_and_available || comp.dead_and_parked) {
        EXPECT_TRUE(world_->registrar_client().IsAvailable(comp.domain))
            << comp.domain.ToString();
      }
      if (comp.dead_and_parked) {
        auto price = world_->registrar_client().PriceUsd(comp.domain);
        ASSERT_TRUE(price.has_value());
        EXPECT_GE(*price, 300.0);  // aftermarket pricing (§IV-D)
      }
    }
  }
}

TEST_F(WorldTest, FindDomainFindsEveryDomainAndNothingElse) {
  for (size_t i = 0; i < world_->domains().size(); i += 53) {
    const dns::Name& name = world_->domains()[i].name;
    const DomainTruth* found = world_->FindDomain(name);
    ASSERT_NE(found, nullptr) << name.ToString();
    EXPECT_EQ(found->name, name);
    EXPECT_EQ(world_->FindDomain(name.Child("absent-child")), nullptr)
        << name.ToString();
  }
  EXPECT_EQ(world_->FindDomain(dns::Name::FromString("absent.gov.zz")),
            nullptr);
  EXPECT_EQ(world_->FindDomain(dns::Name::Root()), nullptr);
}

TEST_F(WorldTest, ChinaShrinksInto2020) {
  int cn = CountryIndexByCode("cn");
  int peak_2019 = 0, in_2020 = 0;
  for (const auto& d : world_->domains()) {
    if (d.country != cn) continue;
    if (d.Alive(util::DayFromYmd(2019, 12, 1))) ++peak_2019;
    if (d.Alive(util::DayFromYmd(2020, 12, 1))) ++in_2020;
  }
  EXPECT_GT(peak_2019, in_2020);  // the consolidation dip
}

// The world's PDNS image as a published snapshot file.
std::string PdnsFileBytes(const World& world, const std::string& tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("govdns_world_" + tag))
          .string();
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/pdns.gvsn";
  GOVDNS_CHECK(pdns::WritePdnsSnapshotFile(world.pdns_db(),
                                           /*fingerprint=*/0x5eed5eed5eed5eedull,
                                           dir, path)
                   .ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::filesystem::remove_all(dir);
  return bytes;
}

TEST(WorldDeterminismTest, SameSeedSameWorld) {
  WorldConfig config;
  config.scale = 0.005;
  auto a = BuildWorld(config);
  auto b = BuildWorld(config);
  ASSERT_EQ(a->domains().size(), b->domains().size());
  const std::string a_pdns = PdnsFileBytes(*a, "a");
  EXPECT_TRUE(a_pdns == PdnsFileBytes(*b, "b"));
  // Pinned image: any change to the generated history or to the store's
  // layout shows up here.
  EXPECT_EQ(a_pdns.size(), 221381u);
  EXPECT_EQ(ckpt::Crc32(a_pdns), 0xeaf88378u);
  EXPECT_EQ(a->network().endpoint_count(), b->network().endpoint_count());
  // Pinned zone image: every zone's zone-file text, in creation order. Any
  // change to the active infrastructure or to a zone's record order shows
  // up here.
  std::string zone_image;
  size_t zone_records = 0;
  for (const auto& zone : a->zones()) {
    zone_image += zone::WriteZoneFile(*zone);
    zone_records += zone->record_count();
  }
  EXPECT_EQ(a->zones().size(), 1377u);
  EXPECT_EQ(zone_records, 13384u);
  EXPECT_EQ(zone_image.size(), 534843u);
  EXPECT_EQ(ckpt::Crc32(zone_image), 0x70cd64ceu);
  for (size_t i = 0; i < a->domains().size(); i += 97) {
    EXPECT_EQ(a->domains()[i].name, b->domains()[i].name);
    EXPECT_EQ(a->domains()[i].birth, b->domains()[i].birth);
    EXPECT_EQ(a->domains()[i].fate, b->domains()[i].fate);
  }
}

// Every probability a vantage overlay can carry, for the roster bound.
std::vector<double> ChaosProbabilities(const simnet::ChaosProfile& c) {
  return {c.p_flapping, c.p_rate_limited, c.p_truncating, c.p_wrong_id,
          c.p_corrupting, c.p_bursty,     c.p_jittery,    c.p_hang,
          c.p_blackhole,  c.p_slow_drip};
}

TEST(VantageRosterTest, DefaultRosterBoundKeepsEveryProbabilityAtMostOne) {
  // Profiles are plain values: no shard is forked to check the bound.
  for (int v = 0; v < kMaxDefaultVantages; ++v) {
    for (double p : ChaosProbabilities(MakeDefaultVantageProfile(v).chaos)) {
      EXPECT_GE(p, 0.0) << v;
      EXPECT_LE(p, 1.0) << v;
    }
  }
  // The bound is tight: one more vantage would carry a probability above 1.
  const std::vector<double> past = ChaosProbabilities(
      MakeDefaultVantageProfile(kMaxDefaultVantages).chaos);
  EXPECT_GT(*std::max_element(past.begin(), past.end()), 1.0);
}

TEST(WorldDeterminismTest, DifferentSeedsDiffer) {
  WorldConfig a_config;
  a_config.scale = 0.005;
  WorldConfig b_config = a_config;
  b_config.seed = a_config.seed + 1;
  auto a = BuildWorld(a_config);
  auto b = BuildWorld(b_config);
  // Same calibration targets -> similar sizes, different details.
  bool any_difference = a->domains().size() != b->domains().size();
  for (size_t i = 0; !any_difference && i < a->domains().size() &&
                     i < b->domains().size();
       ++i) {
    any_difference = !(a->domains()[i].name == b->domains()[i].name);
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace govdns::worldgen
