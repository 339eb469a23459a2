#include <gtest/gtest.h>

#include "core/providers.h"
#include "tests/mined_datasets.h"

namespace govdns::core {
namespace {

using dns::Name;

TEST(ProviderMatcherTest, SuffixRules) {
  ProviderMatcher matcher(DefaultProviderRules());
  int m = matcher.MatchNs("tim.ns.cloudflare.com");
  ASSERT_GE(m, 0);
  EXPECT_EQ(matcher.rules()[m].group_key, "cloudflare.com");

  m = matcher.MatchNs("ns37.domaincontrol.com");
  ASSERT_GE(m, 0);
  EXPECT_EQ(matcher.rules()[m].group_key, "domaincontrol.com");

  EXPECT_LT(matcher.MatchNs("ns1.example.org"), 0);
  // Suffix matching must not fire on lookalike names.
  EXPECT_LT(matcher.MatchNs("ns1.notcloudflare.com"), 0);
}

TEST(ProviderMatcherTest, AwsSubstringRule) {
  ProviderMatcher matcher(DefaultProviderRules());
  for (const char* host : {"ns-923.awsdns-51.co.uk", "ns-0.awsdns-00.com",
                           "ns-1536.awsdns-00.org"}) {
    int m = matcher.MatchNs(host);
    ASSERT_GE(m, 0) << host;
    EXPECT_EQ(matcher.rules()[m].group_key, "AWS DNS");
  }
}

TEST(ProviderMatcherTest, AzureAndGroupedFamilies) {
  ProviderMatcher matcher(DefaultProviderRules());
  int m = matcher.MatchNs("ns1-07.azure-dns.com");
  ASSERT_GE(m, 0);
  EXPECT_EQ(matcher.rules()[m].group_key, "Azure DNS");

  // Hostgator's US and Brazilian families share one group.
  int us = matcher.MatchNs("ns1.hostgator.com");
  int br = matcher.MatchNs("ns5.hostgator.com.br");
  ASSERT_GE(us, 0);
  ASSERT_GE(br, 0);
  EXPECT_EQ(us, br);
}

TEST(ProviderMatcherTest, CaseInsensitive) {
  ProviderMatcher matcher(DefaultProviderRules());
  EXPECT_GE(matcher.MatchNs("TIM.NS.CLOUDFLARE.COM"), 0);
  EXPECT_GE(matcher.MatchNs("NS-1.AWSDNS-09.NET"), 0);
}

TEST(ProviderMatcherTest, SoaMatching) {
  ProviderMatcher matcher(DefaultProviderRules());
  dns::SoaRdata soa;
  soa.mname = Name::FromString("ns1.vanity.gov.xx");
  soa.rname = Name::FromString("hostmaster.dnsmadeeasy.com");
  int m = matcher.MatchSoa(soa);
  ASSERT_GE(m, 0);
  EXPECT_EQ(matcher.rules()[m].group_key, "dnsmadeeasy.com");

  soa.rname = Name::FromString("hostmaster.vanity.gov.xx");
  soa.mname = Name::FromString("amber.ns.cloudflare.com");
  m = matcher.MatchSoa(soa);
  ASSERT_GE(m, 0);
  EXPECT_EQ(matcher.rules()[m].group_key, "cloudflare.com");
}

// ---------------------------------------------------------------------------
// Analyzer
// ---------------------------------------------------------------------------

MinedDataset TinyDataset() {
  MinedDataset dataset;
  dataset.config.first_year = 2019;
  dataset.config.last_year = 2020;
  for (const char* ns : {"amber.ns.cloudflare.com", "tim.ns.cloudflare.com",
                         "ns-1.awsdns-00.com", "ns1.own.gov.aa"}) {
    dataset.AppendNsName(ns);
  }
  auto add = [&](const char* name, int country, std::vector<int32_t> ns2020) {
    MinedDomain d;
    d.name = Name::FromString(name);
    d.country = country;
    dataset.domains.push_back(std::move(d));
    testing::AppendRow(dataset, 0, {});  // 2019
    testing::AppendRow(dataset, static_cast<int32_t>(ns2020.size()), ns2020);
  };
  add("a.gov.aa", 0, {0, 1});     // pure cloudflare -> d_1P
  add("b.gov.aa", 0, {0, 3});     // cloudflare + own -> not d_1P
  add("c.gov.bb", 1, {2});        // AWS
  add("d.gov.bb", 1, {3});        // own only -> unmatched
  return dataset;
}

std::vector<CountryMeta> TwoCountries() {
  return {{"aa", "Aland", "Northern Europe", false},
          {"bb", "Borduria", "Eastern Europe", true}};
}

TEST(ProviderAnalyzerTest, CountsDomainsD1pGroupsCountries) {
  ProviderMatcher matcher(DefaultProviderRules());
  ProviderAnalyzer analyzer(&matcher, TwoCountries());
  auto table = analyzer.Analyze(TinyDataset(), 2020);
  EXPECT_EQ(table.total_domains, 4);
  EXPECT_EQ(table.total_groups, 2);  // one sub-region + one top-10 country

  const ProviderYearRow* cloudflare = nullptr;
  const ProviderYearRow* aws = nullptr;
  for (const auto& row : table.rows) {
    if (row.group_key == "cloudflare.com") cloudflare = &row;
    if (row.group_key == "AWS DNS") aws = &row;
  }
  ASSERT_NE(cloudflare, nullptr);
  EXPECT_EQ(cloudflare->domains, 2);
  EXPECT_EQ(cloudflare->d1p, 1);
  EXPECT_EQ(cloudflare->countries, 1);
  EXPECT_EQ(cloudflare->groups, 1);
  ASSERT_NE(aws, nullptr);
  EXPECT_EQ(aws->domains, 1);
  EXPECT_EQ(aws->d1p, 1);
}

TEST(ProviderAnalyzerTest, EmptyYearHasNoUsage) {
  ProviderMatcher matcher(DefaultProviderRules());
  ProviderAnalyzer analyzer(&matcher, TwoCountries());
  auto table = analyzer.Analyze(TinyDataset(), 2019);
  EXPECT_EQ(table.total_domains, 0);
  EXPECT_EQ(ProviderAnalyzer::MaxCountriesAnyProvider(table), 0);
}

TEST(ProviderAnalyzerTest, TopByCountriesSortsAndTruncates) {
  ProviderMatcher matcher(DefaultProviderRules());
  ProviderAnalyzer analyzer(&matcher, TwoCountries());
  auto table = analyzer.Analyze(TinyDataset(), 2020);
  auto top = ProviderAnalyzer::TopByCountries(table, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_GE(top[0].countries, top[1].countries);
  EXPECT_EQ(top[0].group_key, "cloudflare.com");  // ties break by domains
  EXPECT_EQ(ProviderAnalyzer::MaxCountriesAnyProvider(table), 1);
}

TEST(ProviderGroupKeyTest, Top10CountriesAreOwnGroups) {
  CountryMeta normal{"aa", "Aland", "Northern Europe", false};
  CountryMeta top{"cn", "China", "Eastern Asia", true};
  EXPECT_EQ(ProviderGroupKey(normal), "subregion:Northern Europe");
  EXPECT_EQ(ProviderGroupKey(top), "country:cn");
}

}  // namespace
}  // namespace govdns::core
