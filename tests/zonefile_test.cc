#include <gtest/gtest.h>

#include <algorithm>

#include "zone/zonefile.h"

namespace govdns::zone {
namespace {

using dns::Name;
using dns::RRType;

constexpr char kSample[] = R"($ORIGIN gov.xx.
$TTL 7200
@       IN SOA ns1.nic.gov.xx. hostmaster.gov.xx. (
            2021040100 ; serial
            7200       ; refresh
            900        ; retry
            1209600    ; expire
            300 )      ; minimum
@       IN NS  ns1.nic.gov.xx.
@       IN NS  ns2.nic.gov.xx.
ns1.nic 86400 IN A 10.0.2.1
ns2.nic IN A 10.0.2.2
www     IN A 10.0.2.10
        IN TXT "national portal"
moe     IN NS ns1.moe
moe     IN NS ns1.ext.yy.
mail    IN MX 10 mx1
alias   IN CNAME www
)";

TEST(ZoneFileTest, ParsesSampleZone) {
  auto zone = ParseZoneFile(kSample, Name::FromString("gov.xx"));
  ASSERT_TRUE(zone.ok()) << zone.status().ToString();
  EXPECT_EQ(zone->origin().ToString(), "gov.xx");

  auto soa = zone->Soa();
  ASSERT_TRUE(soa.has_value());
  const auto& soa_rdata = std::get<dns::SoaRdata>(soa->rdata);
  EXPECT_EQ(soa_rdata.serial, 2021040100u);
  EXPECT_EQ(soa_rdata.minimum, 300u);
  EXPECT_EQ(soa_rdata.mname.ToString(), "ns1.nic.gov.xx");

  EXPECT_EQ(zone->Find(zone->origin(), RRType::kNS).size(), 2u);
  auto a = zone->Find(Name::FromString("ns1.nic.gov.xx"), RRType::kA);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].ttl, 86400u);  // explicit per-record TTL
  EXPECT_EQ(dns::RdataToString(a[0].rdata), "10.0.2.1");

  // $TTL applies where no per-record TTL is given.
  auto www = zone->Find(Name::FromString("www.gov.xx"), RRType::kA);
  ASSERT_EQ(www.size(), 1u);
  EXPECT_EQ(www[0].ttl, 7200u);

  // Blank owner repeats the previous owner (the TXT under www).
  auto txt = zone->Find(Name::FromString("www.gov.xx"), RRType::kTXT);
  ASSERT_EQ(txt.size(), 1u);
  EXPECT_EQ(std::get<dns::TxtRdata>(txt[0].rdata).strings[0],
            "national portal");

  // Relative vs absolute NS targets.
  auto moe_ns = zone->NsTargets(Name::FromString("moe.gov.xx"));
  ASSERT_EQ(moe_ns.size(), 2u);
  EXPECT_EQ(moe_ns[0].ToString(), "ns1.moe.gov.xx");
  EXPECT_EQ(moe_ns[1].ToString(), "ns1.ext.yy");

  auto mx = zone->Find(Name::FromString("mail.gov.xx"), RRType::kMX);
  ASSERT_EQ(mx.size(), 1u);
  EXPECT_EQ(std::get<dns::MxRdata>(mx[0].rdata).exchange.ToString(),
            "mx1.gov.xx");

  auto cname = zone->Find(Name::FromString("alias.gov.xx"), RRType::kCNAME);
  ASSERT_EQ(cname.size(), 1u);
}

TEST(ZoneFileTest, OriginDirectiveOverridesArgument) {
  auto zone = ParseZoneFile("$ORIGIN gov.yy.\n@ IN NS ns1\n",
                            Name::FromString("ignored.zz"));
  ASSERT_TRUE(zone.ok());
  EXPECT_EQ(zone->origin().ToString(), "gov.yy");
  EXPECT_EQ(zone->NsTargets(zone->origin())[0].ToString(), "ns1.gov.yy");
}

TEST(ZoneFileTest, AtSignAndDefaultTtl) {
  ZoneFileOptions options;
  options.default_ttl = 1234;
  auto zone = ParseZoneFile("@ IN A 1.2.3.4\n", Name::FromString("x.yy"),
                            options);
  ASSERT_TRUE(zone.ok());
  auto a = zone->Find(Name::FromString("x.yy"), RRType::kA);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].ttl, 1234u);
}

TEST(ZoneFileTest, ErrorsNameTheLine) {
  auto zone = ParseZoneFile("@ IN NS ns1\n@ IN A not-an-address\n",
                            Name::FromString("x.yy"));
  ASSERT_FALSE(zone.ok());
  EXPECT_NE(zone.status().message().find("line 2"), std::string::npos);
}

TEST(ZoneFileTest, RejectsUnknownTypeAndDirective) {
  EXPECT_FALSE(
      ParseZoneFile("@ IN BOGUS x\n", Name::FromString("x.yy")).ok());
  EXPECT_FALSE(
      ParseZoneFile("$GENERATE 1-5 x A 1.2.3.4\n", Name::FromString("x.yy"))
          .ok());
}

TEST(ZoneFileTest, RejectsQuoteLeftOpenAtEndOfLine) {
  // The open quote used to swallow the rest of the file, dropping ns1's A.
  auto zone = ParseZoneFile("@ IN TXT \"abc\nns1 IN A 10.0.0.1\n",
                            Name::FromString("x.yy"));
  ASSERT_FALSE(zone.ok());
  EXPECT_NE(zone.status().message().find("line 1"), std::string::npos)
      << zone.status().ToString();
}

TEST(ZoneFileTest, RejectsParenthesisNeverClosed) {
  auto zone = ParseZoneFile("@ 3600 IN SOA ns1 hostmaster ( 1 2 3 4 5\n",
                            Name::FromString("x.yy"));
  ASSERT_FALSE(zone.ok());
  EXPECT_NE(zone.status().message().find("line 1"), std::string::npos)
      << zone.status().ToString();
}

TEST(ZoneFileTest, RejectsCloseParenthesisWithoutOpen) {
  // A stray ')' used to drive the nesting depth negative and merge every
  // later line into one.
  auto zone = ParseZoneFile("@ IN A 10.0.0.1 )\nwww IN A 10.0.0.2\n",
                            Name::FromString("x.yy"));
  ASSERT_FALSE(zone.ok());
  EXPECT_NE(zone.status().message().find("line 1"), std::string::npos)
      << zone.status().ToString();
}

TEST(ZoneFileTest, BalancedMultiLineSoaParses) {
  auto zone = ParseZoneFile(
      "@ 3600 IN SOA ns1 hostmaster (\n  1 ; serial\n  2 3\n  4 5 )\n"
      "@ IN NS ns1\nns1 IN A 10.0.0.1\n",
      Name::FromString("x.yy"));
  ASSERT_TRUE(zone.ok()) << zone.status().ToString();
  EXPECT_EQ(zone->record_count(), 3u);
  auto soa = zone->Soa();
  ASSERT_TRUE(soa.has_value());
  EXPECT_EQ(std::get<dns::SoaRdata>(soa->rdata).serial, 1u);
  EXPECT_EQ(std::get<dns::SoaRdata>(soa->rdata).minimum, 5u);
  EXPECT_EQ(zone->Find(Name::FromString("ns1.x.yy"), RRType::kA).size(), 1u);
}

TEST(ZoneFileTest, RejectsOutOfZoneRecord) {
  auto zone = ParseZoneFile("elsewhere.zz. IN A 1.2.3.4\n",
                            Name::FromString("gov.xx"));
  EXPECT_FALSE(zone.ok());
}

TEST(ZoneFileTest, RejectsLeadingBlankOwnerWithoutPrevious) {
  EXPECT_FALSE(ParseZoneFile("  IN A 1.2.3.4\n", Name::FromString("x.yy")).ok());
}

TEST(ZoneFileTest, CommentsAndBlankLinesIgnored) {
  auto zone = ParseZoneFile(
      "; header comment\n\n@ IN A 1.2.3.4 ; trailing comment\n\n",
      Name::FromString("x.yy"));
  ASSERT_TRUE(zone.ok());
  EXPECT_EQ(zone->record_count(), 1u);
}

TEST(ZoneFileTest, RoundTripPreservesRecords) {
  auto zone = ParseZoneFile(kSample, Name::FromString("gov.xx"));
  ASSERT_TRUE(zone.ok());
  std::string text = WriteZoneFile(*zone);
  auto reparsed = ParseZoneFile(text, zone->origin());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << text;
  EXPECT_EQ(reparsed->record_count(), zone->record_count());
  // Spot-check semantic equality of a few records.
  EXPECT_TRUE(std::ranges::equal(
      reparsed->Find(Name::FromString("www.gov.xx"), RRType::kA),
      zone->Find(Name::FromString("www.gov.xx"), RRType::kA)));
  EXPECT_EQ(reparsed->NsTargets(Name::FromString("moe.gov.xx")),
            zone->NsTargets(Name::FromString("moe.gov.xx")));
  EXPECT_EQ(std::get<dns::SoaRdata>(reparsed->Soa()->rdata),
            std::get<dns::SoaRdata>(zone->Soa()->rdata));
}

TEST(ZoneFileTest, GeneratedWorldZonesRoundTrip) {
  // Serialize-and-reparse a real generated zone.
  Zone zone(Name::FromString("moe.gov.zz"));
  zone.Add(dns::MakeSoa(zone.origin(), Name::FromString("ns1.moe.gov.zz"),
                        Name::FromString("hostmaster.moe.gov.zz"), 99));
  zone.Add(dns::MakeNs(zone.origin(), Name::FromString("ns1.moe.gov.zz")));
  zone.Add(dns::MakeNs(zone.origin(), Name::FromString("tim.ns.cloudflare.com")));
  zone.Add(dns::MakeA(Name::FromString("ns1.moe.gov.zz"),
                      geo::IPv4(192, 0, 2, 7)));
  zone.Add(dns::MakeTxt(zone.origin(), "v=spf1 -all"));
  zone.Seal();
  auto reparsed = ParseZoneFile(WriteZoneFile(zone), zone.origin());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->record_count(), zone.record_count());
  EXPECT_EQ(reparsed->NsTargets(zone.origin()), zone.NsTargets(zone.origin()));
}

}  // namespace
}  // namespace govdns::zone
