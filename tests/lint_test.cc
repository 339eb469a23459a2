#include <gtest/gtest.h>

#include <algorithm>

#include "zone/lint.h"
#include "zone/zonefile.h"

namespace govdns::zone {
namespace {

using dns::MakeA;
using dns::MakeCname;
using dns::MakeNs;
using dns::MakeSoa;
using dns::Name;

bool Has(const std::vector<LintFinding>& findings, LintRule rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const LintFinding& f) { return f.rule == rule; });
}

// Lint reads the zone, so every zone is sealed after its last Add().
Zone Sealed(Zone z) {
  z.Seal();
  return z;
}

Zone HealthyZone() {
  Zone z(Name::FromString("gov.xx"));
  z.Add(MakeSoa(z.origin(), Name::FromString("ns1.gov.xx"),
                Name::FromString("hostmaster.gov.xx"), 7));
  z.Add(MakeNs(z.origin(), Name::FromString("ns1.gov.xx")));
  z.Add(MakeNs(z.origin(), Name::FromString("ns2.gov.xx")));
  z.Add(MakeA(Name::FromString("ns1.gov.xx"), geo::IPv4(10, 0, 0, 1)));
  z.Add(MakeA(Name::FromString("ns2.gov.xx"), geo::IPv4(10, 0, 0, 2)));
  z.Add(MakeA(Name::FromString("www.gov.xx"), geo::IPv4(10, 0, 0, 3)));
  return z;
}

TEST(LintTest, HealthyZoneIsClean) {
  auto findings = LintZone(Sealed(HealthyZone()));
  EXPECT_TRUE(findings.empty())
      << (findings.empty() ? "" : findings[0].ToString());
}

TEST(LintTest, MissingSoa) {
  Zone z(Name::FromString("gov.xx"));
  z.Add(MakeNs(z.origin(), Name::FromString("ns1.other.yy")));
  z.Add(MakeNs(z.origin(), Name::FromString("ns2.other.yy")));
  z.Seal();
  EXPECT_TRUE(Has(LintZone(z), LintRule::kMissingSoa));
}

TEST(LintTest, MultipleSoa) {
  Zone z = HealthyZone();
  z.Add(MakeSoa(z.origin(), Name::FromString("ns2.gov.xx"),
                Name::FromString("hostmaster.gov.xx"), 8));
  z.Seal();
  EXPECT_TRUE(Has(LintZone(z), LintRule::kMultipleSoa));
}

TEST(LintTest, MissingAndSingleApexNs) {
  Zone no_ns(Name::FromString("gov.xx"));
  no_ns.Add(MakeSoa(no_ns.origin(), Name::FromString("ns1.gov.xx"),
                    Name::FromString("h.gov.xx"), 1));
  no_ns.Seal();
  EXPECT_TRUE(Has(LintZone(no_ns), LintRule::kMissingApexNs));

  Zone single(Name::FromString("gov.xx"));
  single.Add(MakeSoa(single.origin(), Name::FromString("ns1.gov.xx"),
                     Name::FromString("h.gov.xx"), 1));
  single.Add(MakeNs(single.origin(), Name::FromString("ns1.gov.xx")));
  single.Add(MakeA(Name::FromString("ns1.gov.xx"), geo::IPv4(10, 0, 0, 1)));
  single.Seal();
  auto findings = LintZone(single);
  ASSERT_TRUE(Has(findings, LintRule::kSingleApexNs));
  // Warning by default, error under strict replication policy.
  for (const auto& f : findings) {
    if (f.rule == LintRule::kSingleApexNs) {
      EXPECT_EQ(f.severity, LintSeverity::kWarning);
    }
  }
  LintOptions strict;
  strict.strict_replication = true;
  for (const auto& f : LintZone(single, strict)) {
    if (f.rule == LintRule::kSingleApexNs) {
      EXPECT_EQ(f.severity, LintSeverity::kError);
    }
  }
}

TEST(LintTest, CnameProblems) {
  Zone z = HealthyZone();
  z.Add(MakeCname(z.origin(), Name::FromString("portal.gov.xx")));
  z.Seal();
  EXPECT_TRUE(Has(LintZone(z), LintRule::kCnameAtApex));

  Zone z2 = HealthyZone();
  z2.Add(MakeCname(Name::FromString("www.gov.xx"),
                   Name::FromString("portal.gov.xx")));
  z2.Seal();
  EXPECT_TRUE(Has(LintZone(z2), LintRule::kCnameAndOtherData));
}

TEST(LintTest, NsPointsToCname) {
  Zone z = HealthyZone();
  z.Add(MakeNs(z.origin(), Name::FromString("nsalias.gov.xx")));
  z.Add(MakeCname(Name::FromString("nsalias.gov.xx"),
                  Name::FromString("ns1.gov.xx")));
  z.Seal();
  EXPECT_TRUE(Has(LintZone(z), LintRule::kNsPointsToCname));
}

TEST(LintTest, RelativeNsTarget) {
  // The paper's §IV-D example: a lost-origin single-label NS target.
  Zone z = HealthyZone();
  z.Add(MakeNs(z.origin(), Name::FromString("ns")));
  z.Seal();
  EXPECT_TRUE(Has(LintZone(z), LintRule::kRelativeNsTarget));
}

TEST(LintTest, MissingGlueAndUnresolvableTarget) {
  Zone z = HealthyZone();
  // Delegation whose in-bailiwick NS has no glue but the name exists.
  z.Add(MakeNs(Name::FromString("moe.gov.xx"),
               Name::FromString("ns1.moe.gov.xx")));
  z.Add(dns::MakeTxt(Name::FromString("ns1.moe.gov.xx"), "exists"));
  z.Seal();
  auto findings = LintZone(z);
  EXPECT_TRUE(Has(findings, LintRule::kMissingGlue));

  Zone z2 = HealthyZone();
  z2.Add(MakeNs(Name::FromString("edu.gov.xx"),
                Name::FromString("ns1.edu.gov.xx")));
  z2.Seal();
  EXPECT_TRUE(Has(LintZone(z2), LintRule::kUnresolvableNsTarget));
}

TEST(LintTest, OrphanGlue) {
  Zone z = HealthyZone();
  z.Add(MakeNs(Name::FromString("moe.gov.xx"),
               Name::FromString("ns1.moe.gov.xx")));
  z.Add(MakeA(Name::FromString("ns1.moe.gov.xx"), geo::IPv4(10, 0, 1, 1)));
  // Occluded data under the cut that is not glue.
  z.Add(MakeA(Name::FromString("www.moe.gov.xx"), geo::IPv4(10, 0, 1, 2)));
  z.Seal();
  auto findings = LintZone(z);
  EXPECT_TRUE(Has(findings, LintRule::kOrphanGlue));
  // The legitimate glue itself is not flagged.
  for (const auto& f : findings) {
    if (f.rule == LintRule::kOrphanGlue) {
      EXPECT_EQ(f.name.ToString(), "www.moe.gov.xx");
    }
  }
}

TEST(LintTest, TtlZeroAndSerialZero) {
  Zone z(Name::FromString("gov.xx"));
  z.Add(MakeSoa(z.origin(), Name::FromString("ns1.gov.xx"),
                Name::FromString("h.gov.xx"), 0));
  z.Add(MakeNs(z.origin(), Name::FromString("ns1.gov.xx")));
  z.Add(MakeNs(z.origin(), Name::FromString("ns2.gov.xx")));
  z.Add(MakeA(Name::FromString("ns1.gov.xx"), geo::IPv4(10, 0, 0, 1), 0));
  z.Add(MakeA(Name::FromString("ns2.gov.xx"), geo::IPv4(10, 0, 0, 2)));
  z.Seal();
  auto findings = LintZone(z);
  EXPECT_TRUE(Has(findings, LintRule::kSoaSerialZero));
  EXPECT_TRUE(Has(findings, LintRule::kTtlZero));
}

TEST(LintDelegationTest, MatchingSetsAreClean) {
  Zone z = HealthyZone();
  z.Seal();
  auto findings = LintDelegation(
      z, {Name::FromString("ns2.gov.xx"), Name::FromString("ns1.gov.xx")});
  EXPECT_TRUE(findings.empty());  // order-insensitive
}

TEST(LintDelegationTest, MismatchNamesBothSides) {
  Zone z = HealthyZone();
  z.Seal();
  auto findings = LintDelegation(
      z, {Name::FromString("ns1.gov.xx"), Name::FromString("nsold.gov.xx")});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, LintRule::kDelegationMismatch);
  EXPECT_NE(findings[0].message.find("nsold.gov.xx"), std::string::npos);
  EXPECT_NE(findings[0].message.find("ns2.gov.xx"), std::string::npos);
}

TEST(LintTest, WorksOnParsedZoneFiles) {
  constexpr char kBroken[] = R"($ORIGIN gov.xx.
@ IN SOA ns1.gov.xx. h.gov.xx. ( 0 7200 900 1209600 300 )
@ IN NS ns1
ns1 IN A 10.0.0.1
)";
  auto zone = ParseZoneFile(kBroken, Name::FromString("gov.xx"));
  ASSERT_TRUE(zone.ok());
  auto findings = LintZone(*zone);
  EXPECT_TRUE(Has(findings, LintRule::kSingleApexNs));
  EXPECT_TRUE(Has(findings, LintRule::kSoaSerialZero));
}

TEST(LintTest, FindingToStringIsReadable) {
  Zone z(Name::FromString("gov.xx"));
  z.Add(MakeNs(z.origin(), Name::FromString("ns1.other.yy")));
  z.Seal();
  auto findings = LintZone(z);
  ASSERT_FALSE(findings.empty());
  std::string text = findings[0].ToString();
  EXPECT_NE(text.find("ERROR"), std::string::npos);
  EXPECT_NE(text.find("gov.xx"), std::string::npos);
}

}  // namespace
}  // namespace govdns::zone
