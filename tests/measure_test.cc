#include <gtest/gtest.h>

#include "core/analysis.h"
#include "core/measure.h"
#include "tests/test_world.h"

namespace govdns::core {
namespace {

using dns::Name;
using govdns::testing::TinyInternet;

class MeasureTest : public ::testing::Test {
 protected:
  MeasureTest() : world_(), measurer_(&world_.net, world_.roots()) {}

  MeasurementResult Measure(const char* domain) {
    return measurer_.Measure(Name::FromString(domain));
  }

  static const NsHostResult* HostNamed(const MeasurementResult& r,
                                       const char* name) {
    for (const auto& host : r.hosts) {
      if (host.host == Name::FromString(name)) return &host;
    }
    return nullptr;
  }

  TinyInternet world_;
  ActiveMeasurer measurer_;
};

TEST_F(MeasureTest, HealthyDomain) {
  auto r = Measure("moe.gov.xx");
  EXPECT_TRUE(r.parent_located);
  EXPECT_EQ(r.parent_zone.ToString(), "gov.xx");
  EXPECT_TRUE(r.parent_responded);
  EXPECT_TRUE(r.parent_has_records);
  EXPECT_EQ(r.parent_ns.size(), 2u);
  EXPECT_EQ(r.child_ns.size(), 2u);
  EXPECT_TRUE(r.child_any_authoritative);
  EXPECT_EQ(r.rounds, 1);
  for (const auto& host : r.hosts) {
    EXPECT_EQ(host.status, NsHostStatus::kAuthoritative)
        << host.host.ToString();
    EXPECT_TRUE(host.in_parent_set);
    EXPECT_TRUE(host.in_child_set);
  }
  ASSERT_TRUE(r.soa.has_value());
  EXPECT_EQ(r.soa->mname.ToString(), "ns1.moe.gov.xx");
  EXPECT_EQ(ClassifyDelegation(r), DelegationHealth::kHealthy);
  EXPECT_EQ(ClassifyConsistency(r), ConsistencyClass::kEqual);
}

TEST_F(MeasureTest, FullyLameDomain) {
  auto r = Measure("lame.gov.xx");
  EXPECT_TRUE(r.parent_has_records);
  EXPECT_FALSE(r.child_any_authoritative);
  EXPECT_EQ(r.rounds, 2);  // second round tried and failed too
  ASSERT_EQ(r.hosts.size(), 1u);
  EXPECT_EQ(r.hosts[0].status, NsHostStatus::kNoResponse);
  EXPECT_EQ(ClassifyDelegation(r), DelegationHealth::kFullyDefective);
  EXPECT_EQ(ClassifyConsistency(r), ConsistencyClass::kNotComparable);
}

TEST_F(MeasureTest, PartiallyLameDomain) {
  auto r = Measure("half.gov.xx");
  EXPECT_TRUE(r.child_any_authoritative);
  const auto* good = HostNamed(r, "ns1.half.gov.xx");
  const auto* dead = HostNamed(r, "ns2.half.gov.xx");
  ASSERT_NE(good, nullptr);
  ASSERT_NE(dead, nullptr);
  EXPECT_EQ(good->status, NsHostStatus::kAuthoritative);
  EXPECT_EQ(dead->status, NsHostStatus::kNoResponse);
  EXPECT_EQ(ClassifyDelegation(r), DelegationHealth::kPartiallyDefective);
  // Both parent and child list both hosts: still consistent.
  EXPECT_EQ(ClassifyConsistency(r), ConsistencyClass::kEqual);
}

TEST_F(MeasureTest, TypoNsIsUnresolvable) {
  auto r = Measure("typo.gov.xx");
  ASSERT_EQ(r.hosts.size(), 1u);
  EXPECT_EQ(r.hosts[0].status, NsHostStatus::kUnresolvable);
  EXPECT_EQ(ClassifyDelegation(r), DelegationHealth::kFullyDefective);
}

TEST_F(MeasureTest, RefusingServerIsDefective) {
  auto r = Measure("refused.gov.xx");
  ASSERT_EQ(r.hosts.size(), 1u);
  EXPECT_EQ(r.hosts[0].status, NsHostStatus::kRefused);
  EXPECT_EQ(ClassifyDelegation(r), DelegationHealth::kFullyDefective);
}

TEST_F(MeasureTest, DriftedDomainShowsInconsistency) {
  auto r = Measure("drift.gov.xx");
  EXPECT_TRUE(r.child_any_authoritative);
  // P = {ns1, nsold}; C = {ns1, nsnew}.
  EXPECT_EQ(r.parent_ns.size(), 2u);
  EXPECT_EQ(r.child_ns.size(), 2u);
  EXPECT_EQ(ClassifyConsistency(r), ConsistencyClass::kOverlapNeither);
  // The dead old host makes it partially defective as well (§IV-D: 40.9%
  // of inconsistent domains also had a partial defect).
  EXPECT_EQ(ClassifyDelegation(r), DelegationHealth::kPartiallyDefective);
  // The child-only host was still queried (step 4 of Fig. 1).
  const auto* fresh = HostNamed(r, "nsnew.drift.gov.xx");
  ASSERT_NE(fresh, nullptr);
  EXPECT_FALSE(fresh->in_parent_set);
  EXPECT_TRUE(fresh->in_child_set);
  EXPECT_EQ(fresh->status, NsHostStatus::kAuthoritative);
}

TEST_F(MeasureTest, RemovedDelegationHasNoRecords) {
  auto r = Measure("gone.gov.xx");
  EXPECT_TRUE(r.parent_located);
  EXPECT_TRUE(r.parent_responded);
  EXPECT_FALSE(r.parent_has_records);
  EXPECT_TRUE(r.hosts.empty());
}

TEST_F(MeasureTest, DeadParentZone) {
  // Silence the gov.xx server: the parent zone becomes unreachable.
  world_.net.SetBehavior(TinyInternet::Ip(10, 0, 2, 1),
                         simnet::EndpointBehavior{.silent = true});
  ActiveMeasurer measurer(&world_.net, world_.roots());
  auto r = measurer.Measure(Name::FromString("moe.gov.xx"));
  EXPECT_FALSE(r.parent_located);
  EXPECT_FALSE(r.parent_responded);
}

TEST_F(MeasureTest, SecondRoundRecoversFromTransientLoss) {
  // Heavy loss toward the healthy moe servers: round 1 may fail entirely,
  // round 2 retries. Both arms run the naive single-shot policy so the test
  // isolates the second-round mechanism from the per-query retry armor
  // (which would push both arms to the ceiling). A domain's loss draws are
  // hermetic — a pure function of (world seed, domain) — so each trial
  // measures its own world seed; repeating one world would repeat one trial.
  ResolverOptions naive;
  naive.retry = RetryPolicy::Disabled();
  int with_round2 = 0, without = 0;
  for (int trial = 0; trial < 30; ++trial) {
    TinyInternet world(trial + 1);
    world.net.SetBehavior(TinyInternet::Ip(10, 0, 3, 1),
                          simnet::EndpointBehavior{.loss_rate = 0.7});
    world.net.SetBehavior(TinyInternet::Ip(10, 0, 3, 2),
                          simnet::EndpointBehavior{.loss_rate = 0.7});
    for (bool second_round : {true, false}) {
      MeasurerOptions opts;
      opts.second_round = second_round;
      ActiveMeasurer m(&world.net, world.roots(), naive, opts);
      const bool answered =
          m.Measure(Name::FromString("moe.gov.xx")).child_any_authoritative;
      (second_round ? with_round2 : without) += answered;
    }
  }
  EXPECT_GT(with_round2, without);  // the second round visibly recovers
}

TEST_F(MeasureTest, MeasureAllPreservesOrder) {
  const std::vector<Name> domains = {Name::FromString("moe.gov.xx"),
                                     Name::FromString("lame.gov.xx")};
  auto results = measurer_.MeasureAll(domains);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].domain.ToString(), "moe.gov.xx");
  EXPECT_EQ(results[1].domain.ToString(), "lame.gov.xx");
}

TEST_F(MeasureTest, NsAddressesDeduplicates) {
  auto r = Measure("moe.gov.xx");
  auto addrs = r.NsAddresses();
  EXPECT_EQ(addrs.size(), 2u);
  auto all_ns = r.AllNs();
  EXPECT_EQ(all_ns.size(), 2u);
}

// Regression: one of victim.gov.yy's two parent servers pads its referral
// with an A record for ns2 it is not delegating to (pointing at 10.0.9.9).
// Only glue for the referral's own NS targets may be accepted; the poisoned
// address must never be attributed to — or queried on behalf of — ns2.
TEST_F(MeasureTest, RejectsOutOfBailiwickGlue) {
  auto r = Measure("victim.gov.yy");
  EXPECT_TRUE(r.parent_has_records);
  ASSERT_EQ(r.parent_ns.size(), 2u);  // the union of both parents' targets

  const NsHostResult* ns2 = HostNamed(r, "ns2.victim.gov.yy");
  ASSERT_NE(ns2, nullptr);
  ASSERT_EQ(ns2->addresses.size(), 1u);
  EXPECT_EQ(ns2->addresses[0], TinyInternet::Ip(10, 0, 12, 2));
  EXPECT_EQ(ns2->status, NsHostStatus::kAuthoritative);

  // Nothing anywhere in the result carries the poisoned address.
  for (geo::IPv4 addr : r.NsAddresses()) {
    EXPECT_NE(addr, TinyInternet::Ip(10, 0, 9, 9));
  }
}

// Regression: chain.gov.yy's parent knows only ns1, ns1's zone copy names
// {ns1,ns2}, and only ns2's newer copy names ns3. ns3 surfaces in the
// second child-query pass, so host expansion must iterate until no new
// hostname appears — a single expansion round left ns3 in child_ns with no
// NsHostResult (and thus no status) at all.
TEST_F(MeasureTest, ExpandsHostsDiscoveredInLaterRounds) {
  auto r = Measure("chain.gov.yy");
  EXPECT_TRUE(r.child_any_authoritative);
  ASSERT_EQ(r.child_ns.size(), 3u);
  ASSERT_EQ(r.hosts.size(), 3u);

  const NsHostResult* ns3 = HostNamed(r, "ns3.chain.gov.yy");
  ASSERT_NE(ns3, nullptr);
  EXPECT_EQ(ns3->status, NsHostStatus::kAuthoritative);
  EXPECT_FALSE(ns3->in_parent_set);
  EXPECT_TRUE(ns3->in_child_set);
}

}  // namespace
}  // namespace govdns::core
