#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/resolver.h"
#include "tests/test_world.h"

namespace govdns::core {
namespace {

using dns::Name;
using dns::RRType;
using govdns::testing::TinyInternet;

class ResolverTest : public ::testing::Test {
 protected:
  ResolverTest() : world_(), resolver_(&world_.net, world_.roots()) {}

  TinyInternet world_;
  IterativeResolver resolver_;
};

TEST_F(ResolverTest, ResolvesAddressThroughDelegationChain) {
  auto addrs = resolver_.ResolveAddresses(Name::FromString("www.moe.gov.xx"));
  ASSERT_TRUE(addrs.ok()) << addrs.status().ToString();
  ASSERT_EQ(addrs->size(), 1u);
  EXPECT_EQ((*addrs)[0], TinyInternet::Ip(10, 0, 3, 10));
}

TEST_F(ResolverTest, FollowsCname) {
  auto addrs = resolver_.ResolveAddresses(Name::FromString("alias.moe.gov.xx"));
  ASSERT_TRUE(addrs.ok());
  ASSERT_EQ(addrs->size(), 1u);
  EXPECT_EQ((*addrs)[0], TinyInternet::Ip(10, 0, 3, 10));
}

TEST_F(ResolverTest, ResolvesNsRecordsFromChild) {
  auto records = resolver_.Resolve(Name::FromString("moe.gov.xx"), RRType::kNS);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);
}

TEST_F(ResolverTest, GluelessDelegationResolvedViaSeparateLookup) {
  auto addrs =
      resolver_.ResolveAddresses(Name::FromString("www.glueless.gov.xx"));
  ASSERT_TRUE(addrs.ok()) << addrs.status().ToString();
  EXPECT_EQ((*addrs)[0], TinyInternet::Ip(10, 0, 6, 1));
}

TEST_F(ResolverTest, NxDomainGivesEmptyAnswerNotError) {
  auto records =
      resolver_.Resolve(Name::FromString("absent.gov.xx"), RRType::kA);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

TEST_F(ResolverTest, UnresolvableHostFails) {
  auto addrs = resolver_.ResolveAddresses(Name::FromString("ns1ext.xx"));
  EXPECT_FALSE(addrs.ok());
}

TEST_F(ResolverTest, DeadDelegationFails) {
  // lame.gov.xx's only nameserver never answers.
  auto records =
      resolver_.Resolve(Name::FromString("www.lame.gov.xx"), RRType::kA);
  EXPECT_FALSE(records.ok());
}

TEST_F(ResolverTest, FindEnclosingZoneReturnsParentServers) {
  auto zone = resolver_.FindEnclosingZoneServers(Name::FromString("moe.gov.xx"));
  ASSERT_TRUE(zone.ok()) << zone.status().ToString();
  EXPECT_EQ(zone->zone.ToString(), "gov.xx");
  ASSERT_EQ(zone->addresses.size(), 1u);
  EXPECT_EQ(zone->addresses[0], TinyInternet::Ip(10, 0, 2, 1));
}

TEST_F(ResolverTest, FindEnclosingZoneForDeepName) {
  // www.moe.gov.xx's enclosing zone is moe.gov.xx itself.
  auto zone =
      resolver_.FindEnclosingZoneServers(Name::FromString("www.moe.gov.xx"));
  ASSERT_TRUE(zone.ok());
  EXPECT_EQ(zone->zone.ToString(), "moe.gov.xx");
}

TEST_F(ResolverTest, FindEnclosingZoneForTld) {
  auto zone = resolver_.FindEnclosingZoneServers(Name::FromString("xx"));
  ASSERT_TRUE(zone.ok());
  EXPECT_TRUE(zone->zone.IsRoot());
}

TEST_F(ResolverTest, FindEnclosingZoneRejectsRoot) {
  EXPECT_FALSE(resolver_.FindEnclosingZoneServers(Name::Root()).ok());
}

TEST_F(ResolverTest, NonExistentDelegationStopsAtParent) {
  // gone.gov.xx has no records: the deepest enclosing zone is gov.xx and
  // its servers answer (with NXDOMAIN for the name itself).
  auto zone = resolver_.FindEnclosingZoneServers(Name::FromString("gone.gov.xx"));
  ASSERT_TRUE(zone.ok());
  EXPECT_EQ(zone->zone.ToString(), "gov.xx");
}

TEST_F(ResolverTest, CacheReducesQueryLoad) {
  (void)resolver_.ResolveAddresses(Name::FromString("www.moe.gov.xx"));
  uint64_t after_first = resolver_.counters().queries;
  (void)resolver_.ResolveAddresses(Name::FromString("ns2.moe.gov.xx"));
  uint64_t second_cost = resolver_.counters().queries - after_first;
  // The second lookup starts from the cached moe.gov.xx cut: 1 query.
  EXPECT_LE(second_cost, 2u);
  EXPECT_GT(resolver_.cache_size(), 0u);
  resolver_.ClearCache();
  EXPECT_EQ(resolver_.cache_size(), 0u);
}

TEST_F(ResolverTest, QueryServerClassifiesOutcomes) {
  // Authoritative answer.
  auto r = resolver_.QueryServer(TinyInternet::Ip(10, 0, 3, 1),
                                 Name::FromString("www.moe.gov.xx"),
                                 RRType::kA);
  EXPECT_EQ(r.outcome, QueryOutcome::kAuthAnswer);
  // Referral.
  r = resolver_.QueryServer(TinyInternet::Ip(10, 0, 2, 1),
                            Name::FromString("moe.gov.xx"), RRType::kNS);
  EXPECT_EQ(r.outcome, QueryOutcome::kReferral);
  // Refused.
  r = resolver_.QueryServer(TinyInternet::Ip(10, 0, 4, 21),
                            Name::FromString("refused.gov.xx"), RRType::kNS);
  EXPECT_EQ(r.outcome, QueryOutcome::kRefused);
  // Unreachable.
  r = resolver_.QueryServer(TinyInternet::Ip(10, 0, 4, 12),
                            Name::FromString("half.gov.xx"), RRType::kNS);
  EXPECT_EQ(r.outcome, QueryOutcome::kUnreachable);
  // Negative.
  r = resolver_.QueryServer(TinyInternet::Ip(10, 0, 2, 1),
                            Name::FromString("absent.gov.xx"), RRType::kA);
  EXPECT_EQ(r.outcome, QueryOutcome::kAuthNegative);
}

TEST_F(ResolverTest, SilentEndpointIsTimeout) {
  world_.net.SetBehavior(TinyInternet::Ip(10, 0, 3, 1),
                         simnet::EndpointBehavior{.silent = true});
  auto r = resolver_.QueryServer(TinyInternet::Ip(10, 0, 3, 1),
                                 Name::FromString("www.moe.gov.xx"),
                                 RRType::kA);
  EXPECT_EQ(r.outcome, QueryOutcome::kTimeout);
}

TEST_F(ResolverTest, RetriesRecoverFromLoss) {
  world_.net.SetBehavior(TinyInternet::Ip(10, 0, 3, 1),
                         simnet::EndpointBehavior{.loss_rate = 0.6});
  ResolverOptions options;
  options.retry.max_attempts = 7;
  IterativeResolver retrying(&world_.net, world_.roots(), options);
  auto r = retrying.QueryServer(TinyInternet::Ip(10, 0, 3, 1),
                                Name::FromString("www.moe.gov.xx"),
                                RRType::kA);
  EXPECT_EQ(r.outcome, QueryOutcome::kAuthAnswer);
  EXPECT_GT(retrying.counters().retries, 0u);
}

TEST_F(ResolverTest, FreshTransactionIdPerAttempt) {
  // A server that answers every query with undecodable garbage: each attempt
  // must carry a fresh transaction id so a stale reply can never validate a
  // later attempt.
  const geo::IPv4 garbler = TinyInternet::Ip(10, 0, 9, 9);
  std::vector<uint16_t> seen_ids;
  world_.net.AttachHandler(garbler, [&](const std::vector<uint8_t>& q) {
    seen_ids.push_back(uint16_t(q[0]) << 8 | q[1]);
    return std::vector<uint8_t>{0xde, 0xad};
  });
  ResolverOptions options;
  options.retry.max_attempts = 4;
  IterativeResolver r(&world_.net, world_.roots(), options);
  auto reply = r.QueryServer(garbler, Name::FromString("www.moe.gov.xx"),
                             RRType::kA);
  EXPECT_EQ(reply.outcome, QueryOutcome::kMalformed);
  ASSERT_EQ(seen_ids.size(), 4u);
  std::sort(seen_ids.begin(), seen_ids.end());
  EXPECT_TRUE(std::adjacent_find(seen_ids.begin(), seen_ids.end()) ==
              seen_ids.end());
  EXPECT_EQ(r.counters().malformed, 4u);
  EXPECT_EQ(r.counters().retries, 3u);
}

TEST_F(ResolverTest, BackoffChargedToTransportClock) {
  world_.net.SetBehavior(TinyInternet::Ip(10, 0, 3, 1),
                         simnet::EndpointBehavior{.silent = true});
  ResolverOptions options;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_ms = 100;
  IterativeResolver r(&world_.net, world_.roots(), options);
  const uint64_t before = world_.net.clock().now_ms();
  (void)r.QueryServer(TinyInternet::Ip(10, 0, 3, 1),
                      Name::FromString("www.moe.gov.xx"), RRType::kA);
  // Two waits (before attempts 2 and 3), each at least 75ms after jitter.
  EXPECT_GE(r.counters().backoff_ms, 150u);
  EXPECT_GE(world_.net.clock().now_ms() - before, r.counters().backoff_ms);
}

TEST_F(ResolverTest, CircuitBreakerSkipsKnownDeadServer) {
  const geo::IPv4 dead = TinyInternet::Ip(10, 0, 3, 1);
  world_.net.SetBehavior(dead, simnet::EndpointBehavior{.silent = true});
  ResolverOptions options;
  options.retry.max_attempts = 1;
  options.retry.breaker_threshold = 2;
  options.retry.breaker_cooldown_ms = 10000;
  IterativeResolver r(&world_.net, world_.roots(), options);
  const Name q = Name::FromString("www.moe.gov.xx");
  (void)r.QueryServer(dead, q, RRType::kA);
  (void)r.QueryServer(dead, q, RRType::kA);  // second failure opens the breaker
  EXPECT_EQ(r.open_circuits(), 1u);
  const uint64_t sent = r.counters().queries;
  auto reply = r.QueryServer(dead, q, RRType::kA);
  EXPECT_EQ(reply.outcome, QueryOutcome::kUnreachable);
  EXPECT_EQ(r.counters().queries, sent);  // no traffic while open
  EXPECT_EQ(r.counters().breaker_skips, 1u);
  // After cooldown the circuit half-opens and traffic resumes.
  world_.net.clock().Advance(10001);
  EXPECT_EQ(r.open_circuits(), 0u);
  (void)r.QueryServer(dead, q, RRType::kA);
  EXPECT_EQ(r.counters().queries, sent + 1);
}

TEST_F(ResolverTest, BreakerIgnoresMalformedReplies) {
  // Garbage proves the endpoint is alive; only silence/unreachability may
  // open the circuit.
  const geo::IPv4 garbler = TinyInternet::Ip(10, 0, 9, 9);
  world_.net.AttachHandler(garbler, [](const std::vector<uint8_t>&) {
    return std::vector<uint8_t>{0x00};
  });
  ResolverOptions options;
  options.retry.max_attempts = 2;
  options.retry.breaker_threshold = 1;
  IterativeResolver r(&world_.net, world_.roots(), options);
  for (int i = 0; i < 4; ++i) {
    (void)r.QueryServer(garbler, Name::FromString("www.moe.gov.xx"),
                        RRType::kA);
  }
  EXPECT_EQ(r.open_circuits(), 0u);
  EXPECT_EQ(r.counters().breaker_skips, 0u);
}

TEST_F(ResolverTest, NegativeCacheShortCircuitsDeadSubtree) {
  ResolverOptions options;
  options.retry.max_attempts = 1;
  options.retry.breaker_threshold = 0;
  options.negative_cache_ttl_ms = 60000;
  IterativeResolver r(&world_.net, world_.roots(), options);
  const Name name = Name::FromString("www.lame.gov.xx");
  EXPECT_FALSE(r.Resolve(name, RRType::kA).ok());
  const uint64_t first_walk = r.counters().queries;
  EXPECT_FALSE(r.Resolve(name, RRType::kA).ok());
  EXPECT_GE(r.counters().negative_cache_hits, 1u);
  // The repeat walk is answered from the negative cache: no new traffic.
  EXPECT_EQ(r.counters().queries, first_walk);
  // Once the entry expires, the subtree is probed again.
  world_.net.clock().Advance(60001);
  EXPECT_FALSE(r.Resolve(name, RRType::kA).ok());
  EXPECT_GT(r.counters().queries, first_walk);
}

TEST_F(ResolverTest, QueryBudgetCapsTraffic) {
  ResolverOptions options;
  IterativeResolver r(&world_.net, world_.roots(), options);
  r.ArmQueryBudget(2);
  auto result = r.ResolveAddresses(Name::FromString("www.moe.gov.xx"));
  EXPECT_FALSE(result.ok());  // the walk needs more than two queries
  EXPECT_TRUE(r.BudgetExhausted());
  EXPECT_EQ(r.counters().queries, 2u);
  EXPECT_GE(r.counters().budget_denied, 1u);
  r.DisarmQueryBudget();
  auto again = r.ResolveAddresses(Name::FromString("www.moe.gov.xx"));
  EXPECT_TRUE(again.ok());
}

}  // namespace
}  // namespace govdns::core
