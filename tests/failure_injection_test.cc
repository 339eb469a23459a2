// Failure injection: adversarial and degenerate server behaviour must never
// hang, crash, or mislead the measurement pipeline — only degrade it.
#include <gtest/gtest.h>

#include "core/analysis.h"
#include "core/measure.h"
#include "core/resolver.h"
#include "tests/test_world.h"

namespace govdns::core {
namespace {

using dns::MakeA;
using dns::MakeNs;
using dns::Name;
using govdns::testing::TinyInternet;

class FailureInjectionTest : public ::testing::Test {
 protected:
  FailureInjectionTest() : world_(), resolver_(&world_.net, world_.roots()) {}

  TinyInternet world_;
  IterativeResolver resolver_;
};

TEST_F(FailureInjectionTest, CyclicGluelessDelegationTerminates) {
  // a.gov.xx delegates to ns.b.gov.xx; b.gov.xx delegates to ns.a.gov.xx —
  // neither resolvable without the other. The resolver's depth budget must
  // cut the mutual recursion.
  auto gov = std::make_shared<zone::Zone>(Name::FromString("gov.xx"));
  gov->Add(MakeNs(Name::FromString("a.gov.xx"), Name::FromString("ns.b.gov.xx")));
  gov->Add(MakeNs(Name::FromString("b.gov.xx"), Name::FromString("ns.a.gov.xx")));
  world_.gov_server->RemoveZone(Name::FromString("gov.xx"));
  // Rebuild the gov zone with the cycle plus its own apex data.
  gov->Add(MakeNs(Name::FromString("gov.xx"), Name::FromString("ns1.nic.gov.xx")));
  gov->Add(MakeA(Name::FromString("ns1.nic.gov.xx"), TinyInternet::Ip(10, 0, 2, 1)));
  gov->Seal();
  world_.gov_server->AddZone(gov);

  auto result = resolver_.Resolve(Name::FromString("www.a.gov.xx"),
                                  dns::RRType::kA);
  EXPECT_FALSE(result.ok());  // fails, but returns
}

TEST_F(FailureInjectionTest, SelfReferentialGluelessDelegationTerminates) {
  auto gov = std::make_shared<zone::Zone>(Name::FromString("gov.xx"));
  gov->Add(MakeNs(Name::FromString("loop.gov.xx"),
                  Name::FromString("ns.loop.gov.xx")));  // glueless, in-zone
  gov->Add(MakeNs(Name::FromString("gov.xx"), Name::FromString("ns1.nic.gov.xx")));
  gov->Add(MakeA(Name::FromString("ns1.nic.gov.xx"), TinyInternet::Ip(10, 0, 2, 1)));
  world_.gov_server->RemoveZone(Name::FromString("gov.xx"));
  gov->Seal();
  world_.gov_server->AddZone(gov);
  auto result =
      resolver_.Resolve(Name::FromString("www.loop.gov.xx"), dns::RRType::kA);
  EXPECT_FALSE(result.ok());
}

TEST_F(FailureInjectionTest, MalformedResponderIsDefectiveNotFatal) {
  // An endpoint that answers with garbage bytes.
  geo::IPv4 addr = TinyInternet::Ip(10, 0, 9, 9);
  world_.net.AttachHandler(addr, [](const std::vector<uint8_t>&) {
    return std::vector<uint8_t>{0xde, 0xad, 0xbe, 0xef};
  });
  ServerReply reply = resolver_.QueryServer(
      addr, Name::FromString("moe.gov.xx"), dns::RRType::kNS);
  EXPECT_EQ(reply.outcome, QueryOutcome::kMalformed);
}

TEST_F(FailureInjectionTest, MismatchedTransactionIdRejected) {
  geo::IPv4 addr = TinyInternet::Ip(10, 0, 9, 10);
  world_.net.AttachHandler(addr, [](const std::vector<uint8_t>& wire) {
    auto query = dns::Message::Decode(wire);
    dns::Message reply = dns::MakeResponse(*query, dns::Rcode::kNoError);
    reply.header.id ^= 0xFFFF;  // off-path spoof with the wrong id
    return reply.Encode();
  });
  ServerReply reply = resolver_.QueryServer(
      addr, Name::FromString("moe.gov.xx"), dns::RRType::kNS);
  EXPECT_EQ(reply.outcome, QueryOutcome::kMalformed);
}

// Total-loss and heavy-loss termination live in degradation_test.cc with the
// rest of the non-terminating fault coverage (DESIGN.md §6g).

TEST_F(FailureInjectionTest, TldRefusingEverythingIsDeadParent) {
  world_.tld_server->set_mode(zone::ServerMode::kRefuseAll);
  ActiveMeasurer measurer(&world_.net, world_.roots());
  auto r = measurer.Measure(Name::FromString("moe.gov.xx"));
  EXPECT_FALSE(r.parent_located);
  EXPECT_FALSE(r.parent_has_records);
}

TEST_F(FailureInjectionTest, TruncatingServerIsMalformedAfterRetries) {
  // A middlebox that sets TC on every reply: the payload is never usable
  // over UDP, so after exhausting retries the verdict is kMalformed.
  const geo::IPv4 moe = TinyInternet::Ip(10, 0, 3, 1);
  auto b = world_.net.GetBehavior(moe);
  b.truncate_rate = 1.0;
  world_.net.SetBehavior(moe, b);
  ServerReply reply = resolver_.QueryServer(
      moe, Name::FromString("www.moe.gov.xx"), dns::RRType::kA);
  EXPECT_EQ(reply.outcome, QueryOutcome::kMalformed);
  EXPECT_FALSE(reply.message.has_value());
  EXPECT_GE(resolver_.counters().truncated, 3u);  // every attempt truncated
}

TEST_F(FailureInjectionTest, PersistentSpoofedIdsAreMalformed) {
  const geo::IPv4 moe = TinyInternet::Ip(10, 0, 3, 1);
  auto b = world_.net.GetBehavior(moe);
  b.wrong_id_rate = 1.0;
  world_.net.SetBehavior(moe, b);
  ServerReply reply = resolver_.QueryServer(
      moe, Name::FromString("www.moe.gov.xx"), dns::RRType::kA);
  EXPECT_EQ(reply.outcome, QueryOutcome::kMalformed);
  EXPECT_GE(resolver_.counters().wrong_id, 3u);
}

TEST_F(FailureInjectionTest, IntermittentSpoofRecoveredByRetry) {
  const geo::IPv4 moe = TinyInternet::Ip(10, 0, 3, 1);
  auto b = world_.net.GetBehavior(moe);
  b.wrong_id_rate = 0.5;
  world_.net.SetBehavior(moe, b);
  ResolverOptions options;
  options.retry.max_attempts = 10;
  IterativeResolver armored(&world_.net, world_.roots(), options);
  ServerReply reply = armored.QueryServer(
      moe, Name::FromString("www.moe.gov.xx"), dns::RRType::kA);
  EXPECT_EQ(reply.outcome, QueryOutcome::kAuthAnswer);
}

TEST_F(FailureInjectionTest, RateLimitedServerRefusesNotFatal) {
  const geo::IPv4 moe = TinyInternet::Ip(10, 0, 3, 1);
  auto b = world_.net.GetBehavior(moe);
  b.rate_limit_per_sec = 1;
  world_.net.SetBehavior(moe, b);
  const Name q = Name::FromString("www.moe.gov.xx");
  ServerReply first = resolver_.QueryServer(moe, q, dns::RRType::kA);
  EXPECT_EQ(first.outcome, QueryOutcome::kAuthAnswer);
  ServerReply second = resolver_.QueryServer(moe, q, dns::RRType::kA);
  EXPECT_EQ(second.outcome, QueryOutcome::kRefused);
  EXPECT_GE(resolver_.counters().refused, 1u);
  // The next logical second replenishes the budget.
  world_.net.clock().Advance(1000);
  ServerReply third = resolver_.QueryServer(moe, q, dns::RRType::kA);
  EXPECT_EQ(third.outcome, QueryOutcome::kAuthAnswer);
}

TEST_F(FailureInjectionTest, FlappingServerRecoveredByBackoff) {
  const geo::IPv4 moe = TinyInternet::Ip(10, 0, 3, 1);
  auto b = world_.net.GetBehavior(moe);
  b.flap_period_ms = 1200;
  world_.net.SetBehavior(moe, b);
  ResolverOptions options;
  options.retry.max_attempts = 8;
  options.retry.initial_backoff_ms = 500;
  IterativeResolver armored(&world_.net, world_.roots(), options);
  // Each timed-out attempt plus its backoff moves the clock past window
  // boundaries, so some attempt lands in an up-window.
  ServerReply reply = armored.QueryServer(
      moe, Name::FromString("www.moe.gov.xx"), dns::RRType::kA);
  EXPECT_EQ(reply.outcome, QueryOutcome::kAuthAnswer);
}

TEST_F(FailureInjectionTest, ParkingWildcardDoesNotLookLame) {
  // Delegate park.gov.xx to the parking-style server: the measurement sees
  // responsive-but-inconsistent, not defective (the §IV-D scenario).
  auto gov = std::make_shared<zone::Zone>(Name::FromString("gov.xx"));
  gov->Add(MakeNs(Name::FromString("gov.xx"), Name::FromString("ns1.nic.gov.xx")));
  gov->Add(MakeA(Name::FromString("ns1.nic.gov.xx"), TinyInternet::Ip(10, 0, 2, 1)));
  // The delegation still names the long-gone operator; its address is now
  // held by the parking service, which answers under its own NS name.
  gov->Add(MakeNs(Name::FromString("park.gov.xx"),
                  Name::FromString("ns1.oldco.gov.xx")));
  gov->Add(MakeA(Name::FromString("ns1.oldco.gov.xx"), TinyInternet::Ip(10, 0, 8, 1)));
  world_.gov_server->RemoveZone(Name::FromString("gov.xx"));
  gov->Seal();
  world_.gov_server->AddZone(gov);

  static zone::AuthServer parking("ns1.parkit.gov.xx",
                                  zone::ServerMode::kParking);
  parking.SetParkingAddresses({TinyInternet::Ip(10, 0, 8, 1)});
  world_.net.AttachHandler(
      TinyInternet::Ip(10, 0, 8, 1), [](const std::vector<uint8_t>& wire) {
        auto query = dns::Message::Decode(wire);
        return parking.Answer(*query);
      });

  ActiveMeasurer measurer(&world_.net, world_.roots());
  auto r = measurer.Measure(Name::FromString("park.gov.xx"));
  EXPECT_TRUE(r.child_any_authoritative);
  EXPECT_EQ(ClassifyDelegation(r), DelegationHealth::kHealthy);
  auto klass = ClassifyConsistency(r);
  EXPECT_NE(klass, ConsistencyClass::kEqual);
  EXPECT_NE(klass, ConsistencyClass::kNotComparable);
}

}  // namespace
}  // namespace govdns::core
