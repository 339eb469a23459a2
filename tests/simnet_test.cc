#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "dns/message.h"
#include "simnet/network.h"

namespace govdns::simnet {
namespace {

std::vector<uint8_t> Echo(const std::vector<uint8_t>& in) { return in; }

TEST(SimNetworkTest, ExchangeDeliversToHandler) {
  SimNetwork net(1);
  geo::IPv4 addr(10, 0, 0, 1);
  net.AttachHandler(addr, [](const std::vector<uint8_t>& q) {
    std::vector<uint8_t> reply = q;
    reply.push_back(0xFF);
    return reply;
  });
  auto reply = net.Exchange(addr, {1, 2, 3});
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, (std::vector<uint8_t>{1, 2, 3, 0xFF}));
  EXPECT_EQ(net.stats().delivered, 1u);
}

TEST(SimNetworkTest, UnreachableWithoutHandler) {
  SimNetwork net(1);
  auto reply = net.Exchange(geo::IPv4(10, 0, 0, 9), {1});
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), util::ErrorCode::kUnavailable);
  EXPECT_EQ(net.stats().unreachable, 1u);
}

TEST(SimNetworkTest, SilentEndpointTimesOutEvenWithHandler) {
  SimNetwork net(1);
  geo::IPv4 addr(10, 0, 0, 2);
  net.AttachHandler(addr, Echo);
  net.SetBehavior(addr, EndpointBehavior{.silent = true});
  auto reply = net.Exchange(addr, {1});
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), util::ErrorCode::kTimeout);
  EXPECT_EQ(net.stats().timeouts, 1u);
}

TEST(SimNetworkTest, SilentWorksWithoutHandlerToo) {
  SimNetwork net(1);
  geo::IPv4 addr(10, 0, 0, 3);
  net.SetBehavior(addr, EndpointBehavior{.silent = true});
  auto reply = net.Exchange(addr, {1});
  EXPECT_EQ(reply.status().code(), util::ErrorCode::kTimeout);
}

TEST(SimNetworkTest, SlowEndpointExceedingTimeoutTimesOut) {
  SimNetwork net(1);
  geo::IPv4 addr(10, 0, 0, 4);
  net.AttachHandler(addr, Echo);
  net.SetBehavior(addr, EndpointBehavior{.rtt_ms = 5000});
  net.set_timeout_ms(2000);
  EXPECT_EQ(net.Exchange(addr, {1}).status().code(),
            util::ErrorCode::kTimeout);
}

TEST(SimNetworkTest, ClockAdvancesWithTraffic) {
  SimNetwork net(1);
  geo::IPv4 addr(10, 0, 0, 5);
  net.AttachHandler(addr, Echo);
  net.SetBehavior(addr, EndpointBehavior{.rtt_ms = 30});
  uint64_t before = net.clock().now_ms();
  (void)net.Exchange(addr, {1});
  EXPECT_EQ(net.clock().now_ms(), before + 30);
  // Timeouts cost the full timeout budget.
  net.SetBehavior(addr, EndpointBehavior{.silent = true});
  before = net.clock().now_ms();
  (void)net.Exchange(addr, {1});
  EXPECT_EQ(net.clock().now_ms(), before + net.timeout_ms());
}

TEST(SimNetworkTest, LossIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    SimNetwork net(seed);
    geo::IPv4 addr(10, 0, 0, 6);
    net.AttachHandler(addr, Echo);
    net.SetBehavior(addr, EndpointBehavior{.loss_rate = 0.5});
    std::vector<bool> outcomes;
    for (int i = 0; i < 64; ++i) {
      outcomes.push_back(net.Exchange(addr, {1}).ok());
    }
    return outcomes;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(SimNetworkTest, LossRateApproximatelyHonored) {
  SimNetwork net(3);
  geo::IPv4 addr(10, 0, 0, 7);
  net.AttachHandler(addr, Echo);
  net.SetBehavior(addr, EndpointBehavior{.loss_rate = 0.25});
  int ok = 0;
  for (int i = 0; i < 2000; ++i) ok += net.Exchange(addr, {1}).ok();
  EXPECT_NEAR(ok / 2000.0, 0.75, 0.05);
}

TEST(SimNetworkTest, RetriesGetFreshLossDraws) {
  SimNetwork net(3);
  geo::IPv4 addr(10, 0, 0, 8);
  net.AttachHandler(addr, Echo);
  net.SetBehavior(addr, EndpointBehavior{.loss_rate = 0.5});
  // With per-exchange draws, some retry sequence must eventually succeed.
  bool any_ok = false;
  for (int i = 0; i < 32 && !any_ok; ++i) any_ok = net.Exchange(addr, {1}).ok();
  EXPECT_TRUE(any_ok);
}

TEST(SimNetworkTest, DetachHandlerMakesUnreachable) {
  SimNetwork net(1);
  geo::IPv4 addr(10, 0, 0, 10);
  net.AttachHandler(addr, Echo);
  EXPECT_TRUE(net.HasHandler(addr));
  net.DetachHandler(addr);
  EXPECT_FALSE(net.HasHandler(addr));
  EXPECT_EQ(net.Exchange(addr, {1}).status().code(),
            util::ErrorCode::kUnavailable);
}

TEST(SimNetworkTest, EndpointCount) {
  SimNetwork net(1);
  EXPECT_EQ(net.endpoint_count(), 0u);
  net.AttachHandler(geo::IPv4(1, 1, 1, 1), Echo);
  net.AttachHandler(geo::IPv4(1, 1, 1, 2), Echo);
  net.AttachHandler(geo::IPv4(1, 1, 1, 1), Echo);  // replace, not add
  EXPECT_EQ(net.endpoint_count(), 2u);
}

// --- chaos model ----------------------------------------------------------

// A decodable DNS query so damage modes can operate on realistic wire bytes.
std::vector<uint8_t> WireQuery(uint16_t id = 1) {
  return dns::MakeQuery(id, dns::Name::FromString("q.example"),
                        dns::RRType::kA)
      .Encode();
}

std::vector<uint8_t> DnsEcho(const std::vector<uint8_t>& wire) {
  auto query = dns::Message::Decode(wire);
  return dns::MakeResponse(*query, dns::Rcode::kNoError).Encode();
}

TEST(SimNetworkChaosTest, FlappingEndpointAlternatesSilenceWindows) {
  SimNetwork net(11);
  geo::IPv4 addr(10, 0, 1, 1);
  net.AttachHandler(addr, Echo);
  net.SetBehavior(addr, EndpointBehavior{.flap_period_ms = 1000});
  int up = 0, down = 0;
  for (int i = 0; i < 20; ++i) {
    // Probe at the start of each window; each exchange also advances the
    // clock, so land back on a window boundary before the next probe.
    if (net.Exchange(addr, {1}).ok()) {
      ++up;
    } else {
      ++down;
    }
    uint64_t next_window = (net.clock().now_ms() / 1000 + 1) * 1000;
    net.clock().Advance(next_window - net.clock().now_ms());
  }
  EXPECT_GT(up, 0);
  EXPECT_GT(down, 0);
  EXPECT_EQ(net.stats().flap_dropped, uint64_t(down));
  // Flap drops cost the client its full timeout, like any silence.
  EXPECT_EQ(net.stats().timeouts, uint64_t(down));
}

TEST(SimNetworkChaosTest, FlapPhaseDiffersAcrossEndpoints) {
  SimNetwork net(11);
  geo::IPv4 a(10, 0, 1, 1), b(10, 0, 1, 2);
  net.AttachHandler(a, Echo);
  net.AttachHandler(b, Echo);
  for (geo::IPv4 ip : {a, b}) {
    net.SetBehavior(ip, EndpointBehavior{.flap_period_ms = 4000});
  }
  // Sample both endpoints across several windows; desynchronized phases
  // must disagree at least once.
  bool disagreed = false;
  for (int i = 0; i < 16 && !disagreed; ++i) {
    bool a_ok = net.Exchange(a, {1}).ok();
    bool b_ok = net.Exchange(b, {1}).ok();
    disagreed = a_ok != b_ok;
    net.clock().Advance(1500);
  }
  EXPECT_TRUE(disagreed);
}

TEST(SimNetworkChaosTest, RateLimitRefusesBeyondPerSecondBudget) {
  SimNetwork net(5);
  geo::IPv4 addr(10, 0, 2, 1);
  net.AttachHandler(addr, DnsEcho);
  net.SetBehavior(addr, EndpointBehavior{.rtt_ms = 1, .rate_limit_per_sec = 2});
  int refused = 0;
  for (int i = 0; i < 5; ++i) {
    auto raw = net.Exchange(addr, WireQuery(uint16_t(i + 1)));
    ASSERT_TRUE(raw.ok());
    auto msg = dns::Message::Decode(*raw);
    ASSERT_TRUE(msg.ok());
    refused += msg->header.rcode == dns::Rcode::kRefused;
  }
  EXPECT_EQ(refused, 3);  // budget of 2, then REFUSED
  EXPECT_EQ(net.stats().rate_limited, 3u);
  // A fresh logical second resets the window.
  net.clock().Advance(1000);
  auto raw = net.Exchange(addr, WireQuery(9));
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(dns::Message::Decode(*raw)->header.rcode, dns::Rcode::kNoError);
}

TEST(SimNetworkChaosTest, TruncatedRepliesCarryTcBit) {
  SimNetwork net(5);
  geo::IPv4 addr(10, 0, 2, 2);
  net.AttachHandler(addr, DnsEcho);
  net.SetBehavior(addr, EndpointBehavior{.truncate_rate = 1.0});
  auto raw = net.Exchange(addr, WireQuery());
  ASSERT_TRUE(raw.ok());
  auto msg = dns::Message::Decode(*raw);
  ASSERT_TRUE(msg.ok());
  EXPECT_TRUE(msg->header.tc);
  EXPECT_EQ(net.stats().truncated, 1u);
  EXPECT_EQ(net.stats().delivered, 1u);
}

TEST(SimNetworkChaosTest, WrongIdRepliesKeepPayloadButMismatch) {
  SimNetwork net(5);
  geo::IPv4 addr(10, 0, 2, 3);
  net.AttachHandler(addr, DnsEcho);
  net.SetBehavior(addr, EndpointBehavior{.wrong_id_rate = 1.0});
  auto raw = net.Exchange(addr, WireQuery(0x1234));
  ASSERT_TRUE(raw.ok());
  auto msg = dns::Message::Decode(*raw);
  ASSERT_TRUE(msg.ok());  // decodable — only the transaction id is off
  EXPECT_NE(msg->header.id, 0x1234);
  EXPECT_EQ(net.stats().wrong_id, 1u);
}

TEST(SimNetworkChaosTest, CorruptedRepliesAreUndecodable) {
  SimNetwork net(5);
  geo::IPv4 addr(10, 0, 2, 4);
  net.AttachHandler(addr, DnsEcho);
  net.SetBehavior(addr, EndpointBehavior{.corrupt_rate = 1.0});
  auto raw = net.Exchange(addr, WireQuery());
  ASSERT_TRUE(raw.ok());
  EXPECT_FALSE(dns::Message::Decode(*raw).ok());
  EXPECT_EQ(net.stats().corrupted, 1u);
}

TEST(SimNetworkChaosTest, BurstLossIsCorrelated) {
  SimNetwork net(9);
  geo::IPv4 addr(10, 0, 2, 5);
  net.AttachHandler(addr, Echo);
  net.SetBehavior(addr, EndpointBehavior{.burst_start_rate = 1.0,
                                         .burst_length = 3});
  // With certain burst starts every exchange drops: one starter plus the
  // rest of its burst, then the next burst begins immediately.
  for (int i = 0; i < 6; ++i) EXPECT_FALSE(net.Exchange(addr, {1}).ok());
  EXPECT_EQ(net.stats().burst_dropped, 6u);
  EXPECT_EQ(net.stats().delivered, 0u);
}

TEST(SimNetworkChaosTest, BurstsEndAndTrafficResumes) {
  SimNetwork net(9);
  geo::IPv4 addr(10, 0, 2, 6);
  net.AttachHandler(addr, Echo);
  net.SetBehavior(addr, EndpointBehavior{.burst_start_rate = 0.05,
                                         .burst_length = 8});
  int delivered = 0;
  for (int i = 0; i < 400; ++i) delivered += net.Exchange(addr, {1}).ok();
  EXPECT_GT(delivered, 0);
  EXPECT_GT(net.stats().burst_dropped, 0u);
  EXPECT_EQ(net.stats().delivered, uint64_t(delivered));
}

TEST(SimNetworkChaosTest, JitterVariesRoundTripTime) {
  SimNetwork net(13);
  geo::IPv4 addr(10, 0, 2, 7);
  net.AttachHandler(addr, Echo);
  net.SetBehavior(addr, EndpointBehavior{.rtt_ms = 30, .rtt_jitter_ms = 40});
  std::vector<uint64_t> deltas;
  for (int i = 0; i < 16; ++i) {
    uint64_t before = net.clock().now_ms();
    ASSERT_TRUE(net.Exchange(addr, {1}).ok());
    deltas.push_back(net.clock().now_ms() - before);
  }
  for (uint64_t d : deltas) {
    EXPECT_GE(d, 30u);
    EXPECT_LE(d, 70u);
  }
  EXPECT_GT(*std::max_element(deltas.begin(), deltas.end()),
            *std::min_element(deltas.begin(), deltas.end()));
}

TEST(SimNetworkChaosTest, ChaosIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    SimNetwork net(seed);
    geo::IPv4 addr(10, 0, 3, 1);
    net.AttachHandler(addr, DnsEcho);
    net.SetBehavior(addr, EndpointBehavior{.loss_rate = 0.1,
                                           .rtt_jitter_ms = 40,
                                           .corrupt_rate = 0.2,
                                           .truncate_rate = 0.2,
                                           .wrong_id_rate = 0.2,
                                           .burst_start_rate = 0.05,
                                           .burst_length = 3,
                                           .rate_limit_per_sec = 16});
    std::vector<std::vector<uint8_t>> transcript;
    for (int i = 0; i < 64; ++i) {
      auto raw = net.Exchange(addr, WireQuery(uint16_t(i)));
      transcript.push_back(raw.ok() ? *raw : std::vector<uint8_t>{});
    }
    return transcript;
  };
  EXPECT_EQ(run(21), run(21));
  EXPECT_NE(run(21), run(22));
}

// --- chaos contexts ---------------------------------------------------------

// Endpoints whose chaos state a context keeps: a bursty one, a
// rate-limited one, and one with loss, jitter and every damage mode.
const geo::IPv4 kBursty(10, 0, 4, 1);
const geo::IPv4 kLimited(10, 0, 4, 2);
const geo::IPv4 kStormy(10, 0, 4, 3);

void AttachContextEndpoints(SimNetwork& net) {
  for (geo::IPv4 ip : {kBursty, kLimited, kStormy}) {
    net.AttachHandler(ip, DnsEcho);
  }
  net.SetBehavior(kBursty, EndpointBehavior{.burst_start_rate = 0.2,
                                            .burst_length = 3});
  net.SetBehavior(kLimited,
                  EndpointBehavior{.rtt_ms = 1, .rate_limit_per_sec = 2});
  net.SetBehavior(kStormy, EndpointBehavior{.loss_rate = 0.2,
                                            .rtt_jitter_ms = 40,
                                            .corrupt_rate = 0.1,
                                            .truncate_rate = 0.1,
                                            .wrong_id_rate = 0.1});
}

// What one exchange showed the caller, and the clock after it.
struct Outcome {
  util::ErrorCode code;
  std::vector<uint8_t> reply;
  uint64_t now_ms;
  friend bool operator==(const Outcome&, const Outcome&) = default;
};

// Exchanges first .. first + count - 1 of a fixed schedule, in the calling
// thread's current context (or none): round robin over the three
// endpoints, every fifth one a stream, the query id the exchange's number.
std::vector<Outcome> Exchanges(SimNetwork& net, int count, int first = 0) {
  static const geo::IPv4 kServers[] = {kBursty, kLimited, kStormy};
  std::vector<Outcome> out;
  for (int i = first; i < first + count; ++i) {
    const geo::IPv4 server = kServers[i % 3];
    const auto query = WireQuery(static_cast<uint16_t>(i));
    auto raw = i % 5 == 4 ? net.ExchangeStream(server, query)
                          : net.Exchange(server, query);
    out.push_back({raw.status().code(),
                   raw.ok() ? *raw : std::vector<uint8_t>{}, net.now_ms()});
  }
  return out;
}

std::vector<Outcome> InContext(SimNetwork& net, uint64_t tag, int count) {
  net.PushChaosContext(tag);
  std::vector<Outcome> out = Exchanges(net, count);
  net.PopChaosContext();
  return out;
}

NetworkStats Sum(const NetworkStats& a, const NetworkStats& b) {
  NetworkStats s = a;
  s.exchanges += b.exchanges;
  s.stream_exchanges += b.stream_exchanges;
  s.timeouts += b.timeouts;
  s.unreachable += b.unreachable;
  s.delivered += b.delivered;
  s.flap_dropped += b.flap_dropped;
  s.burst_dropped += b.burst_dropped;
  s.rate_limited += b.rate_limited;
  s.corrupted += b.corrupted;
  s.truncated += b.truncated;
  s.wrong_id += b.wrong_id;
  s.hung += b.hung;
  s.blackholed += b.blackholed;
  s.slow_dripped += b.slow_dripped;
  return s;
}

void ExpectSameStats(const NetworkStats& got, const NetworkStats& want) {
  EXPECT_EQ(got.exchanges, want.exchanges);
  EXPECT_EQ(got.stream_exchanges, want.stream_exchanges);
  EXPECT_EQ(got.timeouts, want.timeouts);
  EXPECT_EQ(got.unreachable, want.unreachable);
  EXPECT_EQ(got.delivered, want.delivered);
  EXPECT_EQ(got.flap_dropped, want.flap_dropped);
  EXPECT_EQ(got.burst_dropped, want.burst_dropped);
  EXPECT_EQ(got.rate_limited, want.rate_limited);
  EXPECT_EQ(got.corrupted, want.corrupted);
  EXPECT_EQ(got.truncated, want.truncated);
  EXPECT_EQ(got.wrong_id, want.wrong_id);
  EXPECT_EQ(got.hung, want.hung);
  EXPECT_EQ(got.blackholed, want.blackholed);
  EXPECT_EQ(got.slow_dripped, want.slow_dripped);
}

TEST(SimNetworkContextTest, SameTagOnTwoThreadsDrawsTheSameOutcomes) {
  SimNetwork net(31);
  AttachContextEndpoints(net);
  std::vector<Outcome> a, b;
  std::thread ta([&] { a = InContext(net, 77, 300); });
  std::thread tb([&] { b = InContext(net, 77, 300); });
  ta.join();
  tb.join();
  ASSERT_EQ(a.size(), 300u);
  EXPECT_EQ(a, b);
  // Context-free traffic in between does not shift a context's draws.
  (void)Exchanges(net, 50);
  EXPECT_EQ(InContext(net, 77, 300), a);
  // The draws do cover the chaos, and another tag draws differently.
  EXPECT_TRUE(std::any_of(a.begin(), a.end(), [](const Outcome& o) {
    return o.code == util::ErrorCode::kTimeout;
  }));
  EXPECT_NE(InContext(net, 78, 300), a);
}

TEST(SimNetworkContextTest, NestedContextKeepsItsOwnState) {
  SimNetwork net(31);
  AttachContextEndpoints(net);
  const std::vector<Outcome> outer_alone = InContext(net, 1, 120);
  const std::vector<Outcome> inner_alone = InContext(net, 2, 90);

  net.PushChaosContext(1);
  std::vector<Outcome> outer = Exchanges(net, 60);
  const uint64_t outer_clock = net.now_ms();
  const std::vector<Outcome> inner = InContext(net, 2, 90);
  // The outer clock resumes where it left off ...
  EXPECT_EQ(net.now_ms(), outer_clock);
  // ... and so do its ordinals and its burst and rate-limit state.
  const std::vector<Outcome> rest = Exchanges(net, 60, /*first=*/60);
  outer.insert(outer.end(), rest.begin(), rest.end());
  net.PopChaosContext();

  EXPECT_EQ(inner, inner_alone);
  EXPECT_EQ(outer, outer_alone);
}

TEST(SimNetworkContextTest, CountsReachStatsOnceWhenTheContextPops) {
  SimNetwork net(31);
  AttachContextEndpoints(net);
  // The reference: the same exchanges on a network of their own.
  SimNetwork solo(31);
  AttachContextEndpoints(solo);
  (void)InContext(solo, 5, 90);
  const NetworkStats in_context = solo.stats();
  ASSERT_EQ(in_context.exchanges, 90u);
  ASSERT_GT(in_context.timeouts, 0u);
  ASSERT_GT(in_context.rate_limited, 0u);

  // A context-free exchange counts at once.
  (void)net.Exchange(kLimited, WireQuery());
  const NetworkStats free = net.stats();
  EXPECT_EQ(free.exchanges, 1u);
  EXPECT_EQ(free.delivered, 1u);

  net.PushChaosContext(5);
  (void)Exchanges(net, 45);
  // A nested context folds its own counts when it pops, and only those.
  net.PushChaosContext(6);
  (void)Exchanges(net, 30);
  ExpectSameStats(net.stats(), free);
  net.PopChaosContext();
  const NetworkStats after_inner = net.stats();
  EXPECT_EQ(after_inner.exchanges, 31u);
  (void)Exchanges(net, 45, /*first=*/45);
  ExpectSameStats(net.stats(), after_inner);
  net.PopChaosContext();
  ExpectSameStats(net.stats(), Sum(after_inner, in_context));

  // Nothing more arrives later: an empty context adds nothing, and the
  // next context-free exchange adds exactly one.
  net.PushChaosContext(7);
  net.PopChaosContext();
  ExpectSameStats(net.stats(), Sum(after_inner, in_context));
  (void)net.Exchange(kLimited, WireQuery());
  EXPECT_EQ(net.stats().exchanges, 31u + 90u + 1u);
}

TEST(SimNetworkContextTest, ConcurrentContextsSumExactly) {
  constexpr int kThreads = 4;
  constexpr int kContexts = 1000;
  constexpr int kPerContext = 12;
  SimNetwork net(31);
  AttachContextEndpoints(net);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&net, t] {
      for (int i = 0; i < kContexts; ++i) {
        (void)InContext(net, uint64_t(t) * kContexts + i, kPerContext);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // The same contexts one after another on one thread.
  SimNetwork serial(31);
  AttachContextEndpoints(serial);
  for (int c = 0; c < kThreads * kContexts; ++c) {
    (void)InContext(serial, uint64_t(c), kPerContext);
  }
  const NetworkStats got = net.stats();
  EXPECT_EQ(got.exchanges, uint64_t{kThreads} * kContexts * kPerContext);
  EXPECT_GT(got.burst_dropped, 0u);
  EXPECT_GT(got.rate_limited, 0u);
  ExpectSameStats(got, serial.stats());
}

TEST(ChaosProfileTest, BenignDefaultLeavesBehaviorUntouched) {
  ChaosProfile benign;
  EXPECT_FALSE(benign.Any());
  EndpointBehavior base{.loss_rate = 0.01, .rtt_ms = 25};
  EndpointBehavior out = benign.Realize(7, geo::IPv4(10, 9, 9, 9), base);
  EXPECT_EQ(out.loss_rate, base.loss_rate);
  EXPECT_EQ(out.rtt_ms, base.rtt_ms);
  EXPECT_EQ(out.flap_period_ms, 0u);
  EXPECT_EQ(out.rate_limit_per_sec, 0u);
  EXPECT_EQ(out.corrupt_rate, 0.0);
}

TEST(ChaosProfileTest, RealizeIsAPureFunctionOfSeedAndAddress) {
  ChaosProfile hostile = ChaosProfile::Hostile();
  EXPECT_TRUE(hostile.Any());
  geo::IPv4 addr(10, 4, 4, 4);
  EndpointBehavior a = hostile.Realize(42, addr, EndpointBehavior{});
  EndpointBehavior b = hostile.Realize(42, addr, EndpointBehavior{});
  EXPECT_EQ(a.flap_period_ms, b.flap_period_ms);
  EXPECT_EQ(a.rate_limit_per_sec, b.rate_limit_per_sec);
  EXPECT_EQ(a.truncate_rate, b.truncate_rate);
  EXPECT_EQ(a.wrong_id_rate, b.wrong_id_rate);
  EXPECT_EQ(a.corrupt_rate, b.corrupt_rate);
  EXPECT_EQ(a.burst_start_rate, b.burst_start_rate);
  EXPECT_EQ(a.rtt_jitter_ms, b.rtt_jitter_ms);
}

TEST(ChaosProfileTest, HostileAfflictsAFractionOfEndpoints) {
  ChaosProfile hostile = ChaosProfile::Hostile();
  int afflicted = 0;
  for (int i = 0; i < 400; ++i) {
    EndpointBehavior b = hostile.Realize(
        7, geo::IPv4(10, 20, uint8_t(i / 256), uint8_t(i % 256)),
        EndpointBehavior{});
    bool touched = b.flap_period_ms > 0 || b.rate_limit_per_sec > 0 ||
                   b.truncate_rate > 0.0 || b.wrong_id_rate > 0.0 ||
                   b.corrupt_rate > 0.0 || b.burst_start_rate > 0.0 ||
                   b.rtt_jitter_ms > 0;
    afflicted += touched;
  }
  // Hostile afflicts ~48% of endpoints; nowhere near none or all.
  EXPECT_GT(afflicted, 100);
  EXPECT_LT(afflicted, 320);
}

}  // namespace
}  // namespace govdns::simnet
