// Graceful degradation under non-terminating faults (DESIGN.md §6g):
// hang / blackhole / slow-drip endpoint semantics, the resolver's logical
// deadline, circuit-breaker reopen boundaries, quarantine classification,
// wall-clock watchdog supervision, and escalating signal handling. Also
// hosts the total-loss / heavy-loss termination cases folded in from the
// original failure-injection suite — they are degradation scenarios.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <functional>
#include <thread>
#include <vector>

#include "ckpt/signals.h"
#include "core/cut_cache.h"
#include "core/measure.h"
#include "core/resolver.h"
#include "core/watchdog.h"
#include "tests/test_world.h"

namespace govdns::core {
namespace {

using dns::Name;
using govdns::testing::TinyInternet;
using simnet::ChaosProfile;
using simnet::EndpointBehavior;

class DegradationTest : public ::testing::Test {
 protected:
  DegradationTest() : world_(), resolver_(&world_.net, world_.roots()) {}

  // Layers `mutate` onto whatever behaviour the endpoint already has.
  void Afflict(geo::IPv4 ip, const std::function<void(EndpointBehavior&)>& mutate) {
    EndpointBehavior b = world_.net.GetBehavior(ip);
    mutate(b);
    world_.net.SetBehavior(ip, b);
  }

  TinyInternet world_;
  IterativeResolver resolver_;
};

// ---- simnet fault classes --------------------------------------------------

TEST_F(DegradationTest, HangChargesFullTimeoutPerAttempt) {
  const geo::IPv4 moe = TinyInternet::Ip(10, 0, 3, 1);
  Afflict(moe, [](EndpointBehavior& b) { b.hang = true; });
  const uint64_t t0 = world_.net.clock().now_ms();
  ServerReply reply = resolver_.QueryServer(
      moe, Name::FromString("www.moe.gov.xx"), dns::RRType::kA);
  EXPECT_EQ(reply.outcome, QueryOutcome::kTimeout);
  // Every attempt pays the full client timeout; backoffs come on top.
  EXPECT_GE(world_.net.clock().now_ms() - t0,
            3u * world_.net.timeout_ms());
  simnet::NetworkStats stats = world_.net.stats();
  EXPECT_EQ(stats.hung, 3u);
  EXPECT_GE(stats.timeouts, 3u);  // hangs also count as timeouts
}

TEST_F(DegradationTest, HangWinsOverHandlerAbsence) {
  // A hang is dropped before the server would even be looked up: an
  // unoccupied-but-hanging address times out instead of reporting
  // promptly unreachable.
  const geo::IPv4 empty = TinyInternet::Ip(10, 0, 9, 50);
  Afflict(empty, [](EndpointBehavior& b) { b.hang = true; });
  ServerReply reply = resolver_.QueryServer(
      empty, Name::FromString("moe.gov.xx"), dns::RRType::kNS);
  EXPECT_EQ(reply.outcome, QueryOutcome::kTimeout);
  EXPECT_GE(world_.net.stats().hung, 1u);
  EXPECT_EQ(world_.net.stats().unreachable, 0u);
}

TEST_F(DegradationTest, BlackholeAcceptsThenDropsOnOccupiedAddress) {
  const geo::IPv4 moe = TinyInternet::Ip(10, 0, 3, 1);
  Afflict(moe, [](EndpointBehavior& b) { b.blackhole = true; });
  const uint64_t t0 = world_.net.clock().now_ms();
  ServerReply reply = resolver_.QueryServer(
      moe, Name::FromString("www.moe.gov.xx"), dns::RRType::kA);
  EXPECT_EQ(reply.outcome, QueryOutcome::kTimeout);
  EXPECT_GE(world_.net.clock().now_ms() - t0,
            3u * world_.net.timeout_ms());
  simnet::NetworkStats stats = world_.net.stats();
  EXPECT_EQ(stats.blackholed, 3u);
  EXPECT_GE(stats.timeouts, 3u);
}

TEST_F(DegradationTest, BlackholeOnUnoccupiedAddressIsStillPromptlyUnreachable) {
  // Blackhole means "accepted, then dropped": with nothing listening there
  // is no accept, so the client still gets the fast unreachable verdict and
  // the deadline budget is not silently drained by a dead address.
  const geo::IPv4 empty = TinyInternet::Ip(10, 0, 9, 51);
  Afflict(empty, [](EndpointBehavior& b) { b.blackhole = true; });
  const uint64_t t0 = world_.net.clock().now_ms();
  ServerReply reply = resolver_.QueryServer(
      empty, Name::FromString("moe.gov.xx"), dns::RRType::kNS);
  EXPECT_EQ(reply.outcome, QueryOutcome::kUnreachable);
  EXPECT_EQ(world_.net.stats().blackholed, 0u);
  EXPECT_GE(world_.net.stats().unreachable, 1u);
  EXPECT_LT(world_.net.clock().now_ms() - t0, world_.net.timeout_ms());
}

TEST_F(DegradationTest, SlowDripPastClientTimeoutIsTimeout) {
  const geo::IPv4 moe = TinyInternet::Ip(10, 0, 3, 1);
  Afflict(moe, [](EndpointBehavior& b) { b.slow_drip_delay_ms = 5000; });
  ServerReply reply = resolver_.QueryServer(
      moe, Name::FromString("www.moe.gov.xx"), dns::RRType::kA);
  EXPECT_EQ(reply.outcome, QueryOutcome::kTimeout);
  EXPECT_EQ(world_.net.stats().slow_dripped, 3u);
}

TEST_F(DegradationTest, SlowDripWithinTimeoutStillDelivers) {
  const geo::IPv4 moe = TinyInternet::Ip(10, 0, 3, 1);
  Afflict(moe, [](EndpointBehavior& b) { b.slow_drip_delay_ms = 500; });
  const uint64_t t0 = world_.net.clock().now_ms();
  ServerReply reply = resolver_.QueryServer(
      moe, Name::FromString("www.moe.gov.xx"), dns::RRType::kA);
  EXPECT_EQ(reply.outcome, QueryOutcome::kAuthAnswer);
  // A drip that fits in the timeout is a delayed answer, not a fault.
  EXPECT_EQ(world_.net.stats().slow_dripped, 0u);
  EXPECT_GE(world_.net.clock().now_ms() - t0, 500u);
}

TEST_F(DegradationTest, ChaosProfileAnyCoversNewFaultClasses) {
  ChaosProfile p;
  EXPECT_FALSE(p.Any());
  p.p_hang = 0.1;
  EXPECT_TRUE(p.Any());
  p = ChaosProfile();
  p.p_blackhole = 0.1;
  EXPECT_TRUE(p.Any());
  p = ChaosProfile();
  p.p_slow_drip = 0.1;
  EXPECT_TRUE(p.Any());
}

TEST_F(DegradationTest, RealizeNewDrawsNeverRerollExistingAfflictions) {
  // The non-terminating draws come strictly after the original seven in
  // Realize: enabling them must not change which endpoints flap, rate-limit,
  // truncate, spoof, corrupt, burst, or jitter for the same (seed, address).
  const ChaosProfile old_profile = ChaosProfile::Hostile();
  ChaosProfile new_profile = old_profile;
  new_profile.p_hang = 0.3;
  new_profile.p_blackhole = 0.3;
  new_profile.p_slow_drip = 0.3;

  int newly_afflicted = 0;
  for (int i = 0; i < 512; ++i) {
    const geo::IPv4 addr(10, 20, static_cast<uint8_t>(i / 256),
                         static_cast<uint8_t>(i % 256));
    const EndpointBehavior a =
        old_profile.Realize(2022, addr, EndpointBehavior{});
    const EndpointBehavior b =
        new_profile.Realize(2022, addr, EndpointBehavior{});
    EXPECT_EQ(a.flap_period_ms, b.flap_period_ms);
    EXPECT_EQ(a.rate_limit_per_sec, b.rate_limit_per_sec);
    EXPECT_EQ(a.truncate_rate, b.truncate_rate);
    EXPECT_EQ(a.wrong_id_rate, b.wrong_id_rate);
    EXPECT_EQ(a.corrupt_rate, b.corrupt_rate);
    EXPECT_EQ(a.burst_start_rate, b.burst_start_rate);
    EXPECT_EQ(a.burst_length, b.burst_length);
    EXPECT_EQ(a.rtt_jitter_ms, b.rtt_jitter_ms);
    // The old profile never afflicts the new classes...
    EXPECT_FALSE(a.hang);
    EXPECT_FALSE(a.blackhole);
    EXPECT_EQ(a.slow_drip_delay_ms, 0u);
    if (b.hang || b.blackhole || b.slow_drip_delay_ms > 0) ++newly_afflicted;
  }
  // ...while the new one actually strikes somewhere.
  EXPECT_GT(newly_afflicted, 0);
}

// ---- resolver logical deadline ---------------------------------------------

TEST_F(DegradationTest, DeadlineLatchesMidQueryAndDeniesAfterwards) {
  const geo::IPv4 moe = TinyInternet::Ip(10, 0, 3, 1);
  Afflict(moe, [](EndpointBehavior& b) { b.hang = true; });
  resolver_.ArmDeadline(3000);
  // Attempt 1 burns the 2000ms timeout + backoff; the pre-attempt check for
  // attempt 2 (or 3) crosses the deadline and latches it.
  ServerReply first = resolver_.QueryServer(
      moe, Name::FromString("www.moe.gov.xx"), dns::RRType::kA);
  EXPECT_EQ(first.outcome, QueryOutcome::kTimeout);
  EXPECT_TRUE(resolver_.DeadlineExceeded());
  EXPECT_GE(resolver_.counters().deadline_denied, 1u);

  // Past the deadline, queries are denied at entry without traffic.
  const uint64_t queries_before = resolver_.counters().queries;
  const uint64_t denied_before = resolver_.counters().deadline_denied;
  ServerReply second = resolver_.QueryServer(
      TinyInternet::Ip(10, 0, 2, 1), Name::FromString("moe.gov.xx"),
      dns::RRType::kNS);
  EXPECT_EQ(second.outcome, QueryOutcome::kTimeout);
  EXPECT_EQ(resolver_.counters().queries, queries_before);
  EXPECT_EQ(resolver_.counters().deadline_denied, denied_before + 1);

  // Disarming restores normal service against a healthy server.
  resolver_.DisarmDeadline();
  ServerReply third = resolver_.QueryServer(
      TinyInternet::Ip(10, 0, 2, 1), Name::FromString("moe.gov.xx"),
      dns::RRType::kNS);
  EXPECT_NE(third.outcome, QueryOutcome::kTimeout);
}

TEST_F(DegradationTest, GenerousDeadlineChangesNothing) {
  IterativeResolver plain(&world_.net, world_.roots());
  auto baseline = plain.Resolve(Name::FromString("www.moe.gov.xx"),
                                dns::RRType::kA);
  ASSERT_TRUE(baseline.ok());
  const ResolverCounters plain_counters = plain.counters();

  TinyInternet fresh_world;
  IterativeResolver armed(&fresh_world.net, fresh_world.roots());
  armed.ArmDeadline(10'000'000);
  auto result = armed.Resolve(Name::FromString("www.moe.gov.xx"),
                              dns::RRType::kA);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(armed.DeadlineExceeded());
  EXPECT_EQ(armed.counters(), plain_counters);
}

// ---- circuit breaker reopen boundary ---------------------------------------

TEST_F(DegradationTest, BreakerReopensExactlyAtCooldownBoundary) {
  // 10.0.4.1 is lame.gov.xx's glue: resolvable, nothing listens. Promptly
  // unreachable exchanges fail a whole QueryServer call in one attempt, so
  // breaker_threshold = 3 opens after exactly three calls.
  const geo::IPv4 dead = TinyInternet::Ip(10, 0, 4, 1);
  const Name q = Name::FromString("lame.gov.xx");
  for (int i = 0; i < 3; ++i) {
    ServerReply r = resolver_.QueryServer(dead, q, dns::RRType::kNS);
    EXPECT_EQ(r.outcome, QueryOutcome::kUnreachable);
  }
  EXPECT_EQ(resolver_.open_circuits(), 1u);
  // The breaker opened at the third failure, i.e. at the clock's current
  // value: open while now < open_until = now + cooldown.
  const uint64_t reopen_at =
      resolver_.now_ms() + resolver_.options().retry.breaker_cooldown_ms;

  // One tick before the boundary: still skipped, no traffic.
  world_.net.clock().Advance(reopen_at - 1 - resolver_.now_ms());
  const uint64_t queries_before = resolver_.counters().queries;
  ServerReply skipped = resolver_.QueryServer(dead, q, dns::RRType::kNS);
  EXPECT_EQ(skipped.outcome, QueryOutcome::kUnreachable);
  EXPECT_EQ(resolver_.counters().queries, queries_before);
  EXPECT_GE(resolver_.counters().breaker_skips, 1u);

  // At the boundary: half-open, a real attempt goes out again.
  world_.net.clock().Advance(1);
  ServerReply probe = resolver_.QueryServer(dead, q, dns::RRType::kNS);
  EXPECT_EQ(probe.outcome, QueryOutcome::kUnreachable);
  EXPECT_EQ(resolver_.counters().queries, queries_before + 1);

  // The open event reset the failure streak: one post-cooldown failure must
  // not re-open the breaker; it takes a fresh run of `threshold` failures.
  const uint64_t skips_after_probe = resolver_.counters().breaker_skips;
  ServerReply again = resolver_.QueryServer(dead, q, dns::RRType::kNS);
  EXPECT_EQ(again.outcome, QueryOutcome::kUnreachable);
  EXPECT_EQ(resolver_.counters().queries, queries_before + 2);
  EXPECT_EQ(resolver_.counters().breaker_skips, skips_after_probe);
  // Third post-cooldown failure re-opens; the next call is skipped again.
  resolver_.QueryServer(dead, q, dns::RRType::kNS);
  EXPECT_EQ(resolver_.open_circuits(), 1u);
  resolver_.QueryServer(dead, q, dns::RRType::kNS);
  EXPECT_EQ(resolver_.counters().breaker_skips, skips_after_probe + 1);
}

// ---- quarantine classification ---------------------------------------------

// Passes through the exchanges of the shared-cut walk, which runs in nested
// chaos contexts outside the domain's deadline and counters, and times out
// every datagram sent from the outermost context: the measured domain's own
// scope. A hung root would stall only the walk; this hangs the domain.
class DomainScopeHangTransport : public dns::QueryTransport {
 public:
  explicit DomainScopeHangTransport(simnet::SimNetwork* inner)
      : inner_(inner) {}

  util::StatusOr<std::vector<uint8_t>> Exchange(
      geo::IPv4 server, const std::vector<uint8_t>& wire_query) override {
    if (depth_ != 1) return inner_->Exchange(server, wire_query);
    inner_->Delay(inner_->timeout_ms());  // charged like a simulated hang
    return util::TimeoutError("hung endpoint " + server.ToString());
  }
  uint64_t now_ms() const override { return inner_->now_ms(); }
  void Delay(uint32_t ms) override { inner_->Delay(ms); }
  void PushChaosContext(uint64_t tag) override {
    ++depth_;
    inner_->PushChaosContext(tag);
  }
  void PopChaosContext() override {
    --depth_;
    inner_->PopChaosContext();
  }

 private:
  simnet::SimNetwork* inner_;
  int depth_ = 0;
};

TEST_F(DegradationTest, AllTimeoutDeadlineDomainClassifiedAsHang) {
  // Everything the domain sends hangs: every datagram times out, the
  // deadline latches inside the very first server query, and the verdict
  // is kHang.
  DomainScopeHangTransport hung(&world_.net);
  MeasurerOptions options;
  options.max_logical_ms_per_domain = 3000;
  ActiveMeasurer measurer(&hung, world_.roots(), ResolverOptions(), options);
  MeasurementResult r = measurer.Measure(Name::FromString("moe.gov.xx"));
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.quarantine_reason, QuarantineReason::kHang);
  EXPECT_GT(r.query_stats.queries, 0u);
  EXPECT_GE(r.query_stats.timeouts, r.query_stats.queries);
  EXPECT_GE(r.query_stats.deadline_denied, 1u);
}

TEST_F(DegradationTest, DeliveredThenDarkDeadlineDomainClassifiedAsBlackhole) {
  // Parent chain answers (root, TLD, gov.xx), then both child servers
  // swallow everything: delivered-then-dark is the blackhole shape.
  Afflict(TinyInternet::Ip(10, 0, 3, 1),
          [](EndpointBehavior& b) { b.blackhole = true; });
  Afflict(TinyInternet::Ip(10, 0, 3, 2),
          [](EndpointBehavior& b) { b.blackhole = true; });
  MeasurerOptions options;
  options.max_logical_ms_per_domain = 4000;
  ActiveMeasurer measurer(&world_.net, world_.roots(), ResolverOptions(),
                          options);
  MeasurementResult r = measurer.Measure(Name::FromString("moe.gov.xx"));
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.quarantine_reason, QuarantineReason::kBlackhole);
  EXPECT_TRUE(r.parent_located);
  EXPECT_LT(r.query_stats.timeouts, r.query_stats.queries);
}

TEST_F(DegradationTest, QueryBudgetExhaustionClassifiedAsBudgetExceeded) {
  MeasurerOptions options;
  options.max_queries_per_domain = 3;
  ActiveMeasurer measurer(&world_.net, world_.roots(), ResolverOptions(),
                          options);
  MeasurementResult r = measurer.Measure(Name::FromString("moe.gov.xx"));
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.quarantine_reason, QuarantineReason::kBudgetExceeded);
}

TEST_F(DegradationTest, HealthyMeasurementIsNotQuarantined) {
  MeasurerOptions options;
  options.max_logical_ms_per_domain = 60000;
  ActiveMeasurer measurer(&world_.net, world_.roots(), ResolverOptions(),
                          options);
  MeasurementResult r = measurer.Measure(Name::FromString("moe.gov.xx"));
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.quarantine_reason, QuarantineReason::kNone);
  EXPECT_EQ(QuarantineReasonName(r.quarantine_reason), std::string("none"));
}

// ---- retry-schedule determinism across worker counts -----------------------

std::vector<MeasurementResult> MeasurePool(int workers) {
  TinyInternet world;
  // Injected hangs: one moe secondary and the half.gov.xx primary hang, so
  // the retry/backoff engine is genuinely exercised, not just pass-through.
  auto afflict = [&world](geo::IPv4 ip) {
    EndpointBehavior b = world.net.GetBehavior(ip);
    b.hang = true;
    world.net.SetBehavior(ip, b);
  };
  afflict(TinyInternet::Ip(10, 0, 3, 2));
  afflict(TinyInternet::Ip(10, 0, 4, 11));
  MeasurerOptions options;
  options.workers = workers;
  options.max_logical_ms_per_domain = 30000;
  ActiveMeasurer measurer(&world.net, world.roots(), ResolverOptions(),
                          options);
  const std::vector<Name> domains = {
      Name::FromString("moe.gov.xx"),      Name::FromString("half.gov.xx"),
      Name::FromString("drift.gov.xx"),    Name::FromString("glueless.gov.xx"),
      Name::FromString("refused.gov.xx"),  Name::FromString("lame.gov.xx"),
      Name::FromString("victim.gov.yy"),   Name::FromString("chain.gov.yy"),
  };
  return measurer.MeasureAll(domains);
}

TEST(DegradationPoolTest, InjectedHangsYieldIdenticalRetrySchedules) {
  // Satellite acceptance: with hangs injected, the per-domain retry counts,
  // backoff charges, timeouts and logical timings must be byte-identical for
  // 1 and 4 workers — the deadline machinery is as deterministic as the
  // healthy path.
  const std::vector<MeasurementResult> serial = MeasurePool(1);
  const std::vector<MeasurementResult> pooled = MeasurePool(4);
  ASSERT_EQ(serial.size(), pooled.size());
  uint64_t total_retries = 0;
  uint64_t total_backoff = 0;
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], pooled[i]) << serial[i].domain.ToString();
    total_retries += serial[i].query_stats.retries;
    total_backoff += serial[i].query_stats.backoff_ms;
  }
  // The hangs actually produced retries and backoff waits.
  EXPECT_GT(total_retries, 0u);
  EXPECT_GT(total_backoff, 0u);
}

// ---- wall-clock watchdog ---------------------------------------------------

TEST(PhaseWatchdogTest, CancelsOnlyTheStalledWorker) {
  PhaseWatchdog::Options options;
  options.stall_timeout_ms = 100;
  options.poll_interval_ms = 5;
  PhaseWatchdog wd(2, options);
  wd.Heartbeat(0);
  wd.Heartbeat(1);

  // Worker 0 goes quiet; worker 1 keeps beating well inside the window.
  bool cancelled = false;
  for (int i = 0; i < 600 && !cancelled; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    wd.Heartbeat(1);
    cancelled = wd.cancel_flag(0)->load(std::memory_order_relaxed);
  }
  ASSERT_TRUE(cancelled) << "supervisor never cancelled the stalled worker";
  EXPECT_FALSE(wd.cancel_flag(1)->load(std::memory_order_relaxed));
  EXPECT_GE(wd.total_cancels(), 1u);

  // Acknowledging clears the flag; a fresh heartbeat re-arms the slot.
  wd.AckCancel(0);
  EXPECT_FALSE(wd.cancel_flag(0)->load(std::memory_order_relaxed));
  wd.Heartbeat(0);
  wd.Stop();
  wd.Stop();  // idempotent
}

TEST(PhaseWatchdogTest, StopIsIdempotentAcrossRacingCallersAndDestructor) {
  // Stop() from two racing threads, again from the test thread, and finally
  // from the destructor: exactly one caller joins the supervisor, the rest
  // are safe no-ops (this suite runs under tsan in tools/verify.sh, so a
  // racy double-join would be caught, not just flaky).
  PhaseWatchdog::Options options;
  options.stall_timeout_ms = 50;
  options.poll_interval_ms = 5;
  auto wd = std::make_unique<PhaseWatchdog>(2, options);
  std::thread a([&] { wd->Stop(); });
  std::thread b([&] { wd->Stop(); });
  a.join();
  b.join();
  wd->Stop();
  // With the supervisor gone, a silent worker is never cancelled.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_FALSE(wd->cancel_flag(0)->load(std::memory_order_relaxed));
  EXPECT_EQ(wd->total_cancels(), 0u);
  wd.reset();  // fourth Stop(), via ~PhaseWatchdog
}

TEST(PhaseWatchdogTest, HeartbeatRacingStopIsSafe) {
  // Workers do not synchronize with the supervisor's shutdown: a heartbeat
  // (or an AckCancel) may land while Stop() is tearing the thread down.
  // Both touch only the slot atomics, so the interleaving must be clean.
  PhaseWatchdog::Options options;
  options.stall_timeout_ms = 20;
  options.poll_interval_ms = 1;
  for (int round = 0; round < 8; ++round) {
    PhaseWatchdog wd(2, options);
    std::atomic<bool> done{false};
    std::thread beater([&] {
      while (!done.load(std::memory_order_relaxed)) {
        wd.Heartbeat(0);
        wd.AckCancel(1);
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    wd.Stop();
    done.store(true, std::memory_order_relaxed);
    beater.join();
  }
}

// Delegates to the simulated network but wall-clock-blocks the first
// `blocking` Exchange calls long enough for the watchdog to fire — the
// "wedged handler" the logical clock cannot see.
class BlockingTransport : public dns::QueryTransport {
 public:
  BlockingTransport(dns::QueryTransport* inner, int blocking,
                    uint32_t block_ms)
      : inner_(inner), remaining_(blocking), block_ms_(block_ms) {}

  util::StatusOr<std::vector<uint8_t>> Exchange(
      geo::IPv4 server, const std::vector<uint8_t>& wire_query) override {
    if (remaining_.fetch_sub(1, std::memory_order_relaxed) > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(block_ms_));
    }
    return inner_->Exchange(server, wire_query);
  }
  uint64_t now_ms() const override { return inner_->now_ms(); }
  void Delay(uint32_t ms) override { inner_->Delay(ms); }
  void PushChaosContext(uint64_t tag) override {
    inner_->PushChaosContext(tag);
  }
  void PopChaosContext() override { inner_->PopChaosContext(); }

 private:
  dns::QueryTransport* inner_;
  std::atomic<int> remaining_;
  uint32_t block_ms_;
};

TEST(PhaseWatchdogTest, CancelledDomainIsRequeuedOnceAndRecovers) {
  // One wall-clock stall in the pool pass: the watchdog cancels the worker,
  // the measurer requeues the domain at the phase boundary, and the retry
  // (transport now prompt) produces the clean, unquarantined result.
  TinyInternet world;
  BlockingTransport blocking(&world.net, /*blocking=*/1, /*block_ms=*/500);
  MeasurerOptions options;
  options.workers = 1;
  options.watchdog_stall_ms = 100;
  options.watchdog_poll_ms = 5;
  ActiveMeasurer measurer(&blocking, world.roots(), ResolverOptions(),
                          options);
  const std::vector<Name> domains = {Name::FromString("moe.gov.xx")};
  const std::vector<MeasurementResult> out = measurer.MeasureAll(domains);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].quarantine_reason, QuarantineReason::kNone);

  TinyInternet plain_world;
  ActiveMeasurer plain(&plain_world.net, plain_world.roots(),
                       ResolverOptions(), MeasurerOptions{});
  EXPECT_EQ(out, plain.MeasureAll(domains));
}

TEST(PhaseWatchdogTest, DomainStalledTwiceStaysWatchdogQuarantined) {
  // The requeue is once-only: a domain that stalls again in the requeue
  // pass keeps its kWatchdogCancelled verdict instead of looping forever.
  TinyInternet world;
  BlockingTransport blocking(&world.net, /*blocking=*/2, /*block_ms=*/500);
  MeasurerOptions options;
  options.workers = 1;
  options.watchdog_stall_ms = 100;
  options.watchdog_poll_ms = 5;
  ActiveMeasurer measurer(&blocking, world.roots(), ResolverOptions(),
                          options);
  const std::vector<Name> domains = {Name::FromString("moe.gov.xx")};
  const std::vector<MeasurementResult> out = measurer.MeasureAll(domains);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].quarantine_reason, QuarantineReason::kWatchdogCancelled);
}

TEST(PhaseWatchdogTest, CancelFlagFailsResolverFastWithoutCounting) {
  // The resolver must honour an externally raised cancel flag immediately,
  // latch the cancellation, and keep it out of the deterministic counters.
  TinyInternet world;
  IterativeResolver resolver(&world.net, world.roots());
  std::atomic<bool> cancel{true};
  resolver.set_cancel_flag(&cancel);
  const ResolverCounters before = resolver.counters();
  ServerReply reply = resolver.QueryServer(
      TinyInternet::Ip(10, 0, 2, 1), Name::FromString("moe.gov.xx"),
      dns::RRType::kNS);
  EXPECT_EQ(reply.outcome, QueryOutcome::kTimeout);
  EXPECT_TRUE(resolver.WatchdogCancelled());
  EXPECT_EQ(resolver.counters(), before);  // untraced, uncounted

  cancel.store(false);
  resolver.ClearCancelLatch();
  EXPECT_FALSE(resolver.WatchdogCancelled());
  ServerReply after = resolver.QueryServer(
      TinyInternet::Ip(10, 0, 2, 1), Name::FromString("moe.gov.xx"),
      dns::RRType::kNS);
  EXPECT_NE(after.outcome, QueryOutcome::kTimeout);
}

TEST(PhaseWatchdogTest, AttachedWatchdogNeverPerturbsSimulatedRuns) {
  // In pure simulation exchanges always return promptly, so a watchdog with
  // a sane stall timeout must never fire — attaching one cannot change a
  // run's bytes.
  const std::vector<MeasurementResult> plain = MeasurePool(4);
  TinyInternet world;
  auto afflict = [&world](geo::IPv4 ip) {
    EndpointBehavior b = world.net.GetBehavior(ip);
    b.hang = true;
    world.net.SetBehavior(ip, b);
  };
  afflict(TinyInternet::Ip(10, 0, 3, 2));
  afflict(TinyInternet::Ip(10, 0, 4, 11));
  MeasurerOptions options;
  options.workers = 4;
  options.max_logical_ms_per_domain = 30000;
  options.watchdog_stall_ms = 30000;
  ActiveMeasurer measurer(&world.net, world.roots(), ResolverOptions(),
                          options);
  const std::vector<Name> domains = {
      Name::FromString("moe.gov.xx"),      Name::FromString("half.gov.xx"),
      Name::FromString("drift.gov.xx"),    Name::FromString("glueless.gov.xx"),
      Name::FromString("refused.gov.xx"),  Name::FromString("lame.gov.xx"),
      Name::FromString("victim.gov.yy"),   Name::FromString("chain.gov.yy"),
  };
  const std::vector<MeasurementResult> supervised =
      measurer.MeasureAll(domains);
  EXPECT_EQ(plain, supervised);
}

// ---- escalating signal handling --------------------------------------------

TEST(EscalatingSignalsTest, FirstSignalOnlyRaisesTheFlag) {
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    static std::atomic<bool> flag{false};
    ckpt::InstallEscalatingHandlers(&flag, 77);
    raise(SIGTERM);  // delivered synchronously before raise returns
    const bool ok = flag.load(std::memory_order_relaxed) &&
                    ckpt::EscalationCount() == 1;
    _exit(ok ? 0 : 3);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(EscalatingSignalsTest, SecondSignalForcesImmediateExit) {
  // The flush-is-wedged scenario: the first Ctrl-C raises the cooperative
  // flag, the second must _exit with the configured code instead of being
  // swallowed (or killing the process with an unhandled-signal status).
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    static std::atomic<bool> flag{false};
    ckpt::InstallEscalatingHandlers(&flag, 77);
    raise(SIGTERM);
    if (!flag.load(std::memory_order_relaxed)) _exit(3);
    raise(SIGINT);  // escalates: the handler _exit(77)s, we never return
    _exit(4);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal, not _exit";
  EXPECT_EQ(WEXITSTATUS(status), 77);
}

TEST(EscalatingSignalsTest, ReinstallUpdatesExitCodeAndResetsEscalation) {
  // Regression: the handler's exit code used to be a plain int; a handler
  // installed before the new code landed could _exit with the stale value.
  // Reinstalling must (a) reset the escalation count — the first signal
  // after a reinstall is cooperative again — and (b) publish the new code
  // before the handler can observe it.
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    static std::atomic<bool> flag{false};
    ckpt::InstallEscalatingHandlers(&flag, 77);
    raise(SIGTERM);
    if (ckpt::EscalationCount() != 1) _exit(3);
    flag.store(false, std::memory_order_relaxed);
    ckpt::InstallEscalatingHandlers(&flag, 91);
    raise(SIGINT);  // count was reset: cooperative again, not an escalation
    if (!flag.load(std::memory_order_relaxed)) _exit(4);
    raise(SIGINT);  // escalates with the *new* code
    _exit(5);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal, not _exit";
  EXPECT_EQ(WEXITSTATUS(status), 91);
}

// ---- folded from failure_injection_test (degradation scenarios) ------------

TEST_F(DegradationTest, TotalRootLossFailsEverything) {
  world_.net.SetBehavior(TinyInternet::Ip(10, 0, 0, 1),
                         simnet::EndpointBehavior{.silent = true});
  IterativeResolver fresh(&world_.net, world_.roots());
  EXPECT_FALSE(
      fresh.Resolve(Name::FromString("www.moe.gov.xx"), dns::RRType::kA).ok());
  ActiveMeasurer measurer(&world_.net, world_.roots());
  auto r = measurer.Measure(Name::FromString("moe.gov.xx"));
  EXPECT_FALSE(r.parent_located);
}

TEST_F(DegradationTest, HeavyLossStillTerminates) {
  // 90% loss everywhere: many timeouts, bounded work, no hang.
  for (auto ip : {TinyInternet::Ip(10, 0, 0, 1), TinyInternet::Ip(10, 0, 1, 1),
                  TinyInternet::Ip(10, 0, 2, 1), TinyInternet::Ip(10, 0, 3, 1),
                  TinyInternet::Ip(10, 0, 3, 2)}) {
    world_.net.SetBehavior(ip, simnet::EndpointBehavior{.loss_rate = 0.9});
  }
  ActiveMeasurer measurer(&world_.net, world_.roots());
  auto r = measurer.Measure(Name::FromString("moe.gov.xx"));
  // Any outcome is acceptable, at bounded effort: the domain's own queries
  // plus the shared-cut walk's, which the cache is charged with.
  EXPECT_LT(r.query_stats.queries +
                measurer.shared_cache()->stats().infra.queries,
            500u);
}

}  // namespace
}  // namespace govdns::core
