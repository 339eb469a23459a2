// Simulated IP network.
//
// SimNetwork implements dns::QueryTransport over an in-memory address space:
// every IPv4 endpoint has an optional packet handler (typically an
// AuthServer that worldgen attaches) and a behaviour profile. This stands in
// for the real Internet between the paper's vantage point and the world's
// nameservers; silence, loss, latency and the whole chaos model below are
// deterministic functions of the world seed, so the whole measurement is
// reproducible.
//
// Thread safety: Exchange may be called concurrently from many worker
// threads. Each address's handler and behaviour sit in one entry of one
// table, found with one probe under a shared (reader) lock that writers
// (AttachHandler, SetBehavior, ...) take exclusively. For *deterministic*
// parallelism, callers push a per-unit-of-work chaos context (see
// dns::QueryTransport::PushChaosContext): an active context carries its own
// logical clock, per-endpoint exchange ordinals and chaos runtime, all
// derived from (seed, tag), so outcomes do not depend on thread
// interleaving. A context also counts its own exchanges and adds them to
// the shared totals once, when it pops, so the workers of a measurement
// write no shared counter per exchange; stats() therefore shows a context's
// exchanges only after it pops. Without a context, an exchange uses the
// legacy process-global clock and exchange counter — byte-compatible with
// the serial behaviour this simulator always had — adds to the shared
// totals at once (relaxed atomic adds), and keeps its mutable chaos state
// (burst progress, rate-limit window) in a table striped by endpoint.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "dns/transport.h"
#include "geo/ipv4.h"
#include "util/rng.h"
#include "util/status.h"

namespace govdns::simnet {

// A virtual clock advanced by simulated network delays. Purely logical time;
// nothing sleeps. Atomic so concurrent legacy (context-free) exchanges are
// data-race free.
class SimClock {
 public:
  uint64_t now_ms() const { return now_ms_.load(std::memory_order_relaxed); }
  void Advance(uint64_t ms) {
    now_ms_.fetch_add(ms, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> now_ms_{0};
};

// How an endpoint behaves at the packet level, independent of what the
// attached handler would answer. The base fields model a healthy host on an
// imperfect network; the chaos fields model the adversarial conditions the
// paper's second measurement round exists to rule out (§III-B): flapping
// hosts, response-rate-limited resolvers, middleboxes that truncate or
// corrupt, and off-path spoofers.
struct EndpointBehavior {
  // Never answers (host firewalled/gone). The transport reports kTimeout.
  bool silent = false;
  // Probability in [0, 1] that any single exchange is dropped.
  double loss_rate = 0.0;
  // Round-trip time added to the clock per exchange.
  uint32_t rtt_ms = 30;
  // If the RTT exceeds the client timeout, the exchange times out.

  // --- chaos extensions (all default off) --------------------------------
  // Uniform extra RTT in [0, rtt_jitter_ms] per exchange; pushing the total
  // past the client timeout turns the exchange into a timeout.
  uint32_t rtt_jitter_ms = 0;
  // Probability the reply is garbled into undecodable bytes.
  double corrupt_rate = 0.0;
  // Probability the reply comes back with the TC bit set (UDP-truncated).
  double truncate_rate = 0.0;
  // Probability the reply carries a wrong transaction id (off-path spoof /
  // broken NAT rewriting).
  double wrong_id_rate = 0.0;
  // Correlated loss: probability an exchange *starts* a burst during which
  // this and the next `burst_length - 1` exchanges to the endpoint drop.
  double burst_start_rate = 0.0;
  uint32_t burst_length = 0;
  // Flapping: the endpoint is silent during alternating windows of this
  // many milliseconds of SimClock time (0 = never flaps). The window phase
  // is derived from the seed so different endpoints flap out of step.
  uint32_t flap_period_ms = 0;
  // Response rate limiting: after this many queries within one logical
  // second, further queries get REFUSED (0 = unlimited).
  uint32_t rate_limit_per_sec = 0;

  // --- non-terminating fault classes (DESIGN.md §6g) ---------------------
  // These model servers that never complete a transaction. In simulation
  // they charge the client its full timeout (the worst a single exchange
  // can cost); real boundedness comes from the deadline hierarchy in
  // src/core, which these faults exist to exercise.
  // Hang: the query is never acknowledged in any way — dropped before the
  // server would even see it. Distinct from `silent` only in intent and in
  // the stats breakdown; the client observes a timeout either way.
  bool hang = false;
  // Blackhole: the query is accepted (the server exists and would answer)
  // but the reply never comes back — dropped after accept.
  bool blackhole = false;
  // Slow drip: the server replies, but only after this adversarially long
  // extra delay; when it pushes the RTT past the client timeout the reply
  // arrives too late to count (0 = off).
  uint32_t slow_drip_delay_ms = 0;
};

// A population-level description of how unreliable a set of endpoints is.
// Realize() deterministically afflicts a concrete endpoint: each affliction
// strikes with its `p_*` probability (drawn once per address from the seed),
// using the intensity knobs below when it does. Worldgen attaches a profile
// per generated nameserver so worlds contain realistically flaky
// infrastructure; the default profile is entirely benign.
struct ChaosProfile {
  double p_flapping = 0.0;
  double p_rate_limited = 0.0;
  double p_truncating = 0.0;
  double p_wrong_id = 0.0;
  double p_corrupting = 0.0;
  double p_bursty = 0.0;
  double p_jittery = 0.0;
  // Non-terminating fault classes (DESIGN.md §6g).
  double p_hang = 0.0;
  double p_blackhole = 0.0;
  double p_slow_drip = 0.0;

  uint32_t flap_period_ms = 8000;
  uint32_t rate_limit_per_sec = 4;
  double truncate_rate = 0.5;
  double wrong_id_rate = 0.3;
  double corrupt_rate = 0.3;
  double burst_start_rate = 0.05;
  uint32_t burst_length = 4;
  uint32_t rtt_jitter_ms = 40;
  uint32_t slow_drip_delay_ms = 5000;

  // True when any affliction probability is non-zero.
  bool Any() const;

  // The behaviour of the endpoint at `address` under this profile, starting
  // from `base`. Pure function of (seed, address): re-running the generator
  // afflicts the same endpoints the same way.
  EndpointBehavior Realize(uint64_t seed, geo::IPv4 address,
                           EndpointBehavior base) const;

  // A moderately hostile preset used by tests and the chaos sweep.
  static ChaosProfile Hostile();
};

// Statistics the harness can report on.
struct NetworkStats {
  uint64_t exchanges = 0;
  uint64_t timeouts = 0;
  uint64_t unreachable = 0;
  uint64_t delivered = 0;
  // Chaos-mode breakdowns. Timeout-shaped ones also count in `timeouts`;
  // delivered-but-damaged ones also count in `delivered`.
  uint64_t flap_dropped = 0;
  uint64_t burst_dropped = 0;
  uint64_t rate_limited = 0;
  uint64_t corrupted = 0;
  uint64_t truncated = 0;
  uint64_t wrong_id = 0;
  uint64_t hung = 0;
  uint64_t blackholed = 0;
  uint64_t slow_dripped = 0;
};

class SimNetwork : public dns::QueryTransport {
 public:
  using Handler =
      std::function<std::vector<uint8_t>(const std::vector<uint8_t>&)>;

  // `seed` drives deterministic loss decisions.
  explicit SimNetwork(uint64_t seed);

  // Registers (or replaces) the handler for an address.
  void AttachHandler(geo::IPv4 address, Handler handler);
  void DetachHandler(geo::IPv4 address);
  bool HasHandler(geo::IPv4 address) const;

  void SetBehavior(geo::IPv4 address, EndpointBehavior behavior);
  EndpointBehavior GetBehavior(geo::IPv4 address) const;

  // Client-side timeout used by Exchange; exchanges whose endpoint RTT
  // exceeds it report kTimeout.
  void set_timeout_ms(uint32_t ms) { timeout_ms_ = ms; }
  uint32_t timeout_ms() const { return timeout_ms_; }

  // Additional loss applied to every exchange on top of per-endpoint loss
  // (weather for the whole network; the second-round ablation and the chaos
  // sweep use it).
  void set_extra_loss_rate(double rate) {
    extra_loss_rate_.store(rate, std::memory_order_relaxed);
  }
  double extra_loss_rate() const {
    return extra_loss_rate_.load(std::memory_order_relaxed);
  }

  // dns::QueryTransport:
  util::StatusOr<std::vector<uint8_t>> Exchange(
      geo::IPv4 server, const std::vector<uint8_t>& wire_query) override;
  uint64_t now_ms() const override;
  void Delay(uint32_t ms) override;
  void PushChaosContext(uint64_t tag) override;
  void PopChaosContext() override;

  SimClock& clock() { return clock_; }
  // Snapshot of the aggregate counters: every context-free exchange, and
  // every exchange of a context that has popped.
  NetworkStats stats() const;
  // The number of addresses with a handler attached.
  size_t endpoint_count() const;

 private:
  // Mutable per-endpoint chaos state (burst progress, rate-limit window).
  struct EndpointRuntime {
    uint32_t burst_remaining = 0;
    uint64_t rate_window = 0;   // logical second of the current window
    uint32_t rate_count = 0;    // queries seen in that window
  };

  // One address: its handler (empty when nothing listens there) and its
  // behaviour (the default until SetBehavior).
  struct Endpoint {
    Handler handler;
    EndpointBehavior behavior;
  };

  // A context's state for one endpoint it has exchanged with.
  struct ContextEndpoint {
    geo::IPv4 server;
    uint64_t ordinal = 0;  // exchanges made to it in this context so far
    EndpointRuntime runtime;
  };

  // A thread-local unit-of-work state: its own clock, per-endpoint exchange
  // ordinals and chaos runtime, and counts. Every draw inside a context is a
  // pure function of (seed, tag, endpoint, ordinal) — independent of
  // anything other threads do and of process-global history.
  struct ChaosContext {
    const SimNetwork* owner = nullptr;
    uint64_t tag_mix = 0;   // SplitMix64(seed ^ tag), folded into draw streams
    uint64_t clock_ms = 0;  // context-local logical clock
    // The endpoints exchanged with, in first-use order. A unit of work
    // talks to a handful of servers, so a linear scan beats hashing.
    std::vector<ContextEndpoint> endpoints;
    // This context's exchanges, added to the network's totals when it pops.
    NetworkStats counts;

    ContextEndpoint& StateFor(geo::IPv4 server);
  };

  // The calling thread's innermost context, if it belongs to this network.
  ChaosContext* ActiveContext() const;

  static constexpr size_t kRuntimeStripes = 16;
  size_t RuntimeStripe(geo::IPv4 server) const {
    return geo::IPv4::Hash{}(server) % kRuntimeStripes;
  }

  uint64_t seed_;
  std::atomic<uint64_t> exchange_counter_{0};
  uint32_t timeout_ms_ = 2000;
  std::atomic<double> extra_loss_rate_{0.0};
  SimClock clock_;
  // The shared totals, updated only through std::atomic_ref; on a cache
  // line of their own, so the adds of contexts popping on other threads do
  // not contend with the lock word every exchange takes.
  alignas(64) mutable NetworkStats totals_;
  alignas(64) mutable std::shared_mutex endpoints_mu_;  // guards endpoints_
  std::unordered_map<geo::IPv4, Endpoint, geo::IPv4::Hash> endpoints_;
  size_t handler_count_ = 0;  // entries of endpoints_ with a handler
  // Legacy (context-free) chaos runtime, striped by endpoint: each stripe is
  // an independent map under its own lock, so concurrent context-free
  // exchanges to different endpoints never contend or race on a rehash.
  struct RuntimeStripeState {
    std::mutex mu;
    std::unordered_map<geo::IPv4, EndpointRuntime, geo::IPv4::Hash> entries;
  };
  mutable RuntimeStripeState runtime_stripes_[kRuntimeStripes];

  static thread_local std::vector<ChaosContext> context_stack_;
};

}  // namespace govdns::simnet
