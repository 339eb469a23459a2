#include "simnet/network.h"

#include <atomic>

#include "dns/message.h"

namespace govdns::simnet {

namespace {

// Every counter of NetworkStats, so they are added and read as one set.
constexpr uint64_t NetworkStats::*kCounters[] = {
    &NetworkStats::exchanges,     &NetworkStats::stream_exchanges,
    &NetworkStats::timeouts,      &NetworkStats::unreachable,
    &NetworkStats::delivered,     &NetworkStats::flap_dropped,
    &NetworkStats::burst_dropped, &NetworkStats::rate_limited,
    &NetworkStats::corrupted,     &NetworkStats::truncated,
    &NetworkStats::wrong_id,      &NetworkStats::hung,
    &NetworkStats::blackholed,    &NetworkStats::slow_dripped,
};
static_assert(sizeof(kCounters) / sizeof(kCounters[0]) * sizeof(uint64_t) ==
                  sizeof(NetworkStats),
              "kCounters must list every NetworkStats counter");

// The behaviour of an address nobody called SetBehavior for.
constexpr EndpointBehavior kDefaultBehavior{};

}  // namespace

thread_local std::vector<SimNetwork::ChaosContext> SimNetwork::context_stack_;

SimNetwork::SimNetwork(uint64_t seed) : seed_(seed) {}

void SimNetwork::AttachHandler(geo::IPv4 address, Handler handler) {
  GOVDNS_CHECK(handler != nullptr);
  std::unique_lock lock(endpoints_mu_);
  Endpoint& endpoint = endpoints_[address];
  if (endpoint.handler == nullptr) ++handler_count_;
  endpoint.handler = std::move(handler);
}

void SimNetwork::DetachHandler(geo::IPv4 address) {
  std::unique_lock lock(endpoints_mu_);
  auto it = endpoints_.find(address);
  if (it == endpoints_.end() || it->second.handler == nullptr) return;
  it->second.handler = nullptr;
  --handler_count_;
}

bool SimNetwork::HasHandler(geo::IPv4 address) const {
  std::shared_lock lock(endpoints_mu_);
  auto it = endpoints_.find(address);
  return it != endpoints_.end() && it->second.handler != nullptr;
}

void SimNetwork::SetBehavior(geo::IPv4 address, EndpointBehavior behavior) {
  std::unique_lock lock(endpoints_mu_);
  endpoints_[address].behavior = behavior;
  RuntimeStripeState& stripe = runtime_stripes_[RuntimeStripe(address)];
  std::lock_guard rt_lock(stripe.mu);
  stripe.entries.erase(address);
}

EndpointBehavior SimNetwork::GetBehavior(geo::IPv4 address) const {
  std::shared_lock lock(endpoints_mu_);
  auto it = endpoints_.find(address);
  return it == endpoints_.end() ? kDefaultBehavior : it->second.behavior;
}

size_t SimNetwork::endpoint_count() const {
  std::shared_lock lock(endpoints_mu_);
  return handler_count_;
}

NetworkStats SimNetwork::stats() const {
  NetworkStats s;
  for (uint64_t NetworkStats::*counter : kCounters) {
    s.*counter =
        std::atomic_ref(totals_.*counter).load(std::memory_order_relaxed);
  }
  return s;
}

SimNetwork::ContextEndpoint& SimNetwork::ChaosContext::StateFor(
    geo::IPv4 server) {
  for (ContextEndpoint& e : endpoints) {
    if (e.server == server) return e;
  }
  ContextEndpoint& e = endpoints.emplace_back();
  e.server = server;
  return e;
}

SimNetwork::ChaosContext* SimNetwork::ActiveContext() const {
  if (context_stack_.empty() || context_stack_.back().owner != this) {
    return nullptr;
  }
  return &context_stack_.back();
}

void SimNetwork::PushChaosContext(uint64_t tag) {
  ChaosContext ctx;
  ctx.owner = this;
  uint64_t state = seed_ ^ tag;
  ctx.tag_mix = util::SplitMix64(state);
  // Start the context clock at a tag-derived offset inside a ~17-minute
  // horizon so flap windows and rate-limit seconds are not phase-locked
  // across contexts the way they would be if every context began at t=0.
  uint64_t state2 = ctx.tag_mix;
  ctx.clock_ms = util::SplitMix64(state2) % (uint64_t{1} << 20);
  context_stack_.push_back(std::move(ctx));
}

void SimNetwork::PopChaosContext() {
  ChaosContext* ctx = ActiveContext();
  GOVDNS_CHECK(ctx != nullptr);
  for (uint64_t NetworkStats::*counter : kCounters) {
    if (ctx->counts.*counter == 0) continue;
    std::atomic_ref(totals_.*counter)
        .fetch_add(ctx->counts.*counter, std::memory_order_relaxed);
  }
  context_stack_.pop_back();
}

uint64_t SimNetwork::now_ms() const {
  const ChaosContext* ctx = ActiveContext();
  return ctx != nullptr ? ctx->clock_ms : clock_.now_ms();
}

void SimNetwork::Delay(uint32_t ms) {
  ChaosContext* ctx = ActiveContext();
  if (ctx != nullptr) {
    ctx->clock_ms += ms;
  } else {
    clock_.Advance(ms);
  }
}

util::StatusOr<std::vector<uint8_t>> SimNetwork::Exchange(
    geo::IPv4 server, const std::vector<uint8_t>& wire_query) {
  return ExchangeImpl(server, wire_query, /*stream=*/false);
}

util::StatusOr<std::vector<uint8_t>> SimNetwork::ExchangeStream(
    geo::IPv4 server, const std::vector<uint8_t>& wire_query) {
  return ExchangeImpl(server, wire_query, /*stream=*/true);
}

util::StatusOr<std::vector<uint8_t>> SimNetwork::ExchangeImpl(
    geo::IPv4 server, const std::vector<uint8_t>& wire_query, bool stream) {
  ChaosContext* ctx = ActiveContext();
  // The context's state for this endpoint; null without a context.
  ContextEndpoint* state = ctx != nullptr ? &ctx->StateFor(server) : nullptr;
  auto count = [&](uint64_t NetworkStats::*counter) {
    if (ctx != nullptr) {
      ++(ctx->counts.*counter);
    } else {
      std::atomic_ref(totals_.*counter).fetch_add(1, std::memory_order_relaxed);
    }
  };
  count(&NetworkStats::exchanges);
  if (stream) count(&NetworkStats::stream_exchanges);
  // In a context, the exchange ordinal is per (context, endpoint): retries
  // of the same query get fresh draws, but the stream is independent of
  // global history and of other threads. Context-free exchanges keep the
  // legacy process-global ordinal.
  const uint64_t exchange_id =
      state != nullptr
          ? state->ordinal++
          : exchange_counter_.fetch_add(1, std::memory_order_relaxed);

  auto advance = [&](uint64_t ms) {
    if (ctx != nullptr) {
      ctx->clock_ms += ms;
    } else {
      clock_.Advance(ms);
    }
  };
  auto local_now = [&]() -> uint64_t {
    return ctx != nullptr ? ctx->clock_ms : clock_.now_ms();
  };

  // The endpoint table is read-mostly: a shared lock held for the whole
  // exchange keeps the entry stable under concurrent SetBehavior calls.
  std::shared_lock endpoints_lock(endpoints_mu_);
  const auto it = endpoints_.find(server);
  const Endpoint* endpoint = it == endpoints_.end() ? nullptr : &it->second;
  const EndpointBehavior& behavior =
      endpoint != nullptr ? endpoint->behavior : kDefaultBehavior;

  // Silence wins over everything else, including handler presence: a
  // firewalled host looks the same whether or not a server runs behind it.
  if (behavior.silent) {
    advance(timeout_ms_);
    count(&NetworkStats::timeouts);
    return util::TimeoutError("silent endpoint " + server.ToString());
  }

  // Hang: the query vanishes before the server would see it. The client
  // pays its full timeout — the worst a single exchange can cost — and the
  // deadline hierarchy upstream is what keeps total work bounded.
  if (behavior.hang) {
    advance(timeout_ms_);
    count(&NetworkStats::timeouts);
    count(&NetworkStats::hung);
    return util::TimeoutError("hung endpoint " + server.ToString());
  }

  if (endpoint == nullptr || endpoint->handler == nullptr) {
    // Nothing listens at this address. A real resolver sees either an ICMP
    // unreachable or silence; we model it as promptly unreachable.
    advance(5);
    count(&NetworkStats::unreachable);
    return util::UnavailableError("no endpoint at " + server.ToString());
  }

  // Blackhole: the query is accepted — the server exists and would answer —
  // but the reply is dropped on the way back. Placed after the handler
  // lookup so an unoccupied address still reports promptly unreachable.
  if (behavior.blackhole) {
    advance(timeout_ms_);
    count(&NetworkStats::timeouts);
    count(&NetworkStats::blackholed);
    return util::TimeoutError("blackholed endpoint " + server.ToString());
  }

  // Flapping: silent during alternating clock windows, with a per-endpoint
  // phase so a fleet of flappers is not synchronized.
  if (behavior.flap_period_ms > 0) {
    uint64_t phase_stream = seed_ ^ (uint64_t{server.bits()} * 0x9E3779B9u);
    uint64_t phase = util::SplitMix64(phase_stream) % behavior.flap_period_ms;
    uint64_t window = (local_now() + phase) / behavior.flap_period_ms;
    if (window % 2 == 1) {
      advance(timeout_ms_);
      count(&NetworkStats::timeouts);
      count(&NetworkStats::flap_dropped);
      return util::TimeoutError("flapping endpoint " + server.ToString());
    }
  }

  // Mutable per-endpoint chaos state: context-local when a context is
  // active, else the striped global table under its stripe lock.
  auto with_runtime = [&](auto&& fn) {
    if (state != nullptr) {
      fn(state->runtime);
    } else {
      RuntimeStripeState& stripe = runtime_stripes_[RuntimeStripe(server)];
      std::lock_guard rt_lock(stripe.mu);
      fn(stripe.entries[server]);
    }
  };

  // An in-progress loss burst swallows this exchange.
  bool in_burst = false;
  with_runtime([&](EndpointRuntime& rt) {
    if (rt.burst_remaining > 0) {
      --rt.burst_remaining;
      in_burst = true;
    }
  });
  if (in_burst) {
    advance(timeout_ms_);
    count(&NetworkStats::timeouts);
    count(&NetworkStats::burst_dropped);
    return util::TimeoutError("loss burst to " + server.ToString());
  }

  // All per-exchange chance is a pure function of (seed, server, exchange
  // ordinal) — plus the context tag when one is active — so a rerun of the
  // same world reproduces the same drops, while retries of the same query
  // get fresh draws.
  uint64_t draw_stream = seed_ ^ (uint64_t{server.bits()} << 24) ^ exchange_id;
  if (ctx != nullptr) draw_stream ^= ctx->tag_mix;
  util::Rng rng(util::SplitMix64(draw_stream));

  if (behavior.burst_start_rate > 0.0 &&
      rng.Bernoulli(behavior.burst_start_rate)) {
    with_runtime([&](EndpointRuntime& rt) {
      rt.burst_remaining =
          behavior.burst_length > 0 ? behavior.burst_length - 1 : 0;
    });
    advance(timeout_ms_);
    count(&NetworkStats::timeouts);
    count(&NetworkStats::burst_dropped);
    return util::TimeoutError("loss burst to " + server.ToString());
  }

  double loss = behavior.loss_rate + extra_loss_rate();
  if (loss > 0.0 && rng.Bernoulli(loss)) {
    advance(timeout_ms_);
    count(&NetworkStats::timeouts);
    return util::TimeoutError("packet lost to " + server.ToString());
  }

  // Response rate limiting: the query arrives, but beyond the per-second
  // budget the server sends REFUSED (RRL-style truncation would also be
  // realistic; REFUSED is the harsher, simpler model).
  if (behavior.rate_limit_per_sec > 0) {
    bool limited = false;
    uint64_t window = local_now() / 1000;
    with_runtime([&](EndpointRuntime& rt) {
      if (rt.rate_window != window) {
        rt.rate_window = window;
        rt.rate_count = 0;
      }
      limited = ++rt.rate_count > behavior.rate_limit_per_sec;
    });
    if (limited) {
      advance(behavior.rtt_ms);
      count(&NetworkStats::rate_limited);
      count(&NetworkStats::delivered);
      auto query = dns::Message::Decode(wire_query);
      dns::Message refused;
      if (query.ok()) {
        refused = dns::MakeResponse(*query, dns::Rcode::kRefused);
      } else {
        refused.header.qr = true;
        refused.header.rcode = dns::Rcode::kRefused;
      }
      return refused.Encode();
    }
  }

  uint32_t rtt = behavior.rtt_ms;
  if (behavior.rtt_jitter_ms > 0) {
    rtt += static_cast<uint32_t>(
        rng.UniformU64(uint64_t{behavior.rtt_jitter_ms} + 1));
  }
  // A stream exchange pays the TCP handshake: one extra round trip before
  // the query can even be sent.
  if (stream) rtt += behavior.rtt_ms;
  // Slow drip: the server would answer, but only after an adversarially
  // long pause; when that pushes the RTT past the client timeout the reply
  // arrives too late to count.
  if (behavior.slow_drip_delay_ms > 0) {
    rtt += behavior.slow_drip_delay_ms;
    if (rtt >= timeout_ms_) count(&NetworkStats::slow_dripped);
  }
  if (rtt >= timeout_ms_) {
    advance(timeout_ms_);
    count(&NetworkStats::timeouts);
    return util::TimeoutError("endpoint too slow: " + server.ToString());
  }

  advance(rtt);
  std::vector<uint8_t> reply = endpoint->handler(wire_query);

  // Damaged-but-delivered modes, applied to the wire bytes so the client's
  // parser sees exactly what a broken path would hand it. Draw order is
  // fixed for determinism. A stream carries none of these: TCP has no
  // 512-byte ceiling to truncate at, checksummed delivery, and a connection
  // an off-path spoofer cannot inject ids into — the draws are still made
  // so a stream retry does not shift the endpoint's datagram draw stream.
  bool corrupt = behavior.corrupt_rate > 0.0 &&
                 rng.Bernoulli(behavior.corrupt_rate);
  bool truncate = behavior.truncate_rate > 0.0 &&
                  rng.Bernoulli(behavior.truncate_rate);
  bool wrong_id = behavior.wrong_id_rate > 0.0 &&
                  rng.Bernoulli(behavior.wrong_id_rate);
  if (stream) corrupt = truncate = wrong_id = false;
  if (corrupt) {
    // Chop below the 12-byte header and garble: guaranteed undecodable.
    if (reply.size() > 8) reply.resize(8);
    for (uint8_t& b : reply) b ^= 0x5A;
    count(&NetworkStats::corrupted);
  } else if (truncate && reply.size() >= 12) {
    reply[2] |= 0x02;  // TC bit (byte 2, bit 1 of the header flags)
    count(&NetworkStats::truncated);
  } else if (wrong_id && reply.size() >= 2) {
    reply[0] ^= 0xA5;  // transaction id occupies the first two bytes
    reply[1] ^= 0x5A;
    count(&NetworkStats::wrong_id);
  }

  count(&NetworkStats::delivered);
  return reply;
}

}  // namespace govdns::simnet
