// Transport abstraction between the measurement client and the network.
//
// The core library is written against this interface; the simulator
// (simnet::SimNetwork) is one implementation, and a socket-based transport
// could be another without touching any analysis code.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/ipv4.h"
#include "util/status.h"

namespace govdns::dns {

class QueryTransport {
 public:
  virtual ~QueryTransport() = default;

  // Sends `wire_query` to the server at `server`, returning the raw response
  // bytes. Failure statuses follow the taxonomy in util::Status:
  //   kTimeout     - no response within the timeout (silent or lossy server)
  //   kUnavailable - no endpoint at that address (e.g. ICMP unreachable)
  virtual util::StatusOr<std::vector<uint8_t>> Exchange(
      geo::IPv4 server, const std::vector<uint8_t>& wire_query) = 0;

  // Stream-semantics exchange (DNS over TCP, RFC 1035 §4.2.2). The length
  // framing is the transport's concern — `wire_query` and the returned
  // reply are bare DNS messages. Nothing in the library calls or overrides
  // it: the resolver treats a truncated reply as damage and retries over
  // UDP (DESIGN.md §6b), and netio::QueryEngine re-asks truncated replies
  // through netio::TcpExchange itself. It stays because the benchmark's
  // timing transport (perfbench/study_main.cc) forwards it. The default
  // reports kFailedPrecondition.
  virtual util::StatusOr<std::vector<uint8_t>> ExchangeStream(
      geo::IPv4 server, const std::vector<uint8_t>& wire_query) {
    (void)server;
    (void)wire_query;
    return util::FailedPreconditionError("transport has no stream path");
  }

  // Logical transport time. Retry backoff and health-tracking cooldowns are
  // charged against this clock so they stay deterministic: the simulator
  // maps it onto its SimClock, while the default implementation keeps a
  // private counter advanced only by Delay().
  virtual uint64_t now_ms() const { return fallback_now_ms_; }

  // Charges a backoff delay to the transport clock. Nothing sleeps: real
  // transports may override to pace actual traffic, the simulator advances
  // its virtual clock.
  virtual void Delay(uint32_t ms) { fallback_now_ms_ += ms; }

  // Scoped "chaos context" for deterministic parallel use. While a context
  // is active on the calling thread, a simulating transport derives all
  // per-exchange randomness, its logical clock, and per-endpoint chaos
  // state from `tag` instead of from process-global counters, so the same
  // unit of work produces the same outcomes regardless of how work is
  // interleaved across threads. Contexts nest (strict LIFO per thread).
  // Transports that talk to the real network ignore them.
  virtual void PushChaosContext(uint64_t tag) { (void)tag; }
  virtual void PopChaosContext() {}

 private:
  uint64_t fallback_now_ms_ = 0;
};

}  // namespace govdns::dns
