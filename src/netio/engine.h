// Asynchronous DNS query engine (the ZDNS model, PAPERS.md).
//
// The synchronous UdpTransport holds one thread hostage per in-flight
// query: at the paper's scale (~190k domains, several queries each) the
// active phase is bounded by round-trip latency, not by bandwidth or CPU.
// QueryEngine inverts that: callers *submit* wire queries into a bounded
// in-flight window (default 1024) and collect completions later, while a
// single event-loop thread multiplexes every datagram over a small pool of
// shared UDP sockets. The engine owns the per-query hardening the real
// network demands — its own transaction-id space to disambiguate concurrent
// queries on shared sockets, strict source address:port validation,
// deadline accounting, optional per-nameserver token-bucket pacing, and a
// TCP retry when a reply arrives truncated (TC=1).
//
// The engine is itself a dns::QueryTransport, so the resolver and the whole
// core::Study drive it unchanged: Exchange = Submit + Wait. Concurrency
// comes from many resolver lanes sharing one engine — each lane parks
// cheaply in Wait while the loop keeps the window full. It talks to real
// sockets only: deadlines and pacing run on the wall clock.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dns/transport.h"
#include "geo/ipv4.h"
#include "util/status.h"

namespace govdns::netio {

// Aggregate engine counters. Diagnostic by nature: counts depend on network
// behaviour and scheduling, never on report content.
struct EngineStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t timeouts = 0;
  uint64_t truncated = 0;       // replies that arrived with TC=1
  uint64_t tcp_fallbacks = 0;   // truncated replies recovered over a stream
  uint64_t wrong_source = 0;    // datagrams from an unexpected address:port
  uint64_t wrong_id = 0;        // datagrams with no matching in-flight id
  uint64_t ratelimit_deferred = 0;  // sends delayed by a token bucket
  uint64_t send_errors = 0;
  uint64_t max_inflight = 0;    // high-water mark of the window
};

class QueryEngine : public dns::QueryTransport {
 public:
  struct Options {
    uint16_t port = 53;          // destination port for every exchange
    int socket_pool = 8;         // shared UDP sockets
    int max_inflight = 1024;     // bounded submission window
    int timeout_ms = 2000;       // per-query deadline
    int max_response_bytes = 4096;
    // Re-ask truncated (TC=1) replies over TCP.
    bool tcp_fallback = true;
    // Per-nameserver token-bucket pacing: sustained queries/sec per server
    // address (0 = unlimited) with `per_server_burst` of headroom
    // (0 = derive as max(1, qps)). A server's bucket starts full at its
    // first query.
    double per_server_qps = 0.0;
    int per_server_burst = 0;
  };

  // A submitted query; redeemable exactly once via Wait.
  using Token = uint64_t;

  explicit QueryEngine(Options options);
  ~QueryEngine() override;

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // Enqueues one wire query to `server`. Blocks only while the in-flight
  // window is full. Thread-safe.
  Token Submit(geo::IPv4 server, std::vector<uint8_t> wire_query);
  // Blocks until the query behind `token` completes; at most once per token.
  util::StatusOr<std::vector<uint8_t>> Wait(Token token);

  // dns::QueryTransport — Exchange is Submit + Wait; now_ms is the engine's
  // steady clock and Delay sleeps.
  util::StatusOr<std::vector<uint8_t>> Exchange(
      geo::IPv4 server, const std::vector<uint8_t>& wire_query) override;
  uint64_t now_ms() const override;
  void Delay(uint32_t ms) override;

  EngineStats stats() const;

  const Options& options() const { return options_; }

 private:
  struct Submission {
    Token token = 0;
    geo::IPv4 server;
    std::vector<uint8_t> wire;
  };
  // One in-flight query, owned by the event loop.
  struct Pending {
    Token token = 0;
    geo::IPv4 server;
    uint16_t original_id = 0;
    uint16_t engine_id = 0;
    int sock = -1;               // index into sockets_
    uint64_t deadline_ms = 0;    // engine clock
    std::vector<uint8_t> wire;   // engine-id-rewritten query
  };
  struct TokenBucket {
    double tokens = 0.0;
    uint64_t last_ms = 0;
  };
  // A truncated reply being retried over TCP by a fallback worker.
  struct FallbackTask {
    Token token = 0;
    geo::IPv4 server;
    uint64_t deadline_ms = 0;
    std::vector<uint8_t> wire;           // original-id query
    std::vector<uint8_t> truncated_reply;  // served if TCP fails
  };

  struct AtomicStats {
    std::atomic<uint64_t> submitted{0};
    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> timeouts{0};
    std::atomic<uint64_t> truncated{0};
    std::atomic<uint64_t> tcp_fallbacks{0};
    std::atomic<uint64_t> wrong_source{0};
    std::atomic<uint64_t> wrong_id{0};
    std::atomic<uint64_t> ratelimit_deferred{0};
    std::atomic<uint64_t> send_errors{0};
    std::atomic<uint64_t> max_inflight{0};
  };

  void Complete(Token token, util::StatusOr<std::vector<uint8_t>> result);
  void NoteInflightHighWater(uint64_t inflight);

  void EventLoop();
  void FallbackLoop();
  void WakeLoop();
  // Loop thread only:
  void Dispatch(Submission s);
  void SendNow(Submission s, uint64_t now);
  void HandleReadable(int sock_index);
  void ExpireDeadlines(uint64_t now);
  void ReleaseDeferred(uint64_t now);
  int LoopPollTimeout(uint64_t now) const;

  Options options_;
  AtomicStats stats_;

  // Submission window / completion rendezvous.
  mutable std::mutex mu_;
  std::condition_variable window_cv_;   // space in the window
  std::condition_variable complete_cv_;  // a completion landed
  std::atomic<bool> shutdown_{false};
  Token next_token_ = 1;
  uint64_t inflight_ = 0;  // queued + in-flight + fallback, not yet Waited
  std::deque<Submission> submit_queue_;
  std::unordered_map<Token, util::StatusOr<std::vector<uint8_t>>> completions_;

  // Sockets and the loop's wake-up pipe.
  std::vector<int> sockets_;
  int wake_pipe_[2] = {-1, -1};
  std::thread loop_thread_;
  std::chrono::steady_clock::time_point epoch_;

  // Event-loop-owned state (no lock needed; loop thread only).
  std::unordered_map<Token, Pending> pendings_;
  std::vector<std::unordered_map<uint16_t, Token>> id_maps_;  // per socket
  std::vector<uint16_t> next_engine_id_;                      // per socket
  // (deadline, token) min-heap for timeouts.
  using DeadlineEntry = std::pair<uint64_t, Token>;
  std::priority_queue<DeadlineEntry, std::vector<DeadlineEntry>,
                      std::greater<DeadlineEntry>>
      deadlines_;
  // Rate-limited submissions parked until their bucket refills.
  using DeferredEntry = std::pair<uint64_t, Token>;
  std::priority_queue<DeferredEntry, std::vector<DeferredEntry>,
                      std::greater<DeferredEntry>>
      deferred_;
  std::unordered_map<Token, Submission> deferred_submissions_;
  std::unordered_map<uint32_t, TokenBucket> buckets_;  // by server bits

  // TCP fallback workers.
  std::mutex fallback_mu_;
  std::condition_variable fallback_cv_;
  std::deque<FallbackTask> fallback_queue_;
  std::vector<std::thread> fallback_threads_;
};

}  // namespace govdns::netio
