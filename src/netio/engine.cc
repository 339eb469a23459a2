#include "netio/engine.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>

#include "netio/sockaddr.h"
#include "netio/tcp.h"

namespace govdns::netio {

namespace {

constexpr char kShutdownMsg[] = "engine shutdown";

bool IsTruncated(const std::vector<uint8_t>& reply) {
  return reply.size() >= 12 && (reply[2] & 0x02) != 0;
}

uint16_t WireId(const std::vector<uint8_t>& wire) {
  return static_cast<uint16_t>(wire[0] << 8 | wire[1]);
}

void SetWireId(std::vector<uint8_t>& wire, uint16_t id) {
  wire[0] = static_cast<uint8_t>(id >> 8);
  wire[1] = static_cast<uint8_t>(id & 0xFF);
}

}  // namespace

QueryEngine::QueryEngine(Options options)
    : options_(options), epoch_(std::chrono::steady_clock::now()) {
  options_.socket_pool = std::max(1, options_.socket_pool);
  options_.max_inflight = std::max(1, options_.max_inflight);
  sockets_.resize(static_cast<size_t>(options_.socket_pool), -1);
  id_maps_.resize(sockets_.size());
  next_engine_id_.resize(sockets_.size(), 0);
  for (size_t i = 0; i < sockets_.size(); ++i) {
    int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
    GOVDNS_CHECK(fd >= 0);
    // A deep receive buffer rides out completion bursts: with ~1k queries
    // in flight a few hundred replies can land between two poll rounds.
    int rcvbuf = 1 << 20;
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    sockets_[i] = fd;
    // Stagger id spaces so cross-socket collisions of fresh ids are rare
    // (collisions are handled, staggering just keeps the maps tidy).
    next_engine_id_[i] = static_cast<uint16_t>(i * 8191u);
  }
  GOVDNS_CHECK(::pipe2(wake_pipe_, O_NONBLOCK | O_CLOEXEC) == 0);
  loop_thread_ = std::thread([this] { EventLoop(); });
  if (options_.tcp_fallback) {
    for (int i = 0; i < 2; ++i) {
      fallback_threads_.emplace_back([this] { FallbackLoop(); });
    }
  }
}

QueryEngine::~QueryEngine() {
  {
    std::lock_guard lock(mu_);
    shutdown_.store(true);
  }
  window_cv_.notify_all();
  WakeLoop();
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    // Pairs with the fallback workers' wait: the flag flip cannot slip
    // between their predicate check and their sleep.
    std::lock_guard lock(fallback_mu_);
  }
  fallback_cv_.notify_all();
  for (std::thread& t : fallback_threads_) {
    if (t.joinable()) t.join();
  }
  for (int fd : sockets_) {
    if (fd >= 0) ::close(fd);
  }
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

uint64_t QueryEngine::now_ms() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void QueryEngine::Delay(uint32_t ms) {
  // Real pacing: backoff against live infrastructure actually waits.
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

void QueryEngine::NoteInflightHighWater(uint64_t inflight) {
  uint64_t seen = stats_.max_inflight.load(std::memory_order_relaxed);
  while (inflight > seen &&
         !stats_.max_inflight.compare_exchange_weak(
             seen, inflight, std::memory_order_relaxed)) {
  }
}

QueryEngine::Token QueryEngine::Submit(geo::IPv4 server,
                                       std::vector<uint8_t> wire_query) {
  Token token;
  {
    std::unique_lock lock(mu_);
    window_cv_.wait(lock, [&] {
      return shutdown_ ||
             inflight_ < static_cast<uint64_t>(options_.max_inflight);
    });
    token = next_token_++;
    if (shutdown_) {
      completions_.emplace(token, util::UnavailableError(kShutdownMsg));
      complete_cv_.notify_all();
      return token;
    }
    ++inflight_;
    NoteInflightHighWater(inflight_);
    submit_queue_.push_back(Submission{token, server, std::move(wire_query)});
  }
  stats_.submitted.fetch_add(1, std::memory_order_relaxed);
  WakeLoop();
  return token;
}

util::StatusOr<std::vector<uint8_t>> QueryEngine::Wait(Token token) {
  std::unique_lock lock(mu_);
  complete_cv_.wait(lock, [&] { return completions_.contains(token); });
  auto it = completions_.find(token);
  util::StatusOr<std::vector<uint8_t>> result = std::move(it->second);
  completions_.erase(it);
  return result;
}

util::StatusOr<std::vector<uint8_t>> QueryEngine::Exchange(
    geo::IPv4 server, const std::vector<uint8_t>& wire_query) {
  return Wait(Submit(server, wire_query));
}

void QueryEngine::Complete(Token token,
                           util::StatusOr<std::vector<uint8_t>> result) {
  {
    std::lock_guard lock(mu_);
    completions_.emplace(token, std::move(result));
    GOVDNS_CHECK(inflight_ > 0);
    --inflight_;
  }
  stats_.completed.fetch_add(1, std::memory_order_relaxed);
  window_cv_.notify_all();
  complete_cv_.notify_all();
}

void QueryEngine::WakeLoop() {
  uint8_t byte = 1;
  ssize_t n;
  do {
    n = ::write(wake_pipe_[1], &byte, 1);
  } while (n < 0 && errno == EINTR);
  // EAGAIN means the pipe already holds a wake-up; that is enough.
}

int QueryEngine::LoopPollTimeout(uint64_t now) const {
  uint64_t next = now + 100;  // idle heartbeat: re-check shutdown
  if (!deadlines_.empty()) next = std::min(next, deadlines_.top().first);
  if (!deferred_.empty()) next = std::min(next, deferred_.top().first);
  return next > now ? static_cast<int>(next - now) : 0;
}

void QueryEngine::EventLoop() {
  std::vector<pollfd> pfds;
  for (;;) {
    uint64_t now = now_ms();
    ReleaseDeferred(now);
    ExpireDeadlines(now);

    std::deque<Submission> batch;
    bool shutting;
    {
      std::lock_guard lock(mu_);
      batch.swap(submit_queue_);
      shutting = shutdown_;
    }
    for (Submission& s : batch) Dispatch(std::move(s));

    if (shutting) {
      // Fail everything still in flight; Submit already rejects new work.
      std::vector<Token> open;
      open.reserve(pendings_.size() + deferred_submissions_.size());
      for (const auto& [token, pending] : pendings_) open.push_back(token);
      for (const auto& [token, sub] : deferred_submissions_)
        open.push_back(token);
      pendings_.clear();
      deferred_submissions_.clear();
      for (Token token : open) {
        Complete(token, util::UnavailableError(kShutdownMsg));
      }
      return;
    }

    pfds.clear();
    pfds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    for (int fd : sockets_) pfds.push_back(pollfd{fd, POLLIN, 0});
    int ready = ::poll(pfds.data(), pfds.size(), LoopPollTimeout(now_ms()));
    if (ready < 0) {
      if (errno == EINTR) continue;
      GOVDNS_CHECK(false);  // poll on owned fds cannot fail otherwise
    }
    if (pfds[0].revents & POLLIN) {
      uint8_t drain[256];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }
    for (size_t i = 0; i < sockets_.size(); ++i) {
      if (pfds[i + 1].revents & POLLIN) {
        HandleReadable(static_cast<int>(i));
      }
    }
  }
}

void QueryEngine::Dispatch(Submission s) {
  if (s.wire.size() < 12) {
    Complete(s.token,
             util::InvalidArgumentError("wire query shorter than a DNS header"));
    return;
  }
  const uint64_t now = now_ms();
  if (options_.per_server_qps > 0.0) {
    const double burst = options_.per_server_burst > 0
                             ? options_.per_server_burst
                             : std::max(1.0, options_.per_server_qps);
    // A bucket starts full at its server's first query. Only insertion marks
    // it new: a bucket spent inside the engine's first millisecond looks
    // like an unused one (no tokens, last refill at 0).
    auto [it, fresh] = buckets_.try_emplace(s.server.bits());
    TokenBucket& bucket = it->second;
    if (fresh) {
      bucket.tokens = burst;
    } else {
      bucket.tokens = std::min(
          burst, bucket.tokens + static_cast<double>(now - bucket.last_ms) *
                                     options_.per_server_qps / 1000.0);
    }
    bucket.last_ms = now;
    if (bucket.tokens < 1.0) {
      // Park until the bucket refills; the loop releases in ready order.
      const uint64_t ready =
          now + static_cast<uint64_t>(std::ceil(
                    (1.0 - bucket.tokens) * 1000.0 / options_.per_server_qps));
      // Reserve the token now so concurrent submissions to the same server
      // queue behind this one instead of all releasing at once.
      bucket.tokens -= 1.0;
      stats_.ratelimit_deferred.fetch_add(1, std::memory_order_relaxed);
      deferred_.push({ready, s.token});
      deferred_submissions_.emplace(s.token, std::move(s));
      return;
    }
    bucket.tokens -= 1.0;
  }
  SendNow(std::move(s), now);
}

void QueryEngine::ReleaseDeferred(uint64_t now) {
  while (!deferred_.empty() && deferred_.top().first <= now) {
    Token token = deferred_.top().second;
    deferred_.pop();
    auto it = deferred_submissions_.find(token);
    if (it == deferred_submissions_.end()) continue;
    Submission s = std::move(it->second);
    deferred_submissions_.erase(it);
    SendNow(std::move(s), now);
  }
}

void QueryEngine::SendNow(Submission s, uint64_t now) {
  const int sock = static_cast<int>(s.token % sockets_.size());
  auto& id_map = id_maps_[sock];
  uint16_t engine_id = next_engine_id_[sock]++;
  while (id_map.contains(engine_id)) engine_id = next_engine_id_[sock]++;

  Pending pending;
  pending.token = s.token;
  pending.server = s.server;
  pending.original_id = WireId(s.wire);
  pending.engine_id = engine_id;
  pending.sock = sock;
  pending.deadline_ms = now + static_cast<uint64_t>(options_.timeout_ms);
  pending.wire = std::move(s.wire);
  SetWireId(pending.wire, engine_id);

  sockaddr_in dest = MakeSockaddr(s.server, options_.port);
  ssize_t sent;
  do {
    sent = ::sendto(sockets_[sock], pending.wire.data(), pending.wire.size(),
                    0, reinterpret_cast<const sockaddr*>(&dest), sizeof(dest));
  } while (sent < 0 && errno == EINTR);
  if (sent < 0) {
    stats_.send_errors.fetch_add(1, std::memory_order_relaxed);
    Complete(pending.token, util::UnavailableError(Errno("sendto")));
    return;
  }
  if (static_cast<size_t>(sent) != pending.wire.size()) {
    stats_.send_errors.fetch_add(1, std::memory_order_relaxed);
    Complete(pending.token, util::InternalError("short sendto"));
    return;
  }

  id_map.emplace(engine_id, pending.token);
  deadlines_.push({pending.deadline_ms, pending.token});
  pendings_.emplace(pending.token, std::move(pending));
}

void QueryEngine::HandleReadable(int sock_index) {
  std::vector<uint8_t> buffer(
      static_cast<size_t>(options_.max_response_bytes));
  for (;;) {
    sockaddr_in from{};
    socklen_t from_len = sizeof(from);
    ssize_t got =
        ::recvfrom(sockets_[sock_index], buffer.data(), buffer.size(), 0,
                   reinterpret_cast<sockaddr*>(&from), &from_len);
    if (got < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained
    }
    if (got < 2) {
      stats_.wrong_id.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const uint16_t engine_id =
        static_cast<uint16_t>(buffer[0] << 8 | buffer[1]);
    auto& id_map = id_maps_[sock_index];
    auto id_it = id_map.find(engine_id);
    if (id_it == id_map.end()) {
      // Late reply after timeout, or an id a spoofer guessed wrong.
      stats_.wrong_id.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    auto pending_it = pendings_.find(id_it->second);
    GOVDNS_CHECK(pending_it != pendings_.end());
    Pending& pending = pending_it->second;
    sockaddr_in expected = MakeSockaddr(pending.server, options_.port);
    if (!SameEndpoint(from, expected)) {
      // Right id, wrong endpoint: off-path spoof. The genuine reply may
      // still arrive — keep the query pending.
      stats_.wrong_source.fetch_add(1, std::memory_order_relaxed);
      continue;
    }

    std::vector<uint8_t> reply(buffer.begin(), buffer.begin() + got);
    SetWireId(reply, pending.original_id);  // restore the caller's id space
    Pending done = std::move(pending);
    pendings_.erase(pending_it);
    id_map.erase(id_it);

    if (IsTruncated(reply)) {
      stats_.truncated.fetch_add(1, std::memory_order_relaxed);
      if (options_.tcp_fallback) {
        FallbackTask task;
        task.token = done.token;
        task.server = done.server;
        task.deadline_ms = done.deadline_ms;
        task.wire = std::move(done.wire);
        SetWireId(task.wire, done.original_id);
        task.truncated_reply = std::move(reply);
        {
          std::lock_guard lock(fallback_mu_);
          fallback_queue_.push_back(std::move(task));
        }
        fallback_cv_.notify_one();
        continue;  // completes when the stream retry resolves
      }
    }
    Complete(done.token, std::move(reply));
  }
}

void QueryEngine::ExpireDeadlines(uint64_t now) {
  while (!deadlines_.empty() && deadlines_.top().first <= now) {
    Token token = deadlines_.top().second;
    deadlines_.pop();
    auto it = pendings_.find(token);
    if (it == pendings_.end()) continue;  // already completed
    id_maps_[it->second.sock].erase(it->second.engine_id);
    std::string server = it->second.server.ToString();
    pendings_.erase(it);
    stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
    Complete(token, util::TimeoutError("no reply from " + server));
  }
}

void QueryEngine::FallbackLoop() {
  for (;;) {
    FallbackTask task;
    {
      std::unique_lock lock(fallback_mu_);
      fallback_cv_.wait(lock, [&] {
        return !fallback_queue_.empty() || shutdown_.load();
      });
      if (fallback_queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(fallback_queue_.front());
      fallback_queue_.pop_front();
    }
    const uint64_t now = now_ms();
    util::StatusOr<std::vector<uint8_t>> full =
        util::TimeoutError("no budget left for tcp retry");
    if (task.deadline_ms > now) {
      full = TcpExchange(task.server, options_.port, task.wire,
                         static_cast<int>(task.deadline_ms - now),
                         options_.max_response_bytes);
    }
    if (full.ok() && full->size() >= 2 && WireId(*full) == WireId(task.wire)) {
      stats_.tcp_fallbacks.fetch_add(1, std::memory_order_relaxed);
      Complete(task.token, std::move(full));
    } else {
      // The stream retry failed; the truncated datagram is still evidence
      // the server answered — surface it just as the sync path would.
      Complete(task.token, std::move(task.truncated_reply));
    }
  }
}

EngineStats QueryEngine::stats() const {
  EngineStats s;
  s.submitted = stats_.submitted.load(std::memory_order_relaxed);
  s.completed = stats_.completed.load(std::memory_order_relaxed);
  s.timeouts = stats_.timeouts.load(std::memory_order_relaxed);
  s.truncated = stats_.truncated.load(std::memory_order_relaxed);
  s.tcp_fallbacks = stats_.tcp_fallbacks.load(std::memory_order_relaxed);
  s.wrong_source = stats_.wrong_source.load(std::memory_order_relaxed);
  s.wrong_id = stats_.wrong_id.load(std::memory_order_relaxed);
  s.ratelimit_deferred =
      stats_.ratelimit_deferred.load(std::memory_order_relaxed);
  s.send_errors = stats_.send_errors.load(std::memory_order_relaxed);
  s.max_inflight = stats_.max_inflight.load(std::memory_order_relaxed);
  return s;
}

}  // namespace govdns::netio
