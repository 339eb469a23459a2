// Loopback tests for the real-socket transport: genuine UDP datagrams
// between UdpTransport and UdpServer on 127.0.0.1, carrying real DNS
// wire-format messages produced and consumed by the same code the
// simulation uses. Includes the hardening cases (spoofed sources, wrong
// transaction ids, EINTR storms) and the async QueryEngine: batched
// submit/complete, per-server pacing and TCP fallback on truncation.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <thread>

#include "core/resolver.h"
#include "netio/engine.h"
#include "netio/tcp.h"
#include "netio/udp.h"
#include "zone/auth_server.h"

namespace govdns::netio {
namespace {

using dns::MakeA;
using dns::MakeNs;
using dns::MakeSoa;
using dns::Name;

geo::IPv4 Loopback() { return geo::IPv4(127, 0, 0, 1); }

std::shared_ptr<zone::Zone> TestZone() {
  auto z = std::make_shared<zone::Zone>(Name::FromString("gov.xx"));
  z->Add(MakeSoa(z->origin(), Name::FromString("ns1.gov.xx"),
                 Name::FromString("hostmaster.gov.xx"), 1));
  z->Add(MakeNs(z->origin(), Name::FromString("ns1.gov.xx")));
  z->Add(MakeA(Name::FromString("ns1.gov.xx"), geo::IPv4(10, 0, 0, 1)));
  z->Add(MakeA(Name::FromString("www.gov.xx"), geo::IPv4(10, 0, 0, 2)));
  z->Seal();
  return z;
}

UdpServer::Handler AuthHandler(zone::AuthServer* server) {
  return [server](const std::vector<uint8_t>& wire) -> std::vector<uint8_t> {
    auto query = dns::Message::Decode(wire);
    if (!query.ok()) return {};
    return server->Answer(*query);
  };
}

class NetioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auth_ = std::make_unique<zone::AuthServer>("ns1.gov.xx");
    auth_->AddZone(TestZone());
    auto status = server_.Start(Loopback(), 0, AuthHandler(auth_.get()));
    if (!status.ok()) {
      GTEST_SKIP() << "cannot bind loopback UDP socket: "
                   << status.ToString();
    }
  }

  std::unique_ptr<zone::AuthServer> auth_;
  UdpServer server_;
};

TEST_F(NetioTest, RealPacketsRoundTrip) {
  UdpTransport::Options options;
  options.port = server_.port();
  options.timeout_ms = 2000;
  UdpTransport transport(options);

  dns::Message query =
      dns::MakeQuery(77, Name::FromString("www.gov.xx"), dns::RRType::kA);
  auto raw = transport.Exchange(Loopback(), query.Encode());
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  auto reply = dns::Message::Decode(*raw);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->header.id, 77);
  EXPECT_TRUE(reply->header.aa);
  ASSERT_EQ(reply->answers.size(), 1u);
  EXPECT_EQ(dns::RdataToString(reply->answers[0].rdata), "10.0.0.2");
  EXPECT_GE(server_.requests_served(), 1u);
}

TEST_F(NetioTest, ResolverQueryServerWorksOverRealSockets) {
  // The measurement-side classification runs unchanged over real UDP.
  UdpTransport::Options options;
  options.port = server_.port();
  UdpTransport transport(options);
  core::IterativeResolver resolver(&transport, {Loopback()});

  auto reply = resolver.QueryServer(Loopback(), Name::FromString("www.gov.xx"),
                                    dns::RRType::kA);
  EXPECT_EQ(reply.outcome, core::QueryOutcome::kAuthAnswer);

  reply = resolver.QueryServer(Loopback(), Name::FromString("nothere.gov.xx"),
                               dns::RRType::kA);
  EXPECT_EQ(reply.outcome, core::QueryOutcome::kAuthNegative);

  reply = resolver.QueryServer(Loopback(), Name::FromString("example.com"),
                               dns::RRType::kA);
  EXPECT_EQ(reply.outcome, core::QueryOutcome::kRefused);
}

TEST_F(NetioTest, TimeoutAgainstSilentPort) {
  // A second server socket that never answers (handler returns empty).
  UdpServer silent;
  auto status = silent.Start(Loopback(), 0,
                             [](const std::vector<uint8_t>&) {
                               return std::vector<uint8_t>{};
                             });
  ASSERT_TRUE(status.ok());
  UdpTransport::Options options;
  options.port = silent.port();
  options.timeout_ms = 200;
  UdpTransport transport(options);
  auto raw = transport.Exchange(Loopback(), {0, 1, 2, 3});
  EXPECT_FALSE(raw.ok());
  EXPECT_EQ(raw.status().code(), util::ErrorCode::kTimeout);
}

TEST_F(NetioTest, ServerStopIsIdempotentAndRestartable) {
  server_.Stop();
  EXPECT_FALSE(server_.running());
  server_.Stop();  // no-op
  auto status = server_.Start(Loopback(), 0, AuthHandler(auth_.get()));
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(server_.running());
  EXPECT_GT(server_.port(), 0);
}

TEST_F(NetioTest, PortResetsToZeroOnStop) {
  EXPECT_GT(server_.port(), 0);
  server_.Stop();
  EXPECT_EQ(server_.port(), 0);
}

// A raw bound UDP socket with a known port, for hand-rolled responders.
struct RawSock {
  int fd = -1;
  uint16_t port = 0;

  bool Open() {
    fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
        0) {
      return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
      return false;
    }
    port = ntohs(bound.sin_port);
    return true;
  }
  ~RawSock() {
    if (fd >= 0) ::close(fd);
  }
};

uint8_t ReplyRcode(const std::vector<uint8_t>& wire) {
  return wire.size() >= 4 ? static_cast<uint8_t>(wire[3] & 0x0F) : 0xFF;
}

TEST(NetioHardeningTest, SpoofedSourceIsDiscarded) {
  RawSock server;
  RawSock decoy;
  ASSERT_TRUE(server.Open());
  ASSERT_TRUE(decoy.Open());

  // The responder answers twice: first a spoof from the *decoy* socket
  // (same payload, matching id, rcode REFUSED) — exactly what an off-path
  // attacker who guessed the id but not our connect-less 4-tuple would
  // inject — then, after a beat, the genuine NOERROR reply from the
  // queried socket.
  std::thread responder([&] {
    uint8_t buf[512];
    sockaddr_in client{};
    socklen_t client_len = sizeof(client);
    ssize_t got = ::recvfrom(server.fd, buf, sizeof(buf), 0,
                             reinterpret_cast<sockaddr*>(&client), &client_len);
    if (got < 12) return;
    std::vector<uint8_t> spoof(buf, buf + got);
    spoof[2] |= 0x80;                              // QR
    spoof[3] = (spoof[3] & 0xF0) | 0x05;           // REFUSED marker
    (void)::sendto(decoy.fd, spoof.data(), spoof.size(), 0,
                   reinterpret_cast<const sockaddr*>(&client), client_len);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::vector<uint8_t> genuine(buf, buf + got);
    genuine[2] |= 0x80;                            // QR, NOERROR
    (void)::sendto(server.fd, genuine.data(), genuine.size(), 0,
                   reinterpret_cast<const sockaddr*>(&client), client_len);
  });

  UdpTransport::Options options;
  options.port = server.port;
  options.timeout_ms = 2000;
  UdpTransport transport(options);
  auto raw = transport.Exchange(
      Loopback(),
      dns::MakeQuery(321, Name::FromString("www.gov.xx"), dns::RRType::kA)
          .Encode());
  responder.join();
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  // The spoof arrived first; only source validation explains NOERROR here.
  EXPECT_EQ(ReplyRcode(*raw), 0x00);
}

TEST(NetioHardeningTest, WrongTransactionIdIsDiscarded) {
  RawSock server;
  ASSERT_TRUE(server.Open());

  // Same endpoint this time, but the first reply carries a flipped id — a
  // cross-talk datagram from some other exchange, or a blind spoofer.
  std::thread responder([&] {
    uint8_t buf[512];
    sockaddr_in client{};
    socklen_t client_len = sizeof(client);
    ssize_t got = ::recvfrom(server.fd, buf, sizeof(buf), 0,
                             reinterpret_cast<sockaddr*>(&client), &client_len);
    if (got < 12) return;
    std::vector<uint8_t> wrong(buf, buf + got);
    wrong[0] ^= 0xFF;                              // mangle the id
    wrong[2] |= 0x80;
    wrong[3] = (wrong[3] & 0xF0) | 0x05;           // REFUSED marker
    (void)::sendto(server.fd, wrong.data(), wrong.size(), 0,
                   reinterpret_cast<const sockaddr*>(&client), client_len);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::vector<uint8_t> genuine(buf, buf + got);
    genuine[2] |= 0x80;
    (void)::sendto(server.fd, genuine.data(), genuine.size(), 0,
                   reinterpret_cast<const sockaddr*>(&client), client_len);
  });

  UdpTransport::Options options;
  options.port = server.port;
  options.timeout_ms = 2000;
  UdpTransport transport(options);
  auto raw = transport.Exchange(
      Loopback(),
      dns::MakeQuery(654, Name::FromString("www.gov.xx"), dns::RRType::kA)
          .Encode());
  responder.join();
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_EQ(ReplyRcode(*raw), 0x00);
  ASSERT_GE(raw->size(), 2u);
  EXPECT_EQ(static_cast<uint16_t>((*raw)[0] << 8 | (*raw)[1]), 654);
}

TEST_F(NetioTest, ExchangeSurvivesEintrStorm) {
  // The handler stalls long enough that the client is parked in poll() when
  // the signals land; without EINTR retry the exchange would die on the
  // first one. SA_RESTART is deliberately NOT set — this is the same signal
  // shape the CLI's escalating SIGINT handlers produce.
  server_.Stop();
  auto slow = [this](const std::vector<uint8_t>& wire) {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    return AuthHandler(auth_.get())(wire);
  };
  ASSERT_TRUE(server_.Start(Loopback(), 0, slow).ok());

  struct sigaction action {};
  action.sa_handler = [](int) {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: syscalls must see EINTR
  struct sigaction previous {};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  pthread_t target = ::pthread_self();
  std::atomic<bool> stop{false};
  std::thread pinger([&] {
    while (!stop.load()) {
      (void)::pthread_kill(target, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  });

  UdpTransport::Options options;
  options.port = server_.port();
  options.timeout_ms = 5000;
  UdpTransport transport(options);
  auto raw = transport.Exchange(
      Loopback(),
      dns::MakeQuery(7, Name::FromString("www.gov.xx"), dns::RRType::kA)
          .Encode());

  stop.store(true);
  pinger.join();
  ASSERT_EQ(::sigaction(SIGUSR1, &previous, nullptr), 0);

  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  auto reply = dns::Message::Decode(*raw);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->header.id, 7);
}

TEST_F(NetioTest, EngineBatchedSubmitBoundedWindow) {
  QueryEngine::Options options;
  options.port = server_.port();
  options.timeout_ms = 2000;
  options.max_inflight = 8;  // far fewer than the batch: Submit must block
  options.socket_pool = 4;
  QueryEngine engine(options);

  constexpr int kQueries = 64;
  std::vector<QueryEngine::Token> tokens;
  tokens.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    tokens.push_back(engine.Submit(
        Loopback(),
        dns::MakeQuery(static_cast<uint16_t>(i + 1),
                       Name::FromString("www.gov.xx"), dns::RRType::kA)
            .Encode()));
  }
  for (int i = 0; i < kQueries; ++i) {
    auto raw = engine.Wait(tokens[static_cast<size_t>(i)]);
    ASSERT_TRUE(raw.ok()) << i << ": " << raw.status().ToString();
    auto reply = dns::Message::Decode(*raw);
    ASSERT_TRUE(reply.ok());
    // The engine rewrites ids on the wire but hands back the caller's.
    EXPECT_EQ(reply->header.id, i + 1);
    ASSERT_EQ(reply->answers.size(), 1u);
    EXPECT_EQ(dns::RdataToString(reply->answers[0].rdata), "10.0.0.2");
  }
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kQueries));
  EXPECT_LE(stats.max_inflight, 8u);
  EXPECT_EQ(stats.timeouts, 0u);
}

TEST_F(NetioTest, EnginePacesEachServerFromItsFirstQuery) {
  // One token per 50 ms and a burst of one: of four queries to one server
  // submitted at once, the first spends the token and the other three wait
  // their turn, even inside the engine's first millisecond.
  QueryEngine::Options options;
  options.port = server_.port();
  options.timeout_ms = 2000;
  options.per_server_qps = 20.0;
  options.per_server_burst = 1;
  QueryEngine engine(options);

  const auto start = std::chrono::steady_clock::now();
  std::vector<QueryEngine::Token> tokens;
  for (int i = 0; i < 4; ++i) {
    tokens.push_back(engine.Submit(
        Loopback(),
        dns::MakeQuery(static_cast<uint16_t>(i + 1),
                       Name::FromString("www.gov.xx"), dns::RRType::kA)
            .Encode()));
  }
  for (QueryEngine::Token token : tokens) {
    auto raw = engine.Wait(token);
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(engine.stats().ratelimit_deferred, 3u);
  EXPECT_GE(elapsed, std::chrono::milliseconds(140));
}

TEST_F(NetioTest, EngineTruncatedReplyFallsBackToTcp) {
  // UDP twin serves TC=1 with the answers stripped; the TCP twin on the
  // same port number serves the full answer. The engine must splice the
  // stream retry in transparently.
  server_.Stop();
  auto truncating = [this](const std::vector<uint8_t>& wire) {
    auto query = dns::Message::Decode(wire);
    if (!query.ok()) return std::vector<uint8_t>{};
    auto reply = dns::Message::Decode(auth_->Answer(*query));
    if (!reply.ok()) return std::vector<uint8_t>{};
    reply->answers.clear();
    reply->header.tc = true;
    return reply->Encode();
  };
  ASSERT_TRUE(server_.Start(Loopback(), 0, truncating).ok());

  TcpServer tcp;
  auto tcp_status = tcp.Start(Loopback(), server_.port(), AuthHandler(auth_.get()));
  if (!tcp_status.ok()) {
    GTEST_SKIP() << "cannot bind TCP twin port: " << tcp_status.ToString();
  }

  QueryEngine::Options options;
  options.port = server_.port();
  options.timeout_ms = 2000;
  options.tcp_fallback = true;
  QueryEngine engine(options);

  auto raw = engine.Exchange(
      Loopback(),
      dns::MakeQuery(42, Name::FromString("www.gov.xx"), dns::RRType::kA)
          .Encode());
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  auto reply = dns::Message::Decode(*raw);
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply->header.tc);
  EXPECT_EQ(reply->header.id, 42);
  ASSERT_EQ(reply->answers.size(), 1u);
  EXPECT_EQ(dns::RdataToString(reply->answers[0].rdata), "10.0.0.2");

  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.truncated, 1u);
  EXPECT_EQ(stats.tcp_fallbacks, 1u);
  EXPECT_GE(tcp.requests_served(), 1u);
}

TEST(NetioStandaloneTest, StartFailsOnPrivilegedPortOrReportsCleanly) {
  // Binding port 53 usually needs privileges; either outcome must be clean.
  UdpServer server;
  auto status = server.Start(Loopback(), 53, [](const std::vector<uint8_t>&) {
    return std::vector<uint8_t>{};
  });
  if (status.ok()) {
    server.Stop();
    SUCCEED();
  } else {
    EXPECT_EQ(status.code(), util::ErrorCode::kUnavailable);
  }
}

}  // namespace
}  // namespace govdns::netio
