// govdns_serve — serve a master-format zone file over real UDP.
//
//   govdns_serve --zone <file> [--origin <name>] [--port N] [--duration S]
//
// Parses the zone with the library's RFC 1035 master-file parser, wraps it
// in an authoritative server, and answers real DNS queries on 127.0.0.1.
// Pair it with govdns_dig (or dig/kdig) to poke at a zone interactively:
//
//   govdns_serve --zone gov.xx.zone --port 5353 &
//   govdns_dig @127.0.0.1 -p 5353 www.gov.xx A
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "netio/udp.h"
#include "zone/auth_server.h"
#include "zone/zonefile.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --zone <file> [--origin <name>] [--port N] [--duration S]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace govdns;

  std::string zone_path;
  std::string origin_text = ".";
  uint16_t port = 5353;
  int duration_s = 0;  // 0: run until stdin closes

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--zone") {
      if (const char* v = next()) zone_path = v;
    } else if (arg == "--origin") {
      if (const char* v = next()) origin_text = v;
    } else if (arg == "--port") {
      if (const char* v = next()) port = static_cast<uint16_t>(std::atoi(v));
    } else if (arg == "--duration") {
      if (const char* v = next()) duration_s = std::atoi(v);
    } else {
      return Usage(argv[0]);
    }
  }
  if (zone_path.empty()) return Usage(argv[0]);

  std::ifstream in(zone_path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", zone_path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  auto origin = dns::Name::Parse(origin_text);
  if (!origin.ok()) {
    std::fprintf(stderr, "bad origin: %s\n", origin_text.c_str());
    return 2;
  }
  auto zone = zone::ParseZoneFile(buffer.str(), *origin);
  if (!zone.ok()) {
    std::fprintf(stderr, "zone parse error: %s\n",
                 zone.status().ToString().c_str());
    return 1;
  }
  auto shared = std::make_shared<zone::Zone>(*std::move(zone));
  std::printf("loaded %s: %zu records, origin %s\n", zone_path.c_str(),
              shared->record_count(), shared->origin().ToString().c_str());

  zone::AuthServer auth("govdns-serve");
  auth.AddZone(shared);

  netio::UdpServer server;
  auto status = server.Start(
      geo::IPv4(127, 0, 0, 1), port,
      [&auth](const std::vector<uint8_t>& wire) -> std::vector<uint8_t> {
        auto query = dns::Message::Decode(wire);
        if (!query.ok()) return {};
        return auth.Answer(*query);
      });
  if (!status.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("serving on 127.0.0.1:%u", server.port());
  if (duration_s > 0) {
    std::printf(" for %d s\n", duration_s);
    std::this_thread::sleep_for(std::chrono::seconds(duration_s));
  } else {
    std::printf(" until stdin closes\n");
    std::string line;
    while (std::getline(std::cin, line)) {
    }
  }
  std::printf("served %llu requests\n",
              static_cast<unsigned long long>(server.requests_served()));
  server.Stop();
  return 0;
}
