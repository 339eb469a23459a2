#include "zone/auth_server.h"

namespace govdns::zone {

namespace {

// A response to `query` with `rcode` and the AA bit `aa`, its questions
// echoed and its record sections still to write.
dns::MessageWriter Response(const dns::Message& query, dns::Rcode rcode,
                            bool aa) {
  dns::Header header = dns::ResponseHeader(query.header, rcode);
  header.aa = aa;
  return dns::MessageWriter(header, query.questions);
}

std::vector<uint8_t> Bare(const dns::Message& query, dns::Rcode rcode) {
  return Response(query, rcode, /*aa=*/false).Finish();
}

}  // namespace

AuthServer::AuthServer(std::string host_id, ServerMode mode)
    : host_id_(std::move(host_id)), mode_(mode) {}

void AuthServer::AddZone(std::shared_ptr<const Zone> zone) {
  GOVDNS_CHECK(zone != nullptr);
  dns::Name origin = zone->origin();
  zones_[std::move(origin)] = std::move(zone);
}

void AuthServer::RemoveZone(const dns::Name& origin) { zones_.erase(origin); }

void AuthServer::SetParkingAddresses(std::vector<geo::IPv4> addresses) {
  parking_addresses_ = std::move(addresses);
}

const Zone* AuthServer::FindBestZone(const dns::Name& qname) const {
  // Longest-suffix match over the attached zone origins: at most
  // LabelCount() map probes, so servers hosting many zones stay fast.
  for (size_t count = qname.LabelCount(); count + 1 > 0; --count) {
    auto it = zones_.find(qname.Suffix(count));
    if (it != zones_.end()) return it->second.get();
  }
  return nullptr;
}

std::vector<uint8_t> AuthServer::Answer(const dns::Message& query) const {
  if (query.questions.size() != 1) return Bare(query, dns::Rcode::kFormErr);
  if (mode_ == ServerMode::kRefuseAll) return Bare(query, dns::Rcode::kRefused);
  if (mode_ == ServerMode::kParking) return AnswerParking(query);
  const Zone* zone = FindBestZone(query.questions.front().name);
  if (zone == nullptr) return Bare(query, dns::Rcode::kRefused);
  return AnswerFromZone(*zone, query);
}

std::vector<uint8_t> AuthServer::AnswerFromZone(
    const Zone& zone, const dns::Message& query) const {
  const dns::Question& q = query.questions.front();

  // Delegation check first: names at or below a cut are answered with a
  // referral, even when the query is for the cut's own NS set (the parent
  // is not authoritative there; RFC 1034 §4.2.1).
  if (auto cut = zone.FindDelegation(q.name)) {
    auto response = Response(query, dns::Rcode::kNoError, /*aa=*/false);
    const auto ns_rrs = zone.Find(*cut, dns::RRType::kNS);
    response.Add(dns::MessageWriter::kAuthority, ns_rrs);
    // Glue: A records for in-zone NS targets, when present.
    for (const auto& ns_rr : ns_rrs) {
      const dns::Name& target = std::get<dns::NsRdata>(ns_rr.rdata).nameserver;
      if (!target.IsSubdomainOf(zone.origin())) continue;
      response.Add(dns::MessageWriter::kAdditional,
                   zone.Find(target, dns::RRType::kA));
    }
    return response.Finish();
  }

  const bool aa = mode_ != ServerMode::kNoAuthBit;
  auto answers = zone.Find(q.name, q.type);
  // CNAME at the name answers any type (the client chases the target).
  if (answers.empty() && q.type != dns::RRType::kCNAME) {
    answers = zone.Find(q.name, dns::RRType::kCNAME);
  }
  if (!answers.empty()) {
    auto response = Response(query, dns::Rcode::kNoError, aa);
    response.Add(dns::MessageWriter::kAnswer, answers);
    return response.Finish();
  }

  // NODATA vs NXDOMAIN, with the apex SOA when there is one.
  auto response = Response(
      query,
      zone.NameExists(q.name) ? dns::Rcode::kNoError : dns::Rcode::kNxDomain,
      aa);
  const auto soas = zone.Find(zone.origin(), dns::RRType::kSOA);
  response.Add(dns::MessageWriter::kAuthority,
               soas.first(soas.empty() ? 0 : 1));
  return response.Finish();
}

std::vector<uint8_t> AuthServer::AnswerParking(
    const dns::Message& query) const {
  const dns::Question& q = query.questions.front();
  auto response = Response(query, dns::Rcode::kNoError, /*aa=*/true);
  switch (q.type) {
    case dns::RRType::kA:
      for (geo::IPv4 addr : parking_addresses_) {
        response.Add(dns::MessageWriter::kAnswer,
                     dns::MakeA(q.name, addr, 300));
      }
      break;
    case dns::RRType::kNS: {
      // A parking service claims itself as the nameserver for everything.
      auto self = dns::Name::Parse(host_id_);
      if (self.ok()) {
        response.Add(dns::MessageWriter::kAnswer,
                     dns::MakeNs(q.name, *self, 300));
      }
      break;
    }
    default:
      // NODATA for other types.
      break;
  }
  return response.Finish();
}

}  // namespace govdns::zone
