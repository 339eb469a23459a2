#include "zone/auth_server.h"

namespace govdns::zone {

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

dns::Message AuthServer::Answer(const dns::Message& query) const {
  if (query.questions.size() != 1) {
    return dns::MakeResponse(query, dns::Rcode::kFormErr);
  }
  if (mode_ == ServerMode::kRefuseAll) {
    return dns::MakeResponse(query, dns::Rcode::kRefused);
  }
  if (mode_ == ServerMode::kParking) {
    return AnswerParking(query);
  }
  const Zone* zone = FindBestZone(query.questions.front().name);
  if (zone == nullptr) {
    return dns::MakeResponse(query, dns::Rcode::kRefused);
  }
  dns::Message response = AnswerFromZone(*zone, query);
  if (mode_ == ServerMode::kNoAuthBit) response.header.aa = false;
  return response;
}

dns::Message AuthServer::AnswerFromZone(const Zone& zone,
                                        const dns::Message& query) const {
  const dns::Question& q = query.questions.front();

  // Delegation check first: names at or below a cut are answered with a
  // referral, even when the query is for the cut's own NS set (the parent
  // is not authoritative there; RFC 1034 §4.2.1).
  if (auto cut = zone.FindDelegation(q.name)) {
    dns::Message response = dns::MakeResponse(query, dns::Rcode::kNoError);
    response.header.aa = false;
    const auto ns_rrs = zone.Find(*cut, dns::RRType::kNS);
    response.authority.assign(ns_rrs.begin(), ns_rrs.end());
    // Glue: A records for in-zone NS targets, when present.
    for (const auto& ns_rr : ns_rrs) {
      const dns::Name& target = std::get<dns::NsRdata>(ns_rr.rdata).nameserver;
      if (!target.IsSubdomainOf(zone.origin())) continue;
      const auto glue = zone.Find(target, dns::RRType::kA);
      response.additional.insert(response.additional.end(), glue.begin(),
                                 glue.end());
    }
    return response;
  }

  dns::Message response = dns::MakeResponse(query, dns::Rcode::kNoError);
  response.header.aa = true;

  const auto rrs = zone.Find(q.name, q.type);
  if (!rrs.empty()) {
    response.answers.assign(rrs.begin(), rrs.end());
    return response;
  }

  // CNAME at the name answers any type (the client chases the target).
  const auto cnames = zone.Find(q.name, dns::RRType::kCNAME);
  if (!cnames.empty() && q.type != dns::RRType::kCNAME) {
    response.answers.assign(cnames.begin(), cnames.end());
    return response;
  }

  // NODATA vs NXDOMAIN.
  if (!zone.NameExists(q.name)) {
    response.header.rcode = dns::Rcode::kNxDomain;
  }
  if (auto soa = zone.Soa()) {
    response.authority.push_back(*std::move(soa));
  }
  return response;
}

dns::Message AuthServer::AnswerParking(const dns::Message& query) const {
  const dns::Question& q = query.questions.front();
  dns::Message response = dns::MakeResponse(query, dns::Rcode::kNoError);
  response.header.aa = true;
  switch (q.type) {
    case dns::RRType::kA:
      for (geo::IPv4 addr : parking_addresses_) {
        response.answers.push_back(dns::MakeA(q.name, addr, 300));
      }
      break;
    case dns::RRType::kNS: {
      // A parking service claims itself as the nameserver for everything.
      auto self = dns::Name::Parse(host_id_);
      if (self.ok()) {
        response.answers.push_back(dns::MakeNs(q.name, *self, 300));
      }
      break;
    }
    default:
      // NODATA for other types.
      break;
  }
  return response;
}

}  // namespace govdns::zone
