// Authoritative nameserver behaviour.
//
// An AuthServer holds the zones a (simulated) nameserver host serves and
// produces RFC-1035-conformant responses: authoritative answers, referrals
// with glue, NODATA, NXDOMAIN, or REFUSED for zones it does not serve.
// A response is written straight into wire format (dns::MessageWriter)
// from the sealed zone's record spans; no response Message is built and no
// record is copied.
//
// Misconfiguration modes reproduce the lame-delegation flavours the paper
// measures: a host that is listed in a parent's NS set but refuses queries,
// answers non-authoritatively, or belongs to a domain-parking service that
// answers everything with its own addresses.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "dns/message.h"
#include "zone/zone.h"

namespace govdns::zone {

enum class ServerMode {
  kNormal,      // serve configured zones, REFUSED otherwise
  kRefuseAll,   // lame: always REFUSED, regardless of zone data
  kNoAuthBit,   // lame: answers from zone data but never sets AA
  kParking,     // answers *every* name authoritatively with parking records
};

class AuthServer {
 public:
  explicit AuthServer(std::string host_id, ServerMode mode = ServerMode::kNormal);

  const std::string& host_id() const { return host_id_; }
  ServerMode mode() const { return mode_; }
  void set_mode(ServerMode mode) { mode_ = mode; }

  // Attaches a zone. The server answers authoritatively for the most
  // specific attached zone whose origin is a suffix of the query name.
  void AddZone(std::shared_ptr<const Zone> zone);
  // Detaches a zone (a provider dropping a customer: later queries for it
  // get REFUSED, the classic lame-delegation cause).
  void RemoveZone(const dns::Name& origin);

  size_t zone_count() const { return zones_.size(); }

  // For kParking mode: the addresses returned for every query.
  void SetParkingAddresses(std::vector<geo::IPv4> addresses);

  // Full request->response logic: the response's wire bytes. Always
  // returns a message (silence is a network property, modelled by simnet
  // endpoint behaviour, not here).
  std::vector<uint8_t> Answer(const dns::Message& query) const;

 private:
  std::vector<uint8_t> AnswerFromZone(const Zone& zone,
                                      const dns::Message& query) const;
  std::vector<uint8_t> AnswerParking(const dns::Message& query) const;
  const Zone* FindBestZone(const dns::Name& qname) const;

  std::string host_id_;
  ServerMode mode_;
  std::map<dns::Name, std::shared_ptr<const Zone>> zones_;
  std::vector<geo::IPv4> parking_addresses_;
};

}  // namespace govdns::zone
