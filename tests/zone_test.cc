#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "util/rng.h"
#include "worldgen/world.h"
#include "zone/auth_server.h"
#include "zone/zone.h"

namespace govdns::zone {
namespace {

using dns::MakeA;
using dns::MakeCname;
using dns::MakeNs;
using dns::MakeSoa;
using dns::Name;

std::shared_ptr<Zone> GovCnZone() {
  auto z = std::make_shared<Zone>(Name::FromString("gov.cn"));
  Name origin = z->origin();
  z->Add(MakeSoa(origin, Name::FromString("ns1.nic.gov.cn"),
                 Name::FromString("hostmaster.gov.cn"), 1));
  z->Add(MakeNs(origin, Name::FromString("ns1.nic.gov.cn")));
  z->Add(MakeNs(origin, Name::FromString("ns2.nic.gov.cn")));
  z->Add(MakeA(Name::FromString("ns1.nic.gov.cn"), geo::IPv4(10, 0, 0, 1)));
  z->Add(MakeA(Name::FromString("ns2.nic.gov.cn"), geo::IPv4(10, 0, 0, 2)));
  z->Add(MakeA(Name::FromString("www.gov.cn"), geo::IPv4(10, 0, 0, 3)));
  // Delegation: moe.gov.cn with in-bailiwick glue.
  z->Add(MakeNs(Name::FromString("moe.gov.cn"),
                Name::FromString("ns1.moe.gov.cn")));
  z->Add(MakeNs(Name::FromString("moe.gov.cn"),
                Name::FromString("ns2.moe.gov.cn")));
  z->Add(MakeA(Name::FromString("ns1.moe.gov.cn"), geo::IPv4(10, 0, 1, 1)));
  z->Add(MakeA(Name::FromString("ns2.moe.gov.cn"), geo::IPv4(10, 0, 1, 2)));
  // CNAME inside the zone.
  z->Add(MakeCname(Name::FromString("portal.gov.cn"),
                   Name::FromString("www.gov.cn")));
  z->Seal();
  return z;
}

// ---------------------------------------------------------------------------
// Zone data model
// ---------------------------------------------------------------------------

TEST(ZoneTest, FindReturnsMatchingRecords) {
  auto z = GovCnZone();
  auto ns = z->Find(z->origin(), dns::RRType::kNS);
  EXPECT_EQ(ns.size(), 2u);
  EXPECT_TRUE(z->Find(z->origin(), dns::RRType::kTXT).empty());
  EXPECT_TRUE(z->Find(Name::FromString("absent.gov.cn"), dns::RRType::kA).empty());
}

TEST(ZoneTest, NameExistsIncludesEmptyNonTerminals) {
  auto z = GovCnZone();
  EXPECT_TRUE(z->NameExists(Name::FromString("www.gov.cn")));
  // nic.gov.cn has no records itself but ns1.nic.gov.cn exists below it.
  EXPECT_TRUE(z->NameExists(Name::FromString("nic.gov.cn")));
  EXPECT_FALSE(z->NameExists(Name::FromString("nothing.gov.cn")));
}

TEST(ZoneTest, FindDelegationAtAndBelowCut) {
  auto z = GovCnZone();
  auto cut = z->FindDelegation(Name::FromString("moe.gov.cn"));
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(cut->ToString(), "moe.gov.cn");
  cut = z->FindDelegation(Name::FromString("deep.sub.moe.gov.cn"));
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(cut->ToString(), "moe.gov.cn");
}

TEST(ZoneTest, NoDelegationForAuthoritativeNames) {
  auto z = GovCnZone();
  EXPECT_FALSE(z->FindDelegation(Name::FromString("www.gov.cn")).has_value());
  // The apex NS records are not a delegation.
  EXPECT_FALSE(z->FindDelegation(z->origin()).has_value());
}

TEST(ZoneTest, TopmostCutWins) {
  auto z = std::make_shared<Zone>(Name::FromString("gov.br"));
  z->Add(MakeNs(Name::FromString("sp.gov.br"), Name::FromString("ns.x.br")));
  z->Add(MakeNs(Name::FromString("city.sp.gov.br"),
                Name::FromString("ns.y.br")));
  z->Seal();
  auto cut = z->FindDelegation(Name::FromString("www.city.sp.gov.br"));
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(cut->ToString(), "sp.gov.br");
}

TEST(ZoneTest, SoaAndNsTargets) {
  auto z = GovCnZone();
  ASSERT_TRUE(z->Soa().has_value());
  auto targets = z->NsTargets(Name::FromString("moe.gov.cn"));
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0].ToString(), "ns1.moe.gov.cn");
}

TEST(ZoneTest, RecordCountAndIteration) {
  auto z = GovCnZone();
  size_t visited = 0;
  z->ForEachRecord([&](const dns::ResourceRecord&) { ++visited; });
  EXPECT_EQ(visited, z->record_count());
  EXPECT_EQ(visited, 11u);
}

TEST(ZoneDeathTest, ReadBeforeSealFails) {
  Zone z(Name::FromString("gov.cn"));
  z.Add(MakeA(Name::FromString("www.gov.cn"), geo::IPv4(10, 0, 0, 3)));
  EXPECT_DEATH(z.Find(Name::FromString("www.gov.cn"), dns::RRType::kA),
               "sealed_");
  EXPECT_DEATH(z.NameExists(Name::FromString("www.gov.cn")), "sealed_");
  EXPECT_DEATH(z.FindDelegation(Name::FromString("www.gov.cn")), "sealed_");
  EXPECT_DEATH(z.record_count(), "sealed_");
}

TEST(ZoneDeathTest, AddAfterSealFails) {
  Zone z(Name::FromString("gov.cn"));
  z.Seal();
  EXPECT_DEATH(
      z.Add(MakeA(Name::FromString("www.gov.cn"), geo::IPv4(10, 0, 0, 3))),
      "sealed_");
  EXPECT_DEATH(z.Seal(), "sealed_");
}

// ---------------------------------------------------------------------------
// The sealed image against the nested-map zone it replaced
// ---------------------------------------------------------------------------

// The former Zone representation, kept as the oracle: owner name -> type ->
// records, each level a std::map in canonical order.
class ReferenceZone {
 public:
  explicit ReferenceZone(Name origin) : origin_(std::move(origin)) {}

  void Add(dns::ResourceRecord rr) {
    records_[rr.name][rr.type()].push_back(std::move(rr));
  }

  std::vector<dns::ResourceRecord> Find(const Name& name,
                                        dns::RRType type) const {
    auto it = records_.find(name);
    if (it == records_.end()) return {};
    auto jt = it->second.find(type);
    if (jt == it->second.end()) return {};
    return jt->second;
  }

  bool NameExists(const Name& name) const {
    if (records_.contains(name)) return true;
    for (auto it = records_.lower_bound(name); it != records_.end(); ++it) {
      if (!it->first.IsSubdomainOf(name)) break;
      return true;
    }
    return false;
  }

  std::optional<Name> FindDelegation(const Name& name) const {
    if (!name.IsSubdomainOf(origin_)) return std::nullopt;
    const size_t origin_labels = origin_.LabelCount();
    for (size_t count = origin_labels + 1; count <= name.LabelCount();
         ++count) {
      Name candidate = name.Suffix(count);
      auto it = records_.find(candidate);
      if (it != records_.end() && it->second.contains(dns::RRType::kNS)) {
        return candidate;
      }
    }
    return std::nullopt;
  }

  std::optional<dns::ResourceRecord> Soa() const {
    auto soas = Find(origin_, dns::RRType::kSOA);
    if (soas.empty()) return std::nullopt;
    return soas.front();
  }

  std::vector<Name> NsTargets(const Name& owner) const {
    std::vector<Name> out;
    for (const auto& rr : Find(owner, dns::RRType::kNS)) {
      out.push_back(std::get<dns::NsRdata>(rr.rdata).nameserver);
    }
    return out;
  }

  // Every record in iteration order.
  std::vector<dns::ResourceRecord> AllRecords() const {
    std::vector<dns::ResourceRecord> out;
    for (const auto& [name, by_type] : records_) {
      for (const auto& [type, rrs] : by_type) {
        out.insert(out.end(), rrs.begin(), rrs.end());
      }
    }
    return out;
  }

 private:
  Name origin_;
  std::map<Name, std::map<dns::RRType, std::vector<dns::ResourceRecord>>>
      records_;
};

TEST(SealedZoneTest, MatchesReferenceOnRandomRecordStreams) {
  static const char* kLabels[] = {"a", "b", "ns1", "www", "x"};
  const Name origin = Name::FromString("gov.zz");
  util::Rng rng(20260417);
  for (int round = 0; round < 200; ++round) {
    Zone sealed(origin);
    ReferenceZone reference(origin);
    std::vector<Name> owners;
    const int count = 1 + static_cast<int>(rng.UniformU64(40));
    for (int i = 0; i < count; ++i) {
      // Owners one to three labels below the origin (or the origin itself);
      // a deep owner whose ancestors carry no records leaves empty
      // non-terminals. Reusing an earlier owner repeats (owner, type) pairs.
      Name owner = origin;
      if (!owners.empty() && rng.Bernoulli(0.3)) {
        owner = owners[rng.UniformU64(owners.size())];
      } else {
        const int depth = static_cast<int>(rng.UniformU64(4));
        for (int d = 0; d < depth; ++d) {
          owner = owner.Child(kLabels[rng.UniformU64(std::size(kLabels))]);
        }
      }
      owners.push_back(owner);
      const Name target =
          origin.Child(kLabels[rng.UniformU64(std::size(kLabels))]);
      dns::ResourceRecord rr;
      switch (rng.UniformU64(5)) {
        case 0:
          rr = MakeA(owner, geo::IPv4(static_cast<uint32_t>(rng.NextU64())));
          break;
        case 1:
          rr = MakeNs(owner, target);
          break;
        case 2:
          rr = MakeSoa(owner, target, origin.Child("hostmaster"),
                       static_cast<uint32_t>(rng.UniformU64(100)));
          break;
        case 3:
          rr = MakeCname(owner, target);
          break;
        default:
          rr = dns::MakeTxt(owner, "t" + std::to_string(rng.UniformU64(9)));
          break;
      }
      reference.Add(rr);
      sealed.Add(std::move(rr));
    }
    sealed.Seal();

    // Every owner, each of its ancestors (empty non-terminals and names
    // above the origin), a child that holds nothing, and unrelated names.
    std::set<Name> queries = {Name::FromString("missing.gov.zz"),
                              Name::FromString("x.missing.gov.zz"),
                              Name::FromString("elsewhere.yy"), Name::Root()};
    for (const Name& owner : owners) {
      for (size_t k = 0; k <= owner.LabelCount(); ++k) {
        queries.insert(owner.Suffix(k));
      }
      queries.insert(owner.Child("absent"));
    }
    for (const Name& name : queries) {
      for (dns::RRType type :
           {dns::RRType::kA, dns::RRType::kNS, dns::RRType::kSOA,
            dns::RRType::kCNAME, dns::RRType::kTXT, dns::RRType::kMX,
            dns::RRType::kAAAA}) {
        const auto got = sealed.Find(name, type);
        EXPECT_EQ(std::vector<dns::ResourceRecord>(got.begin(), got.end()),
                  reference.Find(name, type))
            << name.ToString() << " " << dns::RRTypeName(type);
      }
      EXPECT_EQ(sealed.NameExists(name), reference.NameExists(name))
          << name.ToString();
      EXPECT_EQ(sealed.FindDelegation(name), reference.FindDelegation(name))
          << name.ToString();
      EXPECT_EQ(sealed.NsTargets(name), reference.NsTargets(name))
          << name.ToString();
    }
    EXPECT_EQ(sealed.Soa(), reference.Soa());
    std::vector<dns::ResourceRecord> walked;
    sealed.ForEachRecord(
        [&](const dns::ResourceRecord& rr) { walked.push_back(rr); });
    const auto all = reference.AllRecords();
    EXPECT_EQ(walked, all);
    EXPECT_EQ(sealed.record_count(), all.size());
  }
}

// ---------------------------------------------------------------------------
// Authoritative server behaviour
// ---------------------------------------------------------------------------

// The server answers in wire format; these tests inspect the decoded reply.
dns::Message Decoded(const std::vector<uint8_t>& wire) {
  auto reply = dns::Message::Decode(wire);
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  return reply.ok() ? *std::move(reply) : dns::Message{};
}

dns::Message AskServer(const AuthServer& server, const std::string& name,
                       dns::RRType type) {
  return Decoded(
      server.Answer(dns::MakeQuery(1, Name::FromString(name), type)));
}

class AuthServerTest : public ::testing::Test {
 protected:
  AuthServerTest() : server_("ns1.nic.gov.cn") {
    server_.AddZone(GovCnZone());
  }

  dns::Message Ask(const std::string& name, dns::RRType type) {
    return AskServer(server_, name, type);
  }

  AuthServer server_;
};

TEST_F(AuthServerTest, AuthoritativeAnswer) {
  auto r = Ask("www.gov.cn", dns::RRType::kA);
  EXPECT_TRUE(r.header.aa);
  EXPECT_EQ(r.header.rcode, dns::Rcode::kNoError);
  ASSERT_EQ(r.answers.size(), 1u);
  EXPECT_EQ(r.answers[0].name.ToString(), "www.gov.cn");
}

TEST_F(AuthServerTest, ApexNsAnswer) {
  auto r = Ask("gov.cn", dns::RRType::kNS);
  EXPECT_TRUE(r.header.aa);
  EXPECT_EQ(r.answers.size(), 2u);
}

TEST_F(AuthServerTest, ReferralWithGlue) {
  auto r = Ask("moe.gov.cn", dns::RRType::kNS);
  EXPECT_FALSE(r.header.aa);
  EXPECT_TRUE(r.answers.empty());
  EXPECT_TRUE(r.IsReferral());
  EXPECT_EQ(r.authority.size(), 2u);
  EXPECT_EQ(r.additional.size(), 2u);  // glue A records
  EXPECT_EQ(r.authority[0].name.ToString(), "moe.gov.cn");
}

TEST_F(AuthServerTest, ReferralForNamesBelowCut) {
  auto r = Ask("www.moe.gov.cn", dns::RRType::kA);
  EXPECT_TRUE(r.IsReferral());
}

TEST_F(AuthServerTest, NxDomainWithSoa) {
  auto r = Ask("missing.gov.cn", dns::RRType::kA);
  EXPECT_EQ(r.header.rcode, dns::Rcode::kNxDomain);
  EXPECT_TRUE(r.header.aa);
  ASSERT_EQ(r.authority.size(), 1u);
  EXPECT_EQ(r.authority[0].type(), dns::RRType::kSOA);
}

TEST_F(AuthServerTest, NodataForExistingNameWrongType) {
  auto r = Ask("www.gov.cn", dns::RRType::kTXT);
  EXPECT_EQ(r.header.rcode, dns::Rcode::kNoError);
  EXPECT_TRUE(r.answers.empty());
  ASSERT_EQ(r.authority.size(), 1u);
  EXPECT_EQ(r.authority[0].type(), dns::RRType::kSOA);
}

TEST_F(AuthServerTest, CnameAnswersOtherTypes) {
  auto r = Ask("portal.gov.cn", dns::RRType::kA);
  ASSERT_EQ(r.answers.size(), 1u);
  EXPECT_EQ(r.answers[0].type(), dns::RRType::kCNAME);
}

TEST_F(AuthServerTest, RefusedOutsideServedZones) {
  auto r = Ask("example.com", dns::RRType::kA);
  EXPECT_EQ(r.header.rcode, dns::Rcode::kRefused);
}

TEST_F(AuthServerTest, FormErrOnMultiQuestion) {
  dns::Message q = dns::MakeQuery(1, Name::FromString("www.gov.cn"),
                                  dns::RRType::kA);
  q.questions.push_back(q.questions[0]);
  EXPECT_EQ(Decoded(server_.Answer(q)).header.rcode, dns::Rcode::kFormErr);
}

TEST_F(AuthServerTest, MostSpecificZoneWins) {
  auto moe = std::make_shared<Zone>(Name::FromString("moe.gov.cn"));
  moe->Add(MakeNs(moe->origin(), Name::FromString("ns1.moe.gov.cn")));
  moe->Add(MakeA(Name::FromString("www.moe.gov.cn"), geo::IPv4(10, 9, 9, 9)));
  moe->Seal();
  server_.AddZone(moe);
  auto r = Ask("www.moe.gov.cn", dns::RRType::kA);
  EXPECT_TRUE(r.header.aa);  // answered from the child zone, not a referral
  ASSERT_EQ(r.answers.size(), 1u);
}

TEST_F(AuthServerTest, RemoveZoneCausesRefused) {
  server_.RemoveZone(Name::FromString("gov.cn"));
  auto r = Ask("www.gov.cn", dns::RRType::kA);
  EXPECT_EQ(r.header.rcode, dns::Rcode::kRefused);
}

TEST(AuthServerModesTest, RefuseAllIsLame) {
  AuthServer server("lame.example", ServerMode::kRefuseAll);
  server.AddZone(GovCnZone());
  auto r = AskServer(server, "www.gov.cn", dns::RRType::kA);
  EXPECT_EQ(r.header.rcode, dns::Rcode::kRefused);
}

TEST(AuthServerModesTest, NoAuthBitAnswersWithoutAa) {
  AuthServer server("stealth.example", ServerMode::kNoAuthBit);
  server.AddZone(GovCnZone());
  auto r = AskServer(server, "www.gov.cn", dns::RRType::kA);
  EXPECT_EQ(r.header.rcode, dns::Rcode::kNoError);
  EXPECT_FALSE(r.header.aa);
  EXPECT_EQ(r.answers.size(), 1u);
}

TEST(AuthServerModesTest, ParkingAnswersEverything) {
  AuthServer server("ns1.parkmonster.com", ServerMode::kParking);
  server.SetParkingAddresses({geo::IPv4(203, 0, 113, 10)});
  auto a = AskServer(server, "whatever.example", dns::RRType::kA);
  EXPECT_TRUE(a.header.aa);
  ASSERT_EQ(a.answers.size(), 1u);
  EXPECT_EQ(RdataToString(a.answers[0].rdata), "203.0.113.10");

  auto ns = AskServer(server, "whatever.example", dns::RRType::kNS);
  ASSERT_EQ(ns.answers.size(), 1u);
  EXPECT_EQ(RdataToString(ns.answers[0].rdata), "ns1.parkmonster.com");
}

// ---------------------------------------------------------------------------
// The wire answer path against the Message-building server it replaced
// ---------------------------------------------------------------------------

// The response skeleton the former AuthServer started from (MakeResponse as
// it was), kept here so the oracle does not share dns::ResponseHeader with
// the server it checks.
dns::Message ReferenceResponse(const dns::Message& query, dns::Rcode rcode) {
  dns::Message msg;
  msg.header.id = query.header.id;
  msg.header.qr = true;
  msg.header.rd = query.header.rd;
  msg.header.rcode = rcode;
  msg.questions = query.questions;
  return msg;
}

// The former AuthServer, kept as the oracle: it copies the records of each
// reply into a response Message, which Message::Encode (itself checked
// against the previous encoder by wire_test's WireCodecOracle) turns into
// the reference bytes.
class ReferenceServer {
 public:
  ReferenceServer(std::string host_id, ServerMode mode)
      : host_id_(std::move(host_id)), mode_(mode) {}

  void AddZone(std::shared_ptr<const Zone> zone) {
    dns::Name origin = zone->origin();
    zones_[std::move(origin)] = std::move(zone);
  }
  void SetParkingAddresses(std::vector<geo::IPv4> addresses) {
    parking_addresses_ = std::move(addresses);
  }

  dns::Message Answer(const dns::Message& query) const {
    if (query.questions.size() != 1) {
      return ReferenceResponse(query, dns::Rcode::kFormErr);
    }
    if (mode_ == ServerMode::kRefuseAll) {
      return ReferenceResponse(query, dns::Rcode::kRefused);
    }
    if (mode_ == ServerMode::kParking) return AnswerParking(query);
    const Zone* zone = FindBestZone(query.questions.front().name);
    if (zone == nullptr) return ReferenceResponse(query, dns::Rcode::kRefused);
    dns::Message response = AnswerFromZone(*zone, query);
    if (mode_ == ServerMode::kNoAuthBit) response.header.aa = false;
    return response;
  }

 private:
  const Zone* FindBestZone(const Name& qname) const {
    for (size_t count = qname.LabelCount(); count + 1 > 0; --count) {
      auto it = zones_.find(qname.Suffix(count));
      if (it != zones_.end()) return it->second.get();
    }
    return nullptr;
  }

  dns::Message AnswerFromZone(const Zone& zone,
                              const dns::Message& query) const {
    const dns::Question& q = query.questions.front();
    if (auto cut = zone.FindDelegation(q.name)) {
      dns::Message response = ReferenceResponse(query, dns::Rcode::kNoError);
      response.header.aa = false;
      const auto ns_rrs = zone.Find(*cut, dns::RRType::kNS);
      response.authority.assign(ns_rrs.begin(), ns_rrs.end());
      for (const auto& ns_rr : ns_rrs) {
        const Name& target = std::get<dns::NsRdata>(ns_rr.rdata).nameserver;
        if (!target.IsSubdomainOf(zone.origin())) continue;
        const auto glue = zone.Find(target, dns::RRType::kA);
        response.additional.insert(response.additional.end(), glue.begin(),
                                   glue.end());
      }
      return response;
    }
    dns::Message response = ReferenceResponse(query, dns::Rcode::kNoError);
    response.header.aa = true;
    const auto rrs = zone.Find(q.name, q.type);
    if (!rrs.empty()) {
      response.answers.assign(rrs.begin(), rrs.end());
      return response;
    }
    const auto cnames = zone.Find(q.name, dns::RRType::kCNAME);
    if (!cnames.empty() && q.type != dns::RRType::kCNAME) {
      response.answers.assign(cnames.begin(), cnames.end());
      return response;
    }
    if (!zone.NameExists(q.name)) response.header.rcode = dns::Rcode::kNxDomain;
    if (auto soa = zone.Soa()) response.authority.push_back(*std::move(soa));
    return response;
  }

  dns::Message AnswerParking(const dns::Message& query) const {
    const dns::Question& q = query.questions.front();
    dns::Message response = ReferenceResponse(query, dns::Rcode::kNoError);
    response.header.aa = true;
    if (q.type == dns::RRType::kA) {
      for (geo::IPv4 addr : parking_addresses_) {
        response.answers.push_back(dns::MakeA(q.name, addr, 300));
      }
    } else if (q.type == dns::RRType::kNS) {
      auto self = Name::Parse(host_id_);
      if (self.ok()) {
        response.answers.push_back(dns::MakeNs(q.name, *self, 300));
      }
    }
    return response;
  }

  std::string host_id_;
  ServerMode mode_;
  std::map<Name, std::shared_ptr<const Zone>> zones_;
  std::vector<geo::IPv4> parking_addresses_;
};

constexpr ServerMode kAllModes[] = {ServerMode::kNormal, ServerMode::kRefuseAll,
                                    ServerMode::kNoAuthBit,
                                    ServerMode::kParking};
constexpr dns::RRType kOracleTypes[] = {dns::RRType::kNS, dns::RRType::kA,
                                        dns::RRType::kSOA, dns::RRType::kCNAME,
                                        dns::RRType::kMX};

// A server and its reference holding the same zones, in every mode.
class OraclePair {
 public:
  explicit OraclePair(ServerMode mode)
      : server_("ns1.oracle.example", mode),
        reference_("ns1.oracle.example", mode) {
    const std::vector<geo::IPv4> parking = {geo::IPv4(203, 0, 113, 10),
                                            geo::IPv4(203, 0, 113, 11)};
    server_.SetParkingAddresses(parking);
    reference_.SetParkingAddresses(parking);
  }

  void AddZone(const std::shared_ptr<const Zone>& zone) {
    server_.AddZone(zone);
    reference_.AddZone(zone);
  }

  // Asks both every oracle type at `name`, with varying ids and RD bits;
  // returns the number of replies compared.
  size_t ExpectSameReplies(const Name& name) {
    size_t compared = 0;
    for (dns::RRType type : kOracleTypes) {
      dns::Message query = dns::MakeQuery(next_id_, name, type);
      query.header.rd = (next_id_ & 1) != 0;
      ++next_id_;
      ExpectSameReply(query);
      ++compared;
    }
    return compared;
  }

  void ExpectSameReply(const dns::Message& query) {
    const std::vector<uint8_t> wire = server_.Answer(query);
    const std::vector<uint8_t> want = reference_.Answer(query).Encode();
    ASSERT_EQ(wire, want) << query.ToString();
  }

 private:
  AuthServer server_;
  ReferenceServer reference_;
  uint16_t next_id_ = 1;
};

// Every owner name of a zone, a name below each of its cuts, and a missing
// name.
std::vector<Name> OracleNames(const Zone& zone) {
  std::vector<Name> names;
  zone.ForEachRecord([&](const dns::ResourceRecord& rr) {
    if (!names.empty() && names.back() == rr.name) return;
    names.push_back(rr.name);
    if (rr.type() == dns::RRType::kNS && rr.name != zone.origin()) {
      names.push_back(rr.name.Child("below-cut"));
    }
  });
  names.push_back(zone.origin().Child("missing-name"));
  return names;
}

// A zone with a CNAME owner, an MX, a TXT and a delegation with glue, next
// to the shapes generated worlds hold.
std::shared_ptr<Zone> OracleExtrasZone() {
  auto z = GovCnZone();
  auto extras = std::make_shared<Zone>(z->origin());
  z->ForEachRecord([&](const dns::ResourceRecord& rr) { extras->Add(rr); });
  extras->Add(dns::ResourceRecord{Name::FromString("gov.cn"), dns::RRClass::kIN,
                                  600,
                                  dns::MxRdata{10, Name::FromString(
                                                       "mail.gov.cn")}});
  extras->Add(MakeCname(Name::FromString("mail.gov.cn"),
                        Name::FromString("mx.provider.example")));
  extras->Add(dns::MakeTxt(Name::FromString("www.gov.cn"), "v=spf1 -all"));
  extras->Seal();
  return extras;
}

TEST(AuthServerOracle, WorldRepliesMatchReference) {
  worldgen::WorldConfig config;
  config.scale = 0.02;
  const auto world = worldgen::BuildWorld(config);
  std::vector<std::shared_ptr<const Zone>> zones(world->zones().begin(),
                                                 world->zones().end());
  zones.push_back(OracleExtrasZone());
  size_t compared = 0;
  for (ServerMode mode : kAllModes) {
    for (const auto& zone : zones) {
      OraclePair pair(mode);
      pair.AddZone(zone);
      for (const Name& name : OracleNames(*zone)) {
        compared += pair.ExpectSameReplies(name);
        if (::testing::Test::HasFatalFailure()) return;
      }
      // Outside every zone the server holds.
      compared += pair.ExpectSameReplies(Name::FromString("elsewhere.example"));
    }
  }
  EXPECT_GT(compared, 4u * 5u * world->zone_count());
}

TEST(AuthServerOracle, ParentAndChildOnOneServer) {
  worldgen::WorldConfig config;
  config.scale = 0.02;
  const auto world = worldgen::BuildWorld(config);
  std::map<Name, std::shared_ptr<const Zone>> by_origin;
  for (const auto& zone : world->zones()) by_origin[zone->origin()] = zone;
  // Each generated zone with every generated child zone of it: one server
  // holds the whole family, so most names match among several origins.
  std::map<Name, std::vector<std::shared_ptr<const Zone>>> families;
  for (const auto& [origin, zone] : by_origin) {
    if (origin.IsRoot()) continue;
    auto parent = by_origin.find(origin.Parent());
    if (parent == by_origin.end()) continue;
    auto& family = families[parent->first];
    if (family.empty()) family.push_back(parent->second);
    family.push_back(zone);
  }
  ASSERT_FALSE(families.empty());
  // And a hand-made pair whose child holds names below the parent's cut.
  auto moe = std::make_shared<Zone>(Name::FromString("moe.gov.cn"));
  moe->Add(MakeSoa(moe->origin(), Name::FromString("ns1.moe.gov.cn"),
                   Name::FromString("hostmaster.moe.gov.cn"), 7));
  moe->Add(MakeNs(moe->origin(), Name::FromString("ns1.moe.gov.cn")));
  moe->Add(MakeA(Name::FromString("ns1.moe.gov.cn"), geo::IPv4(10, 0, 1, 1)));
  moe->Add(MakeA(Name::FromString("www.moe.gov.cn"), geo::IPv4(10, 9, 9, 9)));
  moe->Seal();
  families[moe->origin()] = {OracleExtrasZone(), moe};

  for (ServerMode mode : kAllModes) {
    for (const auto& [origin, family] : families) {
      OraclePair pair(mode);
      for (const auto& zone : family) pair.AddZone(zone);
      for (const auto& zone : family) {
        for (const Name& name : OracleNames(*zone)) {
          pair.ExpectSameReplies(name);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(AuthServerOracle, QuestionCountsOtherThanOne) {
  for (ServerMode mode : kAllModes) {
    OraclePair pair(mode);
    pair.AddZone(GovCnZone());
    dns::Message none = dns::MakeQuery(9, Name::FromString("www.gov.cn"),
                                       dns::RRType::kA);
    none.questions.clear();
    pair.ExpectSameReply(none);
    dns::Message two = dns::MakeQuery(10, Name::FromString("www.gov.cn"),
                                      dns::RRType::kA);
    two.questions.push_back({Name::FromString("moe.gov.cn"), dns::RRType::kNS,
                             dns::RRClass::kIN});
    pair.ExpectSameReply(two);
  }
}

}  // namespace
}  // namespace govdns::zone
