// The generated world: every substrate instance plus ground truth.
//
// World is what the paper's authors faced: a DNS ecosystem reachable only
// through queries (simnet), a passive-DNS database (pdns), a GeoIP ASN
// database (geo), and a registrar (registrar) — plus, because this is a
// simulation, the generator's ground truth, which the tests use to verify
// that the measurement pipeline recovers what was planted. Analysis code
// must not read ground truth; it sees only the substrate interfaces.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dns/name.h"
#include "geo/asn_db.h"
#include "pdns/db.h"
#include "registrar/registrar.h"
#include "registrar/suffix.h"
#include "simnet/network.h"
#include "util/civil_time.h"
#include "worldgen/config.h"
#include "worldgen/countries.h"
#include "worldgen/providers.h"
#include "zone/auth_server.h"

namespace govdns::worldgen {

enum class DeployStyle : uint8_t {
  kPrivate,   // NS inside the country's own government namespace
  kNational,  // a domestic hosting company
  kGlobal,    // one of the named third-party providers
};

// Measurement-time condition of a domain (April 2021).
enum class DomainFate : uint8_t {
  kActive,          // parent delegates, child servers answer
  kStaleDelegation, // parent records remain, child servers gone (fully lame)
  kRemoved,         // parent answers but the delegation was deleted
  kDeadParent,      // the parent zone's own servers are gone
};

// Planned parent/child NS-set relation for a responsive domain (Fig. 13).
enum class ConsistencyPlan : uint8_t {
  kEqual,
  kChildSuperset,    // P subset of C
  kParentSuperset,   // C subset of P
  kOverlapNeither,   // intersect, neither contains the other
  kDisjointSharedIp, // disjoint NS names resolving to common addresses
  kDisjoint,         // disjoint, different addresses
};

// One period during which a domain's NS set was constant (PDNS history).
struct NsEpoch {
  util::DayInterval days;
  DeployStyle style = DeployStyle::kPrivate;
  int provider = -1;          // index into Providers() when kGlobal
  int national_company = -1;  // index into the country's companies
  // Provider-hosted but fronted by vanity NS names in the customer's own
  // zone; only the SOA MNAME betrays the provider.
  bool vanity = false;
  std::vector<dns::Name> ns_names;
};

struct DomainTruth {
  dns::Name name;
  int country = -1;
  int level = 3;  // DNS hierarchy level of the name (label count)
  util::CivilDay birth = 0;
  // Day after which the domain was abandoned; kAliveForever if still used.
  util::CivilDay death = 0;
  std::vector<NsEpoch> epochs;

  // Measurement-time plan.
  bool in_query_list = false;      // seen in the PDNS window
  bool disposable_excluded = false;
  DomainFate fate = DomainFate::kActive;
  bool partial_lame = false;       // >=1 parent-listed NS does not serve it
  bool typo_parent_ns = false;     // parent lists a typo'd NS hostname
  bool dangling_available_ns = false;  // references a registrable d_ns
  // Parent NS point at an expired provider domain now held by a parking
  // service that answers everything (the paper's §IV-D aftermarket cases).
  bool parked_ns_ref = false;
  ConsistencyPlan consistency = ConsistencyPlan::kEqual;
  bool relative_name_truncation = false;

  bool Alive(util::CivilDay day) const { return birth <= day && day < death; }
};

inline constexpr util::CivilDay kAliveForever = 0x3FFFFFFF;

// A domestic hosting company.
struct NationalCompany {
  dns::Name domain;             // e.g. thaihost3.co.th
  std::vector<dns::Name> ns_names;
  int first_year = 2011;
  int last_year = 0;            // 0 = still operating
  bool dead_and_available = false;  // expired: its domain can be registered
  bool dead_and_parked = false;     // expired: aftermarket parking answers
  // Topology sampled from the country's diversity profile at creation.
  int num_ips = 2;
  int num_prefixes = 2;
  int num_asns = 1;
};

// What the UN Knowledge Base page (plus the member-state questionnaire)
// says about a country — including the broken/squatted link quirks the
// paper describes in §III-A.
struct KnowledgeBaseEntry {
  int country = -1;
  dns::Name portal_fqdn;                 // from the KB link
  bool link_resolves = true;             // 11 countries: false
  std::optional<dns::Name> msq_fqdn;     // questionnaire entry, if any
  bool link_squatted = false;            // third party serving ads
};

// Registry policy documentation (what the paper dug out of IANA's root DB
// and registrar docs): is this suffix restricted to government use?
struct RegistryPolicyDb {
  std::map<dns::Name, bool> restricted;

  // nullopt: no documentation found (the paper's gov.la/gov.tl/gov.jm case).
  std::optional<bool> IsRestricted(const dns::Name& suffix) const {
    auto it = restricted.find(suffix);
    if (it == restricted.end()) return std::nullopt;
    return it->second;
  }
};

// One attached nameserver host: its DNS hostname and the addresses it
// answers on. Recorded by the builder (in hostname order) so post-build
// overlays — World::ApplyVantage — can re-afflict endpoints without access
// to the builder's internal state.
struct NsHost {
  dns::Name hostname;
  std::vector<geo::IPv4> ips;
};

struct CountryRuntime {
  dns::Name suffix;        // gov.cn / gob.mx / regjeringen.no ...
  dns::Name portal_fqdn;   // www.<portal>
  std::vector<NationalCompany> companies;
  std::vector<dns::Name> intermediate_zones;       // live (sp.gov.br, ...)
  std::vector<dns::Name> dead_intermediate_zones;  // parents that vanished
  // Shared government DNS hosts (central NIC-style infrastructure).
  std::vector<dns::Name> central_ns;
  // The country-wide "shared dead NS" incident host, if any.
  std::optional<dns::Name> shared_dead_ns;
  std::vector<double> domains_per_year;  // index 0 = first_year
};

class World {
 public:
  explicit World(WorldConfig config);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  const WorldConfig& config() const { return config_; }

  // --- Substrates (what analysis code is allowed to touch) ---------------
  simnet::SimNetwork& network() { return *network_; }
  const pdns::PdnsSnapshot& pdns_db() const { return pdns_; }
  const geo::AsnDatabase& asn_db() const { return asn_db_; }
  const registrar::SimRegistrar& registrar_client() const { return registrar_; }
  registrar::SimRegistrar& mutable_registrar() { return registrar_; }
  const registrar::PublicSuffixList& psl() const { return psl_; }
  registrar::PublicSuffixList& mutable_psl() { return psl_; }
  const std::vector<KnowledgeBaseEntry>& knowledge_base() const {
    return knowledge_base_;
  }
  const RegistryPolicyDb& registry_policy() const { return registry_policy_; }
  // Root nameserver addresses — the resolver's priming hints.
  const std::vector<geo::IPv4>& root_server_ips() const {
    return root_server_ips_;
  }
  // Every attached nameserver host, in hostname order.
  const std::vector<NsHost>& ns_hosts() const { return ns_hosts_; }

  // Overlays one vantage's network view on the built world (DESIGN.md
  // §6k): `profile.chaos` afflicts every nameserver endpoint once (shared
  // addresses are deduplicated), then each country override afflicts the
  // hosts under that country's government suffix, mirroring the builder's
  // ApplyCountryFaults. Draws are seeded by HashString(profile.name, ...)
  // — a pure function of (vantage name, world seed, address) — so two
  // vantages never share a realization and adding one never perturbs
  // another's. A benign profile (no afflictions) leaves the network
  // byte-identical to the base world. Not idempotent: call at most once
  // per World instance.
  void ApplyVantage(const VantageProfile& profile);

  // --- Ground truth (tests and report annotation only) -------------------
  const std::vector<DomainTruth>& domains() const { return domains_; }
  const std::vector<CountryRuntime>& country_runtime() const {
    return country_rt_;
  }
  const DomainTruth* FindDomain(const dns::Name& name) const;

  // --- Generator internals (used by generate.cc) --------------------------
  struct Builder;

  size_t server_count() const { return servers_.size(); }
  size_t zone_count() const { return zones_.size(); }
  // Every zone, sealed, in creation order (tests pin the zone image).
  const std::vector<std::shared_ptr<zone::Zone>>& zones() const {
    return zones_;
  }

 private:
  friend struct Builder;

  WorldConfig config_;
  std::unique_ptr<simnet::SimNetwork> network_;
  pdns::PdnsSnapshot pdns_;
  geo::AsnDatabase asn_db_;
  registrar::SimRegistrar registrar_;
  registrar::PublicSuffixList psl_;
  RegistryPolicyDb registry_policy_;
  std::vector<KnowledgeBaseEntry> knowledge_base_;
  std::vector<geo::IPv4> root_server_ips_;
  std::vector<NsHost> ns_hosts_;

  std::vector<DomainTruth> domains_;
  // Indices into domains_, stably sorted by name; built once at the end of
  // the build.
  std::vector<int> domain_index_;
  std::vector<CountryRuntime> country_rt_;

  // Owning containers for the simulated infrastructure.
  std::vector<std::unique_ptr<zone::AuthServer>> servers_;
  std::vector<std::shared_ptr<zone::Zone>> zones_;
};

// Builds a complete world from the configuration. Deterministic in
// config.seed: identical configs produce identical worlds.
std::unique_ptr<World> BuildWorld(const WorldConfig& config);

// The default vantage roster used by `govdns_study --vantages N`: vantage 0
// ("v0-base") is entirely benign — its view IS the classic single-vantage
// study — and later vantages see progressively flakier paths (jitter, loss
// flaps, and for index >= 2 regional rate limiting), exercising the
// disagreement analysis without drowning it.
VantageProfile MakeDefaultVantageProfile(int index);

// The largest default roster: indices [0, kMaxDefaultVantages) keep every
// affliction probability of MakeDefaultVantageProfile at or below 1 (the
// jitter share, 0.05 per index, reaches 1 at index 20).
inline constexpr int kMaxDefaultVantages = 21;

}  // namespace govdns::worldgen
