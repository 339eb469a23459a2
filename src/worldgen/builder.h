// Internal state shared by the world-generation phases (see generate_*.cc).
// Not part of the public worldgen API.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "geo/asn_db.h"
#include "util/rng.h"
#include "worldgen/world.h"
#include "zone/auth_server.h"
#include "zone/zone.h"

namespace govdns::worldgen {

// Per-country lazily-grown address pool: a handful of "government network"
// ASN groups, each a growing list of /24 blocks. Diversity sampling asks
// for addresses in the same /24, a fresh /24 in the same ASN, or a
// different ASN entirely.
class CountryAddressPool {
 public:
  CountryAddressPool() = default;
  void Init(geo::AddressAllocator* alloc, std::string org, int asn_groups);

  // An address in group `g`; `fresh_prefix` forces a /24 not handed out by
  // the immediately preceding call in that group.
  geo::IPv4 Take(int group, bool fresh_prefix);

  int groups() const { return static_cast<int>(groups_.size()); }

 private:
  struct Group {
    std::vector<geo::Cidr> blocks;
    uint32_t asn = 0;
    int cursor_block = 0;
    uint32_t cursor_host = 0;
  };
  geo::AddressAllocator* alloc_ = nullptr;
  std::string org_;
  std::vector<Group> groups_;
};

struct ProviderRuntime {
  const ProviderSpec* spec = nullptr;
  bool alive_2021 = false;
  zone::AuthServer* farm = nullptr;  // null for dead providers
  std::vector<dns::Name> hostnames;
  std::vector<geo::IPv4> hostname_ips;
  // Live customer domain ids (lazily compacted).
  std::vector<int> customers;
  int customer_count = 0;
};

struct CompanyRuntime {
  int country = -1;
  int index_in_country = -1;
  zone::AuthServer* farm = nullptr;  // null for dead companies
  std::vector<geo::IPv4> ns_ips;
  std::vector<int> customers;
  int customer_count = 0;
  std::vector<int> lingering;  // customers that never migrated away
};

// Mutable per-domain generation state beyond what DomainTruth records.
struct DomainGenState {
  bool alive = false;
  bool is_apex = false;  // the d_gov suffix zone itself
  int provider = -1;          // current global provider
  int company = -1;           // current national company (global index)
  bool is_single_ns = false;
  bool lingering_on_dead_company = false;
  int intermediate = -1;      // index into country's intermediates, -1 = none
  bool intermediate_dead = false;
};

struct World::Builder {
  explicit Builder(World& world);

  void Build();

  // --- Phases --------------------------------------------------------------
  void ComputeTargets();
  void SelectRiskCountries();
  void BuildRootAndTlds();
  void BuildProviderInfra();
  void BuildCountryInfra();
  void GenerateLifecyclesAndDeployments();
  void PlanMeasurementState();
  void PopulatePdns();
  void BuildActiveInfrastructure();
  void FinalizeRegistrar();
  void ApplyCountryFaults();
  void RecordNsHosts();
  void SealZonesAndIndexDomains();

  // --- Infrastructure helpers ----------------------------------------------
  std::shared_ptr<zone::Zone> NewZone(const dns::Name& origin);
  zone::Zone* FindZone(const dns::Name& origin);
  zone::AuthServer* NewServer(const std::string& id,
                              zone::ServerMode mode = zone::ServerMode::kNormal);
  // Registers `hostname` at `ips`: attaches the server handler to each
  // address on the network.
  void AttachHost(const dns::Name& hostname, zone::AuthServer* server,
                  std::vector<geo::IPv4> ips);
  // NS records for `child` in `parent` + A glue for in-bailiwick targets.
  void Delegate(zone::Zone* parent, const dns::Name& child,
                const std::vector<dns::Name>& ns_names);

  // --- Deployment helpers --------------------------------------------------
  struct NsAssignment {
    DeployStyle style = DeployStyle::kPrivate;
    int provider = -1;
    int company = -1;  // global company index
    bool vanity = false;
    std::vector<dns::Name> ns_names;
  };
  NsAssignment AssignPrivate(int domain_id, int year, util::Rng& rng);
  NsAssignment AssignNational(int domain_id, int year, util::Rng& rng);
  NsAssignment AssignProvider(int domain_id, int provider, util::Rng& rng);
  void ApplyAssignment(int domain_id, const NsAssignment& a,
                       util::CivilDay day);
  int SampleNsCount(util::Rng& rng);

  // Target number of PDNS-visible domains for country c in year y.
  double TargetFor(int country, int year) const;

  // --- Data ---------------------------------------------------------------
  World& w;
  const WorldConfig& cfg;
  util::Rng rng;
  geo::AddressAllocator alloc;

  std::map<dns::Name, std::shared_ptr<zone::Zone>> zones;
  struct HostRecord {
    zone::AuthServer* server = nullptr;
    std::vector<geo::IPv4> ips;
  };
  std::map<dns::Name, HostRecord> hosts;

  std::vector<ProviderRuntime> providers;
  std::vector<CompanyRuntime> companies;  // global list
  std::vector<CountryAddressPool> country_pools;
  std::vector<std::vector<int>> country_company_ids;  // per-country indices
  // Per country: Zipf(1.0) over its companies, the national-hosting pick.
  std::vector<util::ZipfTable> company_zipf;
  std::vector<std::vector<int>> country_active;       // live domain ids
  std::vector<DomainGenState> gen_state;

  // Per-country, per-year-offset targets.
  std::vector<std::vector<double>> targets;

  // Countries allowed to have registrable dangling NS domains (the 49).
  std::set<int> available_ns_countries;
  // Countries hosting the aftermarket-parked cases (the 7).
  std::set<int> parked_countries;

  // The parking service (answers everything) used by squatted/parked names.
  zone::AuthServer* parking_farm = nullptr;
  std::vector<geo::IPv4> parking_ips;
  dns::Name parking_ns1, parking_ns2;

  // Active domains whose parent NS reference a parked company: domain id ->
  // global company index.
  std::map<int, int> parked_assignments;
  // Per-country dead flags for intermediate zones.
  std::vector<std::vector<char>> intermediate_dead;

  int year_count = 0;
};

}  // namespace govdns::worldgen
