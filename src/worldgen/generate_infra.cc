// World generation, phase 1: targets, global DNS infrastructure (root,
// TLDs, providers, parking service) and per-country infrastructure
// (ccTLD + suffix zones, registries, national hosting companies,
// knowledge-base entries).
#include <algorithm>
#include <cmath>
#include <future>
#include <numeric>

#include "util/strings.h"
#include "worldgen/builder.h"

namespace govdns::worldgen {

namespace {


// Words used to mint national hosting-company names.
constexpr const char* kHostWords[] = {
    "webhost", "dnspro",  "hostline", "netserv", "datapark", "zonehub",
    "nethost", "sitebox", "domainex", "servnet",  "hostwave", "netcore",
    "webzone", "dnsland", "hostpark", "clouddom", "netpoint", "webgrid",
};

}  // namespace

// ---------------------------------------------------------------------------
// CountryAddressPool
// ---------------------------------------------------------------------------

void CountryAddressPool::Init(geo::AddressAllocator* alloc, std::string org,
                              int asn_groups) {
  GOVDNS_CHECK(alloc != nullptr && asn_groups >= 1);
  alloc_ = alloc;
  org_ = std::move(org);
  groups_.resize(asn_groups);
}

geo::IPv4 CountryAddressPool::Take(int group, bool fresh_prefix) {
  GOVDNS_CHECK(alloc_ != nullptr);
  GOVDNS_CHECK(group >= 0 && group < static_cast<int>(groups_.size()));
  Group& g = groups_[group];
  if (g.blocks.empty()) {
    g.blocks.push_back(alloc_->AllocateBlock(24, org_));
    g.asn = alloc_->last_asn();
    g.cursor_host = 0;
  }
  if (fresh_prefix) {
    // Move to a new /24 in this group. Never reuse an earlier block: two
    // hosts sharing an address would silently shadow each other's servers.
    g.blocks.push_back(alloc_->AllocateBlock(24, org_, g.asn));
    g.cursor_block = static_cast<int>(g.blocks.size()) - 1;
    g.cursor_host = 0;
  }
  Group& gg = groups_[group];
  if (gg.cursor_host + 2 >= gg.blocks[gg.cursor_block].size()) {
    // Current block exhausted: continue in a fresh one (same ASN).
    gg.blocks.push_back(alloc_->AllocateBlock(24, org_, gg.asn));
    gg.cursor_block = static_cast<int>(gg.blocks.size()) - 1;
    gg.cursor_host = 0;
  }
  const geo::Cidr& block = gg.blocks[gg.cursor_block];
  return geo::AddressAllocator::HostInBlock(block, gg.cursor_host++);
}

// ---------------------------------------------------------------------------
// Builder basics
// ---------------------------------------------------------------------------

World::Builder::Builder(World& world)
    : w(world),
      cfg(world.config_),
      rng(world.config_.seed),
      alloc(&world.asn_db_) {}

void World::Builder::Build() {
  year_count = cfg.last_year - cfg.first_year + 1;
  ComputeTargets();
  SelectRiskCountries();
  BuildRootAndTlds();
  BuildProviderInfra();
  BuildCountryInfra();
  GenerateLifecyclesAndDeployments();
  PlanMeasurementState();
  // Passive DNS builds on a second thread while this one builds the active
  // infrastructure (DESIGN.md §6m). PopulatePdns writes only w.pdns_ and
  // its own RNG stream; it reads the domain truth, gen_state, the country
  // runtime, the targets and the config, and no step below writes any of
  // them. get() joins the task and rethrows its exception, if any; should
  // a step below throw first, the future's destructor still waits for the
  // task before the world it writes is destroyed.
  std::future<void> pdns =
      std::async(std::launch::async, [this] { PopulatePdns(); });
  BuildActiveInfrastructure();
  FinalizeRegistrar();
  ApplyCountryFaults();
  RecordNsHosts();
  SealZonesAndIndexDomains();
  pdns.get();
}

void World::Builder::SealZonesAndIndexDomains() {
  for (const auto& zone : w.zones_) zone->Seal();
  w.domain_index_.resize(w.domains_.size());
  std::iota(w.domain_index_.begin(), w.domain_index_.end(), 0);
  std::stable_sort(w.domain_index_.begin(), w.domain_index_.end(),
                   [this](int a, int b) {
                     return w.domains_[a].name < w.domains_[b].name;
                   });
}

void World::Builder::RecordNsHosts() {
  // Snapshot the attached-host table into the World so post-build overlays
  // (World::ApplyVantage) can find every nameserver endpoint. `hosts` is a
  // std::map, so the snapshot is in hostname order — deterministic across
  // runs and vantages.
  w.ns_hosts_.clear();
  w.ns_hosts_.reserve(hosts.size());
  for (const auto& [hostname, record] : hosts) {
    w.ns_hosts_.push_back(NsHost{hostname, record.ips});
  }
}

void World::Builder::ApplyCountryFaults() {
  // Per-country fault overlays (DESIGN.md §6g), layered after every host is
  // wired so the base chaos realization is undisturbed. Only hosts under the
  // country's own government suffix are afflicted: shared provider farms
  // keep their behaviour, so other countries' measurements stay
  // byte-identical to a fault-free run.
  for (const WorldConfig::CountryChaos& fault : cfg.country_chaos) {
    if (!fault.chaos.Any()) continue;
    int country = CountryIndexByCode(fault.code);
    if (country < 0 ||
        country >= static_cast<int>(w.country_rt_.size())) {
      continue;
    }
    const dns::Name& suffix = w.country_rt_[country].suffix;
    for (const auto& [hostname, record] : hosts) {
      if (!hostname.IsSubdomainOf(suffix)) continue;
      for (geo::IPv4 ip : record.ips) {
        w.network_->SetBehavior(
            ip, fault.chaos.Realize(cfg.seed, ip,
                                    w.network_->GetBehavior(ip)));
      }
    }
  }
}

std::shared_ptr<zone::Zone> World::Builder::NewZone(const dns::Name& origin) {
  auto z = std::make_shared<zone::Zone>(origin);
  zones[origin] = z;
  w.zones_.push_back(z);
  return z;
}

zone::Zone* World::Builder::FindZone(const dns::Name& origin) {
  auto it = zones.find(origin);
  return it == zones.end() ? nullptr : it->second.get();
}

zone::AuthServer* World::Builder::NewServer(const std::string& id,
                                            zone::ServerMode mode) {
  w.servers_.push_back(std::make_unique<zone::AuthServer>(id, mode));
  return w.servers_.back().get();
}

void World::Builder::AttachHost(const dns::Name& hostname,
                                zone::AuthServer* server,
                                std::vector<geo::IPv4> ips) {
  GOVDNS_CHECK(server != nullptr && !ips.empty());
  for (geo::IPv4 ip : ips) {
    w.network_->AttachHandler(
        ip, [server](const std::vector<uint8_t>& wire_query) {
          auto query = dns::Message::Decode(wire_query);
          if (!query.ok()) {
            // Garbage in: a real server would send FORMERR with id 0.
            dns::Message err;
            err.header.qr = true;
            err.header.rcode = dns::Rcode::kFormErr;
            return err.Encode();
          }
          return server->Answer(*query);
        });
    w.network_->SetBehavior(
        ip, cfg.chaos.Realize(
                cfg.seed, ip,
                simnet::EndpointBehavior{.silent = false,
                                         .loss_rate = cfg.base_loss_rate,
                                         .rtt_ms = cfg.rtt_ms_base}));
  }
  hosts[hostname] = HostRecord{server, std::move(ips)};
}

void World::Builder::Delegate(zone::Zone* parent, const dns::Name& child,
                              const std::vector<dns::Name>& ns_names) {
  GOVDNS_CHECK(parent != nullptr);
  for (const dns::Name& ns : ns_names) {
    parent->Add(dns::MakeNs(child, ns, 86400));
    // Glue where required: NS target inside the delegated subtree (or at
    // least inside the parent zone's bailiwick below the cut).
    if (ns.IsSubdomainOf(child)) {
      auto it = hosts.find(ns);
      if (it != hosts.end()) {
        for (geo::IPv4 ip : it->second.ips) {
          parent->Add(dns::MakeA(ns, ip, 86400));
        }
      }
    }
  }
}

double World::Builder::TargetFor(int country, int year) const {
  int offset = year - cfg.first_year;
  GOVDNS_CHECK(offset >= 0 && offset < year_count);
  return targets[country][offset];
}

// ---------------------------------------------------------------------------
// Targets (Fig. 2 calibration)
// ---------------------------------------------------------------------------

void World::Builder::ComputeTargets() {
  auto countries = Countries();
  const int n = static_cast<int>(countries.size());
  targets.assign(n, std::vector<double>(year_count, 0.0));

  // Global anchors at scale 1.0.
  const double total_2020 = cfg.total_domains_2020;
  const double start_ratio = cfg.total_domains_2011 / cfg.total_domains_2020;

  double explicit_2020 = 0.0;
  double weight_sum = 0.0;
  for (const CountrySpec& c : countries) {
    if (c.explicit_target) {
      explicit_2020 += c.pdns_2020_weight;
    } else {
      weight_sum += c.pdns_2020_weight;
    }
  }
  const double rest_budget_2020 = total_2020 - explicit_2020;
  GOVDNS_CHECK(rest_budget_2020 > 0.0);

  const int cn = CountryIndexByCode("cn");
  for (int i = 0; i < n; ++i) {
    const CountrySpec& c = countries[i];
    double t2020 = c.explicit_target
                       ? c.pdns_2020_weight
                       : c.pdns_2020_weight / weight_sum * rest_budget_2020;
    double t2011 = t2020 * start_ratio;
    for (int y = 0; y < year_count; ++y) {
      double frac = year_count == 1 ? 1.0 : double(y) / (year_count - 1);
      targets[i][y] = (t2011 + (t2020 - t2011) * frac) * cfg.scale;
    }
  }

  // China's consolidation: growth to a 2019 peak, then the 2020 drop that
  // gives Fig. 2 its dip.
  if (cn >= 0 && countries[cn].explicit_target && year_count >= 2) {
    double t2020 = targets[cn][year_count - 1];
    double peak = t2020 * (38000.0 / 30000.0);
    double t2011 = t2020 * (14000.0 / 30000.0);
    for (int y = 0; y + 1 < year_count; ++y) {
      double frac = year_count == 2 ? 1.0 : double(y) / (year_count - 2);
      targets[cn][y] = t2011 + (peak - t2011) * frac;
    }
    targets[cn][year_count - 1] = t2020;
  }
}

// ---------------------------------------------------------------------------
// Root, TLDs, parking service
// ---------------------------------------------------------------------------

void World::Builder::BuildRootAndTlds() {
  // Root servers live under the pseudo-TLD "rootsim" and serve both zones.
  auto root_zone = NewZone(dns::Name::Root());
  auto rootsim = NewZone(dns::Name::FromString("rootsim"));
  zone::AuthServer* root_farm = NewServer("root-servers");

  geo::Cidr root_block = alloc.AllocateBlock(24, "Root Server Operators");
  std::vector<dns::Name> root_ns;
  for (int i = 0; i < 4; ++i) {
    dns::Name host =
        dns::Name::FromString(std::string(1, char('a' + i)) + ".rootsim");
    geo::IPv4 ip = geo::AddressAllocator::HostInBlock(root_block, i);
    AttachHost(host, root_farm, {ip});
    w.root_server_ips_.push_back(ip);
    root_ns.push_back(host);
    rootsim->Add(dns::MakeA(host, ip, 518400));
  }
  for (const dns::Name& ns : root_ns) {
    root_zone->Add(dns::MakeNs(dns::Name::Root(), ns, 518400));
    rootsim->Add(dns::MakeNs(rootsim->origin(), ns, 518400));
  }
  root_zone->Add(dns::MakeSoa(dns::Name::Root(), root_ns[0],
                              dns::Name::FromString("nstld.rootsim"), 1));
  rootsim->Add(dns::MakeSoa(rootsim->origin(), root_ns[0],
                            dns::Name::FromString("nstld.rootsim"), 1));
  Delegate(root_zone.get(), rootsim->origin(), root_ns);
  root_farm->AddZone(root_zone);
  root_farm->AddZone(rootsim);

  // TLDs: generic + every ccTLD + the .gov TLD (the US suffix).
  std::vector<std::string> tlds = {"com", "net", "org", "info", "gov"};
  for (const CountrySpec& c : Countries()) tlds.emplace_back(c.code);
  // "uk" etc. are already in the country list; dedupe just in case.
  std::sort(tlds.begin(), tlds.end());
  tlds.erase(std::unique(tlds.begin(), tlds.end()), tlds.end());

  for (const std::string& tld : tlds) {
    dns::Name origin = dns::Name::FromString(tld);
    auto z = NewZone(origin);
    zone::AuthServer* farm = NewServer("tld:" + tld);
    geo::Cidr block = alloc.AllocateBlock(24, "Registry " + tld);
    std::vector<dns::Name> ns_names;
    for (int i = 0; i < 2; ++i) {
      dns::Name host = origin.Child("nic").Child(std::string(1, char('a' + i)));
      geo::IPv4 ip = geo::AddressAllocator::HostInBlock(block, i);
      AttachHost(host, farm, {ip});
      z->Add(dns::MakeA(host, ip, 86400));
      ns_names.push_back(host);
    }
    for (const dns::Name& ns : ns_names) z->Add(dns::MakeNs(origin, ns, 86400));
    z->Add(dns::MakeSoa(origin, ns_names[0],
                        origin.Child("nic").Child("hostmaster"), 1));
    Delegate(root_zone.get(), origin, ns_names);
    farm->AddZone(z);
    w.psl_.AddSuffix(origin);
  }
  // Multi-label public suffixes used by provider NS domains.
  w.psl_.AddSuffix(dns::Name::FromString("co.uk"));
  w.psl_.AddSuffix(dns::Name::FromString("com.br"));

  // The domain-parking service: answers every query with its own records.
  {
    dns::Name park_domain = dns::Name::FromString("parkmonster.com");
    // The farm's id doubles as the NS name it claims in parking answers.
    parking_farm = NewServer("ns1.parkmonster.com", zone::ServerMode::kParking);
    geo::Cidr block = alloc.AllocateBlock(24, "ParkMonster Inc");
    parking_ns1 = park_domain.Child("ns1");
    parking_ns2 = park_domain.Child("ns2");
    parking_ips = {geo::AddressAllocator::HostInBlock(block, 0),
                   geo::AddressAllocator::HostInBlock(block, 1)};
    // Parking answers A queries with its own (DNS-serving) addresses, so a
    // hijack probe that follows them still gets responses (§IV-D: "the
    // ADNS involved were not defective").
    parking_farm->SetParkingAddresses(parking_ips);
    AttachHost(parking_ns1, parking_farm, {parking_ips[0]});
    AttachHost(parking_ns2, parking_farm, {parking_ips[1]});
    // parkmonster.com itself must resolve normally: a small normal zone on
    // a separate server, so only *parked customer domains* hit the
    // catch-all behaviour.
    auto z = NewZone(park_domain);
    zone::AuthServer* self = NewServer("parking-self");
    geo::IPv4 self_ip = geo::AddressAllocator::HostInBlock(block, 2);
    dns::Name self_ns = park_domain.Child("self");
    AttachHost(self_ns, self, {self_ip});
    z->Add(dns::MakeA(self_ns, self_ip, 3600));
    z->Add(dns::MakeA(parking_ns1, parking_ips[0], 3600));
    z->Add(dns::MakeA(parking_ns2, parking_ips[1], 3600));
    z->Add(dns::MakeNs(park_domain, self_ns, 3600));
    z->Add(dns::MakeSoa(park_domain, self_ns,
                        park_domain.Child("hostmaster"), 1));
    self->AddZone(z);
    Delegate(FindZone(dns::Name::FromString("com")), park_domain, {self_ns});
    w.registrar_.Register(park_domain);
  }
}

// ---------------------------------------------------------------------------
// Providers
// ---------------------------------------------------------------------------

void World::Builder::BuildProviderInfra() {
  auto specs = Providers();
  providers.resize(specs.size());
  for (size_t p = 0; p < specs.size(); ++p) {
    const ProviderSpec& spec = specs[p];
    ProviderRuntime& rt = providers[p];
    rt.spec = &spec;
    rt.alive_2021 = spec.end_year == 0 || spec.end_year >= 2021;

    // Hostname pool.
    for (int i = 0; i < spec.pool_size; ++i) {
      rt.hostnames.push_back(ProviderHostname(spec, i));
    }

    // Address blocks: num_prefixes /24s spread over num_asns ASNs.
    std::vector<geo::Cidr> blocks;
    uint32_t first_asn = 0;
    for (int b = 0; b < spec.num_prefixes; ++b) {
      std::optional<uint32_t> reuse;
      // Blocks pair up within an ASN so that a customer's consecutive
      // hostname picks land in one AS about half the time.
      if (spec.num_asns > 0 && b > 0) {
        uint32_t asn_index = static_cast<uint32_t>((b / 2) % spec.num_asns);
        if (!(b < 2 && asn_index == 0)) reuse = first_asn + asn_index;
      }
      geo::Cidr block = alloc.AllocateBlock(24, spec.display, reuse);
      if (b == 0) first_asn = alloc.last_asn();
      blocks.push_back(block);
    }

    if (rt.alive_2021) rt.farm = NewServer("provider:" + std::string(spec.group_key));

    std::vector<uint32_t> block_cursor(blocks.size(), 0);
    for (size_t i = 0; i < rt.hostnames.size(); ++i) {
      size_t b = i % blocks.size();
      geo::IPv4 ip =
          geo::AddressAllocator::HostInBlock(blocks[b], block_cursor[b]++);
      rt.hostname_ips.push_back(ip);
      if (rt.farm != nullptr) AttachHost(rt.hostnames[i], rt.farm, {ip});
    }

    // Zones for the registered domains the hostnames live under; alive
    // providers get real zones + delegations, dead ones get nothing (their
    // hostnames become unresolvable, feeding the lame-delegation pool).
    if (!rt.alive_2021) continue;
    std::map<dns::Name, std::vector<size_t>> by_domain;
    for (size_t i = 0; i < rt.hostnames.size(); ++i) {
      auto reg = w.psl_.RegisteredDomain(rt.hostnames[i]);
      GOVDNS_CHECK(reg.has_value());
      by_domain[*reg].push_back(i);
    }
    for (const auto& [domain, host_idx] : by_domain) {
      auto z = NewZone(domain);
      std::vector<dns::Name> apex_ns;
      for (size_t k = 0; k < host_idx.size() && k < 2; ++k) {
        apex_ns.push_back(rt.hostnames[host_idx[k]]);
      }
      for (size_t i : host_idx) {
        z->Add(dns::MakeA(rt.hostnames[i], rt.hostname_ips[i], 3600));
      }
      for (const dns::Name& ns : apex_ns) z->Add(dns::MakeNs(domain, ns, 3600));
      z->Add(dns::MakeSoa(domain, apex_ns[0], domain.Child("hostmaster"), 1));
      rt.farm->AddZone(z);
      // Delegate from the TLD that contains it.
      auto suffix = w.psl_.MatchingSuffix(domain);
      GOVDNS_CHECK(suffix.has_value());
      zone::Zone* tld = FindZone(suffix->Suffix(1));
      GOVDNS_CHECK(tld != nullptr);
      Delegate(tld, domain, apex_ns);
      w.registrar_.Register(domain);
    }
  }
}

// ---------------------------------------------------------------------------
// Countries
// ---------------------------------------------------------------------------

void World::Builder::BuildCountryInfra() {
  auto countries = Countries();
  const int n = static_cast<int>(countries.size());
  w.country_rt_.resize(n);
  country_pools.resize(n);
  country_company_ids.resize(n);
  country_active.resize(n);

  // The paper's §III-A quirks.
  const std::set<std::string> broken_links = {"er", "kp", "tm", "so", "ss",
                                              "dj", "td", "cf", "nr", "tv",
                                              "ki"};
  const std::set<std::string> msq_differs = {"tm", "so"};
  const std::string squatted_country = "gq";

  for (int i = 0; i < n; ++i) {
    const CountrySpec& spec = countries[i];
    CountryRuntime& rt = w.country_rt_[i];
    util::Rng crng = rng.Fork(std::string("country:") + spec.code);

    // Suffix name.
    std::string suffix_text = spec.suffix[0] != '\0'
                                  ? spec.suffix
                                  : std::string("gov.") + spec.code;
    rt.suffix = dns::Name::FromString(suffix_text);

    country_pools[i].Init(&alloc, std::string(spec.name) + " Government", 4);

    // Suffix zone + central government DNS. When the suffix is a TLD (the
    // US .gov), the TLD zone built earlier doubles as the suffix zone.
    zone::Zone* suffix_zone = FindZone(rt.suffix);
    if (suffix_zone == nullptr) {
      auto z = NewZone(rt.suffix);
      suffix_zone = z.get();
      zone::AuthServer* central = NewServer(std::string("central:") + spec.code);
      int central_count = 2 + static_cast<int>(crng.UniformU64(2));
      // Central infrastructure topology follows the country's diversity
      // profile: one AS for NIC-style consolidation, a shared front
      // address where the profile says nameserver pairs collapse to one IP.
      const bool central_multi_asn =
          spec.diversity.p_single_asn_given_multi_24 < 0.5;
      const bool central_shared_ip = spec.diversity.p_single_ip > 0.3;
      const bool central_single_24 =
          spec.diversity.p_single_24_given_multi_ip > 0.4;
      geo::IPv4 shared_ip;
      for (int k = 0; k < central_count; ++k) {
        dns::Name host = rt.suffix.Child("nic").Child("ns" + std::to_string(k + 1));
        geo::IPv4 ip;
        if (central_shared_ip && k > 0) {
          ip = shared_ip;
        } else {
          ip = country_pools[i].Take(central_multi_asn ? k % 2 : 0,
                                     /*fresh_prefix=*/!central_single_24 || k == 0);
          shared_ip = ip;
        }
        AttachHost(host, central, {ip});
        z->Add(dns::MakeA(host, ip, 86400));
        rt.central_ns.push_back(host);
      }
      for (const dns::Name& ns : rt.central_ns) {
        z->Add(dns::MakeNs(rt.suffix, ns, 86400));
      }
      z->Add(dns::MakeSoa(rt.suffix, rt.central_ns[0],
                          rt.suffix.Child("hostmaster"), 1));
      central->AddZone(z);
      // Delegate from the enclosing zone (ccTLD, or deeper for registered
      // domains like jis.gov.jm whose parent gov.jm has no zone: delegate
      // straight from the ccTLD in that case).
      dns::Name tld = rt.suffix.Suffix(1);
      zone::Zone* parent = FindZone(tld);
      GOVDNS_CHECK(parent != nullptr);
      Delegate(parent, rt.suffix, rt.central_ns);
    } else {
      // TLD-as-suffix (US): reuse the registry servers as central NS.
      rt.central_ns.push_back(rt.suffix.Child("nic").Child("a"));
      rt.central_ns.push_back(rt.suffix.Child("nic").Child("b"));
    }

    // PSL and registry policy.
    if (spec.suffix_style == SuffixStyle::kReservedSuffix) {
      w.psl_.AddSuffix(rt.suffix);
      w.registry_policy_.restricted[rt.suffix] = true;
    } else {
      // The enclosing "gov.xx" is a public suffix but has no restriction
      // documentation (the paper's gov.la / gov.tl / gov.jm situation), or
      // the portal is an ordinary registered domain (regjeringen.no).
      if (rt.suffix.LabelCount() >= 3) {
        w.psl_.AddSuffix(rt.suffix.Parent());
      }
      w.registrar_.Register(rt.suffix);
    }

    // Portal FQDN + knowledge-base entry.
    rt.portal_fqdn = rt.suffix.Child("www");
    KnowledgeBaseEntry kb;
    kb.country = i;
    kb.portal_fqdn = rt.portal_fqdn;
    kb.msq_fqdn = rt.portal_fqdn;
    if (broken_links.contains(spec.code)) {
      kb.link_resolves = false;
      if (msq_differs.contains(spec.code)) {
        // The KB page still points at a long-dead domain.
        kb.portal_fqdn =
            dns::Name::FromString(std::string("www.old-portal.") + spec.code);
      }
    } else if (spec.code == squatted_country) {
      // Link resolves, but to a squatter: a parked .com domain.
      dns::Name squat =
          dns::Name::FromString(std::string("egov-") + spec.code + ".com");
      kb.portal_fqdn = squat.Child("www");
      kb.link_squatted = true;
      // Delegate the squatted domain to the parking service.
      Delegate(FindZone(dns::Name::FromString("com")), squat,
               {parking_ns1, parking_ns2});
      parking_farm->AddZone(NewZone(squat));  // catch-all answers anyway
      w.registrar_.Register(squat);
    }
    w.knowledge_base_.push_back(kb);

    // National hosting companies.
    double t2020 = targets[i][year_count - 1];
    int n_comp = std::max(
        2, static_cast<int>(std::lround(cfg.national_companies_per_1k_domains *
                                        t2020 / 1000.0)));
    for (int k = 0; k < n_comp; ++k) {
      NationalCompany comp;
      const char* word = kHostWords[crng.UniformU64(std::size(kHostWords))];
      std::string base = std::string(word) + std::to_string(k + 1);
      bool under_com = crng.Bernoulli(0.6);
      comp.domain = dns::Name::FromString(
          under_com ? base + spec.code + ".com" : base + "." + spec.code);
      comp.first_year = 2004 + static_cast<int>(crng.UniformU64(14));
      if (crng.Bernoulli(0.40)) {
        comp.last_year = std::min(
            2020, comp.first_year + 2 + static_cast<int>(crng.UniformU64(12)));
      }
      // Topology from the country's diversity profile.
      const DiversityProfile& dp = spec.diversity;
      if (crng.Bernoulli(dp.p_single_ip)) {
        comp.num_ips = 1;
        comp.num_prefixes = 1;
        comp.num_asns = 1;
      } else {
        comp.num_ips = 2;
        comp.num_prefixes =
            crng.Bernoulli(dp.p_single_24_given_multi_ip) ? 1 : 2;
        comp.num_asns = comp.num_prefixes == 1
                            ? 1
                            : (crng.Bernoulli(dp.p_single_asn_given_multi_24)
                                   ? 1
                                   : 2);
      }
      comp.ns_names = {comp.domain.Child("ns1"), comp.domain.Child("ns2")};
      rt.companies.push_back(comp);

      CompanyRuntime comp_rt;
      comp_rt.country = i;
      comp_rt.index_in_country = k;
      const bool alive_2021 = comp.last_year == 0;
      if (alive_2021) {
        // Live infrastructure: addresses, endpoints, zone, delegation.
        zone::AuthServer* farm =
            NewServer("company:" + comp.domain.ToString());
        comp_rt.farm = farm;
        for (int ni = 0; ni < 2; ++ni) {
          int group = comp.num_asns == 2 ? ni % 2 : 0;
          bool fresh = comp.num_prefixes == 2 && ni > 0;
          geo::IPv4 ip = comp.num_ips == 1 && ni > 0
                             ? comp_rt.ns_ips[0]
                             : country_pools[i].Take(group, fresh);
          comp_rt.ns_ips.push_back(ip);
        }
        if (comp.num_ips == 1) {
          AttachHost(comp.ns_names[0], farm, {comp_rt.ns_ips[0]});
          hosts[comp.ns_names[1]] = HostRecord{farm, {comp_rt.ns_ips[1]}};
        } else {
          AttachHost(comp.ns_names[0], farm, {comp_rt.ns_ips[0]});
          AttachHost(comp.ns_names[1], farm, {comp_rt.ns_ips[1]});
        }
        auto z = NewZone(comp.domain);
        z->Add(dns::MakeA(comp.ns_names[0], comp_rt.ns_ips[0], 3600));
        z->Add(dns::MakeA(comp.ns_names[1], comp_rt.ns_ips[1], 3600));
        for (const dns::Name& ns : comp.ns_names) {
          z->Add(dns::MakeNs(comp.domain, ns, 3600));
        }
        z->Add(dns::MakeSoa(comp.domain, comp.ns_names[0],
                            comp.domain.Child("hostmaster"), 1));
        farm->AddZone(z);
        dns::Name tld = comp.domain.Suffix(1);
        zone::Zone* parent_zone = FindZone(tld);
        GOVDNS_CHECK(parent_zone != nullptr);
        Delegate(parent_zone, comp.domain, comp.ns_names);
        w.registrar_.Register(comp.domain);
      }
      country_company_ids[i].push_back(static_cast<int>(companies.size()));
      companies.push_back(std::move(comp_rt));
    }
    company_zipf.emplace_back(country_company_ids[i].size(), 1.0);

    // The country-wide shared dead nameserver, when configured: half the
    // affected countries get a resolvable-but-silent host, half an
    // unresolvable hostname.
    if (spec.shared_dead_ns_rate > 0.0) {
      dns::Name host = rt.suffix.Child("nic").Child("ns-old");
      rt.shared_dead_ns = host;
      if (crng.Bernoulli(0.25)) {
        // Resolvable but silent.
        geo::IPv4 ip = country_pools[i].Take(0, true);
        suffix_zone->Add(dns::MakeA(host, ip, 86400));
        w.network_->SetBehavior(ip, simnet::EndpointBehavior{.silent = true});
      }
      // else: no A record anywhere -> unresolvable.
    }

    // Live intermediate zones (the gov.br state layer); their zones and
    // delegations are created here, domains are placed under them later.
    if (spec.deep_hierarchy_share > 0.0) {
      int n_inter =
          std::max(3, static_cast<int>(std::lround(t2020 / 600.0)));
      for (int k = 0; k < n_inter; ++k) {
        dns::Name inter = rt.suffix.Child("r" + std::to_string(k + 1));
        rt.intermediate_zones.push_back(inter);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

std::unique_ptr<World> BuildWorld(const WorldConfig& config) {
  auto world = std::unique_ptr<World>(new World(config));
  World::Builder builder(*world);
  builder.Build();
  return world;
}

}  // namespace govdns::worldgen
