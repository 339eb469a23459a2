// World generation, phase 3: measurement-time planning (fates,
// inconsistency plans, hijack-risk seeding) and the live DNS infrastructure
// the measurement client will query in "April 2021".
#include <algorithm>
#include <cmath>

#include "util/civil_time.h"
#include "worldgen/builder.h"

namespace govdns::worldgen {

namespace {

constexpr util::CivilDay WindowStart() { return 18262; }  // 2020-01-01

// Fuses the first two labels of a hostname: the paper's
// "pns12cloudns.net for pns12.cloudns.net" zone-file typo.
dns::Name TypoOf(const dns::Name& host) {
  if (host.LabelCount() < 2) return host;
  std::string fused(host.Label(0));
  fused += host.Label(1);
  if (!dns::IsValidLabel(fused)) return host;
  return host.Suffix(host.LabelCount() - 2).Child(fused);
}

}  // namespace

// ---------------------------------------------------------------------------
// Risk-country selection (must run before lifecycles: lingering customers
// of dead companies are only allowed in these countries).
// ---------------------------------------------------------------------------

void World::Builder::SelectRiskCountries() {
  auto countries = Countries();
  const int n = static_cast<int>(countries.size());
  util::Rng r = rng.Fork("risk-countries");

  // Weighted sampling without replacement, by 2020 volume.
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  std::vector<double> weights(n);
  for (int i = 0; i < n; ++i) weights[i] = targets[i][year_count - 1] + 1.0;
  int want = std::min(cfg.available_ns_domain_countries, n);
  while (static_cast<int>(available_ns_countries.size()) < want) {
    size_t k = r.WeightedIndex(weights);
    if (weights[k] > 0.0) {
      available_ns_countries.insert(static_cast<int>(k));
      weights[k] = 0.0;
    }
  }
  // The parked (aftermarket) cases live in a few of those countries.
  std::vector<int> pool(available_ns_countries.begin(),
                        available_ns_countries.end());
  r.Shuffle(pool);
  for (int i = 0; i < cfg.parked_ns_countries &&
                  i < static_cast<int>(pool.size());
       ++i) {
    parked_countries.insert(pool[i]);
  }
}

// ---------------------------------------------------------------------------
// Measurement-time planning
// ---------------------------------------------------------------------------

void World::Builder::PlanMeasurementState() {
  auto countries = Countries();
  const int n = static_cast<int>(countries.size());
  util::Rng r = rng.Fork("plan");
  const util::CivilDay window_start = WindowStart();
  const util::CivilDay db_end = util::DayFromYmd(2021, 2, 15);

  // Which intermediate zones are dead.
  intermediate_dead.resize(n);
  for (int c = 0; c < n; ++c) {
    const CountrySpec& spec = countries[c];
    CountryRuntime& rt = w.country_rt_[c];
    size_t n_inter = rt.intermediate_zones.size();
    intermediate_dead[c].assign(n_inter, 0);
    size_t dead = static_cast<size_t>(
        std::lround(n_inter * spec.dead_intermediate_share));
    std::vector<size_t> order(n_inter);
    for (size_t k = 0; k < n_inter; ++k) order[k] = k;
    r.Shuffle(order);
    for (size_t k = 0; k < dead; ++k) {
      intermediate_dead[c][order[k]] = 1;
      rt.dead_intermediate_zones.push_back(rt.intermediate_zones[order[k]]);
    }
  }

  // Per-domain fate, consistency, and lame-ness plans.
  for (size_t i = 0; i < w.domains_.size(); ++i) {
    DomainTruth& d = w.domains_[i];
    DomainGenState& gs = gen_state[i];
    const CountrySpec& spec = countries[d.country];

    util::CivilDay visible_until = gs.lingering_on_dead_company
                                       ? db_end
                                       : std::min(d.death, db_end);
    if (visible_until < window_start || d.birth > db_end) continue;
    if (d.disposable_excluded) continue;
    d.in_query_list = true;

    if (gs.is_apex) {
      d.fate = DomainFate::kActive;
      d.consistency = ConsistencyPlan::kEqual;
      continue;
    }
    if (gs.intermediate >= 0 && intermediate_dead[d.country][gs.intermediate]) {
      d.fate = DomainFate::kDeadParent;
      continue;
    }
    if (gs.lingering_on_dead_company) {
      d.fate = DomainFate::kStaleDelegation;
      d.dangling_available_ns = true;
      continue;
    }

    const bool naturally_dead = d.death != kAliveForever;
    if (naturally_dead) {
      // Registries clean up most deleted domains; a minority of
      // delegations outlive their zones.
      d.fate = r.Bernoulli(0.88) ? DomainFate::kRemoved
                                : DomainFate::kStaleDelegation;
      continue;
    }

    double p_stale = gs.is_single_ns
                         ? cfg.stale_rate_1ns + spec.extra_stale_rate
                         : cfg.stale_rate + spec.extra_stale_rate * 0.08;
    if (r.Bernoulli(std::min(0.95, p_stale))) {
      d.fate = DomainFate::kStaleDelegation;
      // The domain actually died recently; only the delegation survives.
      // Never before its final deployment change, though.
      d.death = util::DayFromYmd(2020, 6, 1) +
                static_cast<util::CivilDay>(r.UniformU64(270));
      if (!d.epochs.empty()) {
        d.death = std::max(d.death, d.epochs.back().days.first);
        d.epochs.back().days.last = d.death;
      }
      continue;
    }
    if (r.Bernoulli(cfg.removed_fraction)) {
      d.fate = DomainFate::kRemoved;
      continue;
    }

    // Safety net: a domain still riding a provider or company that no
    // longer exists at measurement time is a stale delegation, whatever the
    // sampling above said (this catches customers who signed up with a host
    // during its final year).
    if (!d.epochs.empty()) {
      const NsEpoch& last = d.epochs.back();
      bool host_gone = false;
      if (last.national_company >= 0) {
        const CompanyRuntime& crt = companies[last.national_company];
        const NationalCompany& comp =
            w.country_rt_[crt.country].companies[crt.index_in_country];
        host_gone = comp.last_year != 0;
      } else if (last.provider >= 0) {
        const ProviderSpec& pspec = *providers[last.provider].spec;
        host_gone = pspec.end_year != 0 && pspec.end_year <= cfg.last_year;
      }
      if (host_gone) {
        d.fate = DomainFate::kStaleDelegation;
        size_t linger_cap = 1 + (last.national_company % 2);
        if (available_ns_countries.contains(d.country) &&
            last.national_company >= 0 &&
            companies[last.national_company].lingering.size() < linger_cap) {
          d.dangling_available_ns = true;
          companies[last.national_company].lingering.push_back(
              static_cast<int>(i));
        }
        continue;
      }
    }

    d.fate = DomainFate::kActive;

    // Parent/child inconsistency plan (Fig. 13); second-level domains are
    // far more consistent.
    double m = d.level <= 2 ? cfg.second_level_inconsistency_multiplier : 1.0;
    double u = r.UniformDouble();
    double a = cfg.p_child_superset * m;
    double b = a + cfg.p_parent_superset * m;
    double cthr = b + cfg.p_overlap_neither * m;
    double e = cthr + cfg.p_disjoint * m;
    if (u < a) {
      d.consistency = ConsistencyPlan::kChildSuperset;
    } else if (u < b) {
      d.consistency = ConsistencyPlan::kParentSuperset;
    } else if (u < cthr) {
      d.consistency = ConsistencyPlan::kOverlapNeither;
    } else if (u < e) {
      d.consistency = r.Bernoulli(cfg.p_disjoint_ip_overlap)
                          ? ConsistencyPlan::kDisjointSharedIp
                          : ConsistencyPlan::kDisjoint;
    } else {
      d.consistency = ConsistencyPlan::kEqual;
      if (r.Bernoulli(cfg.p_relative_name_truncation)) {
        d.relative_name_truncation = true;
      }
    }

    // Lame-ness flavours.
    if (!gs.is_single_ns && r.Bernoulli(spec.shared_dead_ns_rate) &&
        w.country_rt_[d.country].shared_dead_ns.has_value()) {
      d.partial_lame = true;  // the shared dead host is added at build time
    }
    if (available_ns_countries.contains(d.country)) {
      // Typos overwhelmingly hit hand-maintained zone files (national or
      // self-hosted NS); big-provider names are typo'd only rarely, which
      // is what keeps cross-country d_ns collisions to a handful.
      double typo_rate = cfg.typo_ns_rate;
      if (!d.epochs.empty() &&
          d.epochs.back().style == DeployStyle::kGlobal) {
        typo_rate *= 0.15;
      }
      if (r.Bernoulli(typo_rate)) {
        d.typo_parent_ns = true;
        d.dangling_available_ns = true;
      }
    }
  }

  // Aftermarket parking (§IV-D): in each parked country, pick dead
  // companies (with their lingering customers detached) and park them;
  // wire `parked_ns_customer_domains` active domains to reference them.
  int companies_needed = cfg.parked_ns_domains;
  int customers_per = std::max(
      1, cfg.parked_ns_customer_domains / std::max(1, cfg.parked_ns_domains));
  // Spread the parked cases across the parked countries (the paper found
  // them in 7): at most ceil(needed / countries) per country on the first
  // pass, topping up on later passes if some country lacked candidates.
  int per_country_cap =
      (companies_needed + std::max<int>(1, parked_countries.size()) - 1) /
      std::max<int>(1, parked_countries.size());
  for (int sweep = 0; sweep < 3 && companies_needed > 0; ++sweep) {
    if (sweep > 0) per_country_cap = companies_needed;  // top-up sweeps
  for (int c : parked_countries) {
    if (companies_needed <= 0) break;
    int taken_here = 0;
    for (int ci : country_company_ids[c]) {
      if (companies_needed <= 0 || taken_here >= per_country_cap) break;
      CompanyRuntime& crt = companies[ci];
      NationalCompany& comp =
          w.country_rt_[c].companies[crt.index_in_country];
      if (comp.last_year == 0) continue;   // still alive
      if (comp.dead_and_parked) continue;  // already taken in a prior sweep
      int wired = 0;
      // Its abandoned customers *are* the §IV-D references: the parking
      // service answers for them, so they look responsive-but-inconsistent
      // rather than lame.
      for (int id : crt.lingering) {
        DomainTruth& d = w.domains_[id];
        // Only convert reachable zombies; one under a dead intermediate
        // zone stays unreachable no matter who answers for its NS.
        if (!d.in_query_list || d.fate != DomainFate::kStaleDelegation) {
          continue;
        }
        d.fate = DomainFate::kActive;
        d.dangling_available_ns = false;
        d.parked_ns_ref = true;
        d.consistency = ConsistencyPlan::kEqual;
        parked_assignments[id] = ci;
        ++wired;
      }
      crt.lingering.clear();
      // Top up with active domains if the company had no zombies.
      for (int id : country_active[c]) {
        if (wired >= customers_per) break;
        DomainTruth& d = w.domains_[id];
        if (!d.in_query_list || d.fate != DomainFate::kActive) continue;
        if (gen_state[id].is_apex || d.parked_ns_ref) continue;
        d.parked_ns_ref = true;
        parked_assignments[id] = ci;
        ++wired;
      }
      if (wired == 0) continue;  // nothing references it; leave it alone
      comp.dead_and_parked = true;
      comp.dead_and_available = false;
      --companies_needed;
      ++taken_here;
    }
  }
  }

  // Mark dead companies with lingering customers as available-to-register.
  for (CompanyRuntime& crt : companies) {
    NationalCompany& comp =
        w.country_rt_[crt.country].companies[crt.index_in_country];
    if (comp.last_year != 0 && !crt.lingering.empty()) {
      comp.dead_and_available = true;
    }
  }
}

// ---------------------------------------------------------------------------
// Active infrastructure
// ---------------------------------------------------------------------------

void World::Builder::BuildActiveInfrastructure() {
  auto countries = Countries();
  const int n = static_cast<int>(countries.size());
  util::Rng r = rng.Fork("active");

  // Country-level: portal addresses, live/dead intermediate zones.
  for (int c = 0; c < n; ++c) {
    const CountryRuntime& rt = w.country_rt_[c];
    zone::Zone* suffix_zone = FindZone(rt.suffix);
    GOVDNS_CHECK(suffix_zone != nullptr);
    const KnowledgeBaseEntry& kb = w.knowledge_base_[c];
    if (kb.link_resolves) {
      suffix_zone->Add(
          dns::MakeA(rt.portal_fqdn, country_pools[c].Take(0, false), 3600));
    }
    zone::AuthServer* central = nullptr;
    if (!rt.central_ns.empty()) {
      auto it = hosts.find(rt.central_ns[0]);
      if (it != hosts.end()) central = it->second.server;
    }
    for (size_t k = 0; k < rt.intermediate_zones.size(); ++k) {
      const dns::Name& inter = rt.intermediate_zones[k];
      if (intermediate_dead[c][k]) {
        // Delegation to hosts that no longer exist: unresolvable, so the
        // whole subtree has an unreachable parent.
        Delegate(suffix_zone, inter,
                 {inter.Child("ns1"), inter.Child("ns2")});
        continue;
      }
      auto z = NewZone(inter);
      for (const dns::Name& ns : rt.central_ns) {
        z->Add(dns::MakeNs(inter, ns, 86400));
      }
      if (!rt.central_ns.empty()) {
        z->Add(dns::MakeSoa(inter, rt.central_ns[0],
                            rt.suffix.Child("hostmaster"), 1));
      }
      Delegate(suffix_zone, inter, rt.central_ns);
      if (central != nullptr) central->AddZone(z);
    }
  }

  // Parked companies: TLD delegation handed to the parking service, premium
  // aftermarket price at the registrar.
  for (const CompanyRuntime& crt : companies) {
    const NationalCompany& comp =
        w.country_rt_[crt.country].companies[crt.index_in_country];
    if (!comp.dead_and_parked) continue;
    zone::Zone* tld = FindZone(comp.domain.Suffix(1));
    GOVDNS_CHECK(tld != nullptr);
    Delegate(tld, comp.domain, {parking_ns1, parking_ns2});
    w.registrar_.SetPremiumPrice(comp.domain,
                                 300.0 + r.UniformDouble() * 4700.0);
  }

  // Per-domain infrastructure. The domain truth is read-only here: the
  // passive-DNS task reads it concurrently (see Build).
  for (size_t i = 0; i < w.domains_.size(); ++i) {
    const DomainTruth& d = w.domains_[i];
    const DomainGenState& gs = gen_state[i];
    if (!d.in_query_list || gs.is_apex) continue;
    if (d.fate == DomainFate::kRemoved || d.fate == DomainFate::kDeadParent) {
      continue;
    }
    const CountrySpec& spec = countries[d.country];
    const CountryRuntime& rt = w.country_rt_[d.country];
    GOVDNS_CHECK(!d.epochs.empty());
    const NsEpoch& last = d.epochs.back();

    dns::Name parent_origin =
        gs.intermediate >= 0 ? rt.intermediate_zones[gs.intermediate]
                             : rt.suffix;
    zone::Zone* parent_zone = FindZone(parent_origin);
    GOVDNS_CHECK(parent_zone != nullptr);

    util::Rng dr = rng.Fork("dom:" + d.name.ToString());

    // ---- Parked-reference domains: parent points at the parked company.
    if (d.parked_ns_ref) {
      const CompanyRuntime& crt = companies[parked_assignments.at(i)];
      const NationalCompany& comp =
          w.country_rt_[crt.country].companies[crt.index_in_country];
      for (const dns::Name& ns : comp.ns_names) {
        parent_zone->Add(dns::MakeNs(d.name, ns, 86400));
      }
      continue;
    }

    // ---- Stale delegations: parent records only, child servers gone.
    if (d.fate == DomainFate::kStaleDelegation) {
      bool typo_done = false;
      for (const dns::Name& ns : last.ns_names) {
        dns::Name entry = ns;
        if (d.typo_parent_ns && !typo_done) {
          entry = TypoOf(ns);
          typo_done = true;
        }
        parent_zone->Add(dns::MakeNs(d.name, entry, 86400));
        // Half the in-bailiwick hostnames keep a stale glue record pointing
        // at a host that no longer answers; the rest are unresolvable.
        // CountryAddressPool::Take never hands out an address twice, so no
        // endpoint is ever attached at the stale address.
        if (entry.IsSubdomainOf(d.name) && dr.Bernoulli(0.5)) {
          parent_zone->Add(
              dns::MakeA(entry, country_pools[d.country].Take(1, false), 86400));
        }
      }
      continue;
    }

    // ---- Active domains.
    GOVDNS_CHECK(d.fate == DomainFate::kActive);
    std::vector<dns::Name> base = last.ns_names;
    std::vector<dns::Name> parent_set = base;
    std::vector<dns::Name> child_set = base;

    const dns::Name fresh_ns = d.name.Child("ns-new");
    dns::Name old_ns = d.name.Child("ns-old");
    if (d.epochs.size() >= 2) {
      const NsEpoch& prev_epoch = d.epochs[d.epochs.size() - 2];
      const auto& prev = prev_epoch.ns_names;
      // Reuse the previous operator's name only if that operator still
      // exists; otherwise stale-parent records would flood the dangling
      // d_ns pool far beyond the per-company lingering budget.
      bool prev_operator_alive = true;
      if (prev_epoch.national_company >= 0) {
        const CompanyRuntime& crt = companies[prev_epoch.national_company];
        prev_operator_alive =
            w.country_rt_[crt.country]
                .companies[crt.index_in_country]
                .last_year == 0;
      } else if (prev_epoch.provider >= 0) {
        prev_operator_alive = providers[prev_epoch.provider].alive_2021;
      }
      if (prev_operator_alive && !prev.empty() &&
          !(prev.front() == base.front())) {
        old_ns = prev.front();
      }
    }
    bool old_ns_alive = false;
    switch (d.consistency) {
      case ConsistencyPlan::kEqual:
        break;
      case ConsistencyPlan::kChildSuperset:
        child_set.push_back(fresh_ns);
        break;
      case ConsistencyPlan::kParentSuperset:
        parent_set.push_back(old_ns);
        old_ns_alive = dr.Bernoulli(0.45);
        break;
      case ConsistencyPlan::kOverlapNeither:
        parent_set.push_back(old_ns);
        old_ns_alive = dr.Bernoulli(0.45);
        child_set.push_back(fresh_ns);
        break;
      case ConsistencyPlan::kDisjointSharedIp: {
        // Renamed hosts, same addresses: child advertises new names that
        // resolve to the same endpoints as the parent's names.
        child_set.clear();
        for (size_t k = 0; k < base.size() && k < 4; ++k) {
          child_set.push_back(
              d.name.Child(std::string("ns") + char('a' + k)));
        }
        break;
      }
      case ConsistencyPlan::kDisjoint: {
        child_set.clear();
        size_t cnt = std::max<size_t>(2, std::min<size_t>(base.size(), 3));
        for (size_t k = 0; k < cnt; ++k) {
          child_set.push_back(
              d.name.Child("ns" + std::to_string(k + 1) + "x"));
        }
        break;
      }
    }
    if (d.relative_name_truncation && child_set.size() >= 2) {
      // Zone-file typo: the origin was never appended; a single label leaks.
      child_set.back() = dns::Name::FromString(child_set.back().Label(0));
    }
    if (d.partial_lame && rt.shared_dead_ns.has_value()) {
      parent_set.push_back(*rt.shared_dead_ns);
      child_set.push_back(*rt.shared_dead_ns);
    }
    bool typo_applied = false;
    if (d.typo_parent_ns) {
      for (dns::Name& ns : parent_set) {
        if (ns.IsSubdomainOf(d.name)) continue;  // typo the provider-ish one
        ns = TypoOf(ns);
        typo_applied = true;
        break;
      }
      if (!typo_applied && !parent_set.empty()) {
        parent_set.front() = TypoOf(parent_set.front());
      }
    }

    // Local lame-ness: one self-hosted child NS is down.
    bool local_lame =
        last.style == DeployStyle::kPrivate && base.size() >= 2 &&
        base.front().IsSubdomainOf(d.name) &&
        dr.Bernoulli(cfg.partial_lame_rate * 3.0);

    // ---- Build the child zone.
    auto z = NewZone(d.name);
    for (const dns::Name& ns : child_set) {
      z->Add(dns::MakeNs(d.name, ns, 3600));
    }
    // SOA: MNAME/RNAME follow the operator (the provider fingerprint).
    dns::Name mname = child_set.front();
    dns::Name rname = d.name.Child("hostmaster");
    if (last.style == DeployStyle::kGlobal && last.provider >= 0) {
      const ProviderRuntime& prt = providers[last.provider];
      if (!prt.hostnames.empty()) mname = prt.hostnames.front();
      auto reg = w.psl_.RegisteredDomain(mname);
      if (reg) rname = reg->Child("hostmaster");
    } else if (last.style == DeployStyle::kNational &&
               last.national_company >= 0) {
      const CompanyRuntime& crt = companies[last.national_company];
      const NationalCompany& comp =
          w.country_rt_[crt.country].companies[crt.index_in_country];
      mname = comp.ns_names.front();
      rname = comp.domain.Child("hostmaster");
    }
    z->Add(dns::MakeSoa(d.name, mname, rname, 2021040100));
    z->Add(dns::MakeA(d.name.Child("www"),
                      country_pools[d.country].Take(2, false), 3600));

    // ---- Wire every referenced hostname.
    // Self-hosted endpoint topology is sampled once per domain.
    const DiversityProfile& dp = spec.diversity;
    bool single_ip = dr.Bernoulli(dp.p_single_ip);
    bool single_24 = dr.Bernoulli(dp.p_single_24_given_multi_ip);
    bool single_asn = dr.Bernoulli(dp.p_single_asn_given_multi_24);
    geo::IPv4 shared_self_ip;
    bool have_shared_ip = false;
    int self_count = 0;
    zone::AuthServer* provider_farm =
        (last.style == DeployStyle::kGlobal && last.provider >= 0)
            ? providers[last.provider].farm
            : nullptr;

    std::set<dns::Name> wired;
    auto wire_host = [&](const dns::Name& host, bool serves_zone) {
      if (!wired.insert(host).second) return;
      if (host.LabelCount() == 1) return;  // truncated relative name
      auto it = hosts.find(host);
      if (it != hosts.end()) {
        // Existing infrastructure (central, company, provider, parking).
        if (serves_zone && it->second.server != nullptr) {
          it->second.server->AddZone(z);
        }
        return;
      }
      if (!host.IsSubdomainOf(d.name)) {
        // Typo'd / shared-dead / foreign hostname: leave unresolvable.
        return;
      }
      // Self-hosted (or vanity) host: allocate address(es) and, unless this
      // host is the designated local-lame victim, attach a server.
      geo::IPv4 ip;
      if (last.vanity && provider_farm != nullptr) {
        const ProviderRuntime& prt = providers[last.provider];
        ip = prt.hostname_ips[dr.UniformU64(prt.hostname_ips.size())];
      } else if (single_ip) {
        if (!have_shared_ip) {
          shared_self_ip = country_pools[d.country].Take(0, true);
          have_shared_ip = true;
        }
        ip = shared_self_ip;
      } else {
        // Realize the sampled per-domain diversity: same /24, different
        // /24s in one AS, or different AS groups.
        int group;
        bool fresh;
        if (self_count == 0) {
          group = 0;
          fresh = true;
        } else if (single_24) {
          group = 0;
          fresh = false;  // stay in this domain's current /24
        } else if (single_asn) {
          group = 0;
          fresh = true;  // a new /24 in the same AS
        } else {
          group = self_count % 2;  // alternate AS groups
          fresh = false;
        }
        ip = country_pools[d.country].Take(group, fresh);
      }
      ++self_count;
      z->Add(dns::MakeA(host, ip, 3600));
      if (host.IsSubdomainOf(parent_origin)) {
        parent_zone->Add(dns::MakeA(host, ip, 86400));  // glue
      }
      bool victim = local_lame && self_count == 1;
      if (victim) {
        w.network_->SetBehavior(ip, simnet::EndpointBehavior{.silent = true});
        return;
      }
      if (last.vanity && provider_farm != nullptr) {
        if (serves_zone) provider_farm->AddZone(z);
        hosts[host] = HostRecord{provider_farm, {ip}};
        return;
      }
      zone::AuthServer* srv = NewServer(host.ToString());
      AttachHost(host, srv, {ip});
      if (serves_zone) srv->AddZone(z);
    };

    for (const dns::Name& ns : child_set) wire_host(ns, true);
    for (const dns::Name& ns : parent_set) {
      bool serves = true;
      if (!(ns == old_ns)) {
        serves = true;
      } else {
        serves = old_ns_alive;
      }
      wire_host(ns, serves);
    }

    // kDisjointSharedIp: the child's new names reuse the parent hosts'
    // addresses (added after wiring so we can read them back).
    if (d.consistency == ConsistencyPlan::kDisjointSharedIp) {
      for (size_t k = 0; k < child_set.size() && k < parent_set.size(); ++k) {
        // Only the renamed in-zone hosts get aliases; appended extras (the
        // shared dead host) must not be re-addressed.
        if (!child_set[k].IsSubdomainOf(d.name)) continue;
        auto it = hosts.find(parent_set[k]);
        if (it == hosts.end() || it->second.ips.empty()) continue;
        // Alias: same address, new name.
        z->Add(dns::MakeA(child_set[k], it->second.ips.front(), 3600));
        if (child_set[k].IsSubdomainOf(parent_origin)) {
          parent_zone->Add(
              dns::MakeA(child_set[k], it->second.ips.front(), 86400));
        }
      }
    }

    // ---- Parent-side delegation records.
    for (const dns::Name& ns : parent_set) {
      parent_zone->Add(dns::MakeNs(d.name, ns, 86400));
    }
  }
}

// ---------------------------------------------------------------------------
// Registrar finalization
// ---------------------------------------------------------------------------

void World::Builder::FinalizeRegistrar() {
  // Every government domain in the study is, of course, registered.
  for (const DomainTruth& d : w.domains_) {
    if (!d.in_query_list) continue;
    auto reg = w.psl_.RegisteredDomain(d.name);
    if (reg) w.registrar_.Register(*reg);
  }
  // Dead companies: available only when they still have lingering customers
  // in a risk country (or are parked, which SetPremiumPrice already left
  // unregistered); every other dead company's name was re-registered by
  // someone else.
  for (const CompanyRuntime& crt : companies) {
    const NationalCompany& comp =
        w.country_rt_[crt.country].companies[crt.index_in_country];
    if (comp.last_year == 0) continue;  // alive: registered at creation
    if (comp.dead_and_available || comp.dead_and_parked) continue;
    w.registrar_.Register(comp.domain);
  }
}

}  // namespace govdns::worldgen
