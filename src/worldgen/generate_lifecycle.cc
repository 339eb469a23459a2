// World generation, phase 2: ten years of domain lifecycles (births,
// deaths, deployment switches), demand-driven third-party-provider
// adoption calibrated to Tables II/III, and passive-DNS population.
#include <algorithm>
#include <cmath>

#include "util/civil_time.h"
#include "worldgen/builder.h"

namespace govdns::worldgen {

namespace {

constexpr const char* kGovWords[] = {
    "moe",        "moh",      "mof",       "moj",       "mod",
    "interior",   "foreign",  "finance",   "health",    "education",
    "justice",    "defense",  "police",    "customs",   "tax",
    "treasury",   "senate",   "assembly",  "parliament","council",
    "courts",     "audit",    "census",    "statistics","archives",
    "library",    "museum",   "heritage",  "culture",   "sports",
    "tourism",    "trade",    "industry",  "commerce",  "energy",
    "mining",     "oil",      "water",     "forestry",  "fisheries",
    "agriculture","land",     "housing",   "transport", "roads",
    "railways",   "aviation", "ports",     "post",      "telecom",
    "ict",        "digital",  "egov",      "portal",    "services",
    "registry",   "identity", "passport",  "visa",      "immigration",
    "labour",     "pension",  "welfare",   "social",    "women",
    "youth",      "children", "veterans",  "science",   "research",
    "environment","climate",  "weather",   "disaster",  "emergency",
    "fire",       "ambulance","hospital",  "clinic",    "pharmacy",
    "food",       "standards","metrology", "patent",    "procurement",
    "budget",     "planning", "investment","export",    "bank",
    "currency",   "insurance","elections", "ombudsman", "anticorruption",
    "cyber",      "security", "intel",     "border",    "coastguard",
    "navy",       "army",     "airforce",  "mapping",   "survey",
    "geology",    "space",    "nuclear",   "grid",      "city",
    "municipal",  "province", "district",  "region",    "county",
};

}  // namespace

int World::Builder::SampleNsCount(util::Rng& r) {
  static const std::vector<double> kWeights = {0.64, 0.20, 0.11, 0.03,
                                               0.012, 0.005, 0.003};
  return 2 + static_cast<int>(r.WeightedIndex(kWeights));
}

// ---------------------------------------------------------------------------
// Assignment helpers
// ---------------------------------------------------------------------------

World::Builder::NsAssignment World::Builder::AssignPrivate(int domain_id,
                                                           int year,
                                                           util::Rng& r) {
  const DomainTruth& d = w.domains_[domain_id];
  const CountrySpec& spec = Countries()[d.country];
  const CountryRuntime& rt = w.country_rt_[d.country];
  NsAssignment a;
  a.style = DeployStyle::kPrivate;

  double frac = std::clamp((year - 2011) / 9.0, 0.0, 1.0);
  double p1 = cfg.p_single_ns_private_2011 +
              (cfg.p_single_ns_private_2020 - cfg.p_single_ns_private_2011) *
                  frac;
  bool single = r.Bernoulli(p1);
  // Centralized government DNS (NIC-style) vs self-hosted.
  double central_share = spec.private_share >= 0.5 ? 0.75 : 0.45;
  if (!single && r.Bernoulli(central_share) && rt.central_ns.size() >= 2) {
    int k = 2 + static_cast<int>(r.UniformU64(
                    std::min<size_t>(2, rt.central_ns.size() - 1)));
    for (int j = 0; j < k && j < static_cast<int>(rt.central_ns.size()); ++j) {
      a.ns_names.push_back(rt.central_ns[j]);
    }
  } else {
    int k = single ? 1 : SampleNsCount(r);
    for (int j = 0; j < k; ++j) {
      a.ns_names.push_back(d.name.Child("ns" + std::to_string(j + 1)));
    }
  }
  return a;
}

World::Builder::NsAssignment World::Builder::AssignNational(int domain_id,
                                                            int year,
                                                            util::Rng& r) {
  const DomainTruth& d = w.domains_[domain_id];
  const auto& comp_ids = country_company_ids[d.country];
  const auto& comps = w.country_rt_[d.country].companies;
  NsAssignment a;
  a.style = DeployStyle::kNational;
  for (int attempt = 0; attempt < 12; ++attempt) {
    size_t k = company_zipf[d.country].Draw(r) - 1;
    const NationalCompany& comp = comps[k];
    if (comp.first_year <= year &&
        (comp.last_year == 0 || comp.last_year > year)) {
      a.company = comp_ids[k];
      a.ns_names = comp.ns_names;
      if (r.Bernoulli(cfg.p_single_ns_other)) a.ns_names.resize(1);
      return a;
    }
  }
  // No live company found (tiny country, early year): self-host instead.
  return AssignPrivate(domain_id, year, r);
}

World::Builder::NsAssignment World::Builder::AssignProvider(int domain_id,
                                                            int provider,
                                                            util::Rng& r) {
  const DomainTruth& d = w.domains_[domain_id];
  NsAssignment a;
  a.style = DeployStyle::kGlobal;
  a.provider = provider;
  if (r.Bernoulli(providers[provider].spec->vanity_fraction)) {
    // Vanity front: own NS names, provider infrastructure behind them.
    a.vanity = true;
    a.ns_names = {d.name.Child("ns1"), d.name.Child("ns2")};
    return a;
  }
  a.ns_names = PickCustomerNs(*providers[provider].spec, r);
  if (r.Bernoulli(cfg.p_mixed_provider_ns)) {
    a.ns_names.push_back(d.name.Child("ns0"));
  }
  return a;
}

void World::Builder::ApplyAssignment(int domain_id, const NsAssignment& a,
                                     util::CivilDay day) {
  DomainTruth& d = w.domains_[domain_id];
  DomainGenState& gs = gen_state[domain_id];

  // Detach from previous provider/company counts.
  if (gs.provider >= 0) --providers[gs.provider].customer_count;
  if (gs.company >= 0) --companies[gs.company].customer_count;
  gs.provider = a.provider;
  gs.company = a.company;
  if (a.provider >= 0) {
    providers[a.provider].customers.push_back(domain_id);
    ++providers[a.provider].customer_count;
  }
  if (a.company >= 0) {
    companies[a.company].customers.push_back(domain_id);
    ++companies[a.company].customer_count;
  }
  gs.is_single_ns = a.ns_names.size() == 1;

  if (!d.epochs.empty()) {
    NsEpoch& prev = d.epochs.back();
    if (prev.days.first >= day) {
      d.epochs.pop_back();  // same-day re-roll: replace
    } else {
      prev.days.last = day - 1;
    }
  }
  NsEpoch epoch;
  epoch.days = {day, kAliveForever};
  epoch.style = a.style;
  epoch.provider = a.provider;
  epoch.national_company = a.company;
  epoch.vanity = a.vanity;
  epoch.ns_names = a.ns_names;
  d.epochs.push_back(std::move(epoch));
}

// ---------------------------------------------------------------------------
// The year loop
// ---------------------------------------------------------------------------

void World::Builder::GenerateLifecyclesAndDeployments() {
  auto countries = Countries();
  const int n = static_cast<int>(countries.size());

  // Rough capacity guess: births over the decade plus the initial cohort.
  size_t capacity = static_cast<size_t>(cfg.total_domains_2020 * cfg.scale * 1.8);
  w.domains_.reserve(capacity);
  gen_state.reserve(capacity);

  std::vector<int> live_count(n, 0);
  // Per-country label de-duplication: uses of each word, by word index (the
  // words are distinct, so this counts exactly what a per-label map would).
  constexpr size_t kWords = std::size(kGovWords);
  std::vector<int> label_use(n * kWords, 0);

  util::Rng lifecycle_rng = rng.Fork("lifecycle");

  auto create_domain = [&](int country, util::CivilDay birth,
                           util::Rng& r) -> int {
    const CountrySpec& spec = countries[country];
    CountryRuntime& rt = w.country_rt_[country];
    DomainTruth d;
    d.country = country;
    d.birth = birth;
    d.death = kAliveForever;
    // Name: a government-ish label, optionally under an intermediate zone.
    const size_t word_index = r.UniformU64(kWords);
    const char* word = kGovWords[word_index];
    int& uses = label_use[country * kWords + word_index];
    std::string label =
        uses == 0 ? std::string(word) : std::string(word) + std::to_string(uses);
    ++uses;
    bool disposable = r.Bernoulli(cfg.disposable_fraction);
    if (disposable) {
      // Disposable-looking: machine-generated labels (mail gateways, CDN
      // probes, short-lived campaign sites). The measurement pipeline drops
      // them with the same kind of name heuristic the paper applied.
      static constexpr char kHex[] = "0123456789abcdef";
      label += '-';
      for (int h = 0; h < 6; ++h) label += kHex[r.UniformU64(16)];
    }
    dns::Name parent = rt.suffix;
    int inter = -1;
    if (!rt.intermediate_zones.empty() &&
        r.Bernoulli(spec.deep_hierarchy_share)) {
      inter = static_cast<int>(r.UniformU64(rt.intermediate_zones.size()));
      parent = rt.intermediate_zones[inter];
    }
    d.name = parent.Child(label);
    d.level = static_cast<int>(d.name.LabelCount());
    d.disposable_excluded = disposable;

    int id = static_cast<int>(w.domains_.size());
    w.domains_.push_back(std::move(d));
    DomainGenState gs;
    gs.alive = true;
    gs.intermediate = inter;
    gen_state.push_back(gs);
    country_active[country].push_back(id);
    ++live_count[country];
    return id;
  };

  // The d_gov apexes themselves are domains with NS records (the <1% of
  // second-level names in the paper's dataset). They are permanent, run on
  // the central government servers, and never churn.
  for (int c = 0; c < n; ++c) {
    const CountryRuntime& rt = w.country_rt_[c];
    if (rt.suffix.LabelCount() < 2) continue;  // TLD-style suffix (.gov)
    DomainTruth d;
    d.country = c;
    d.name = rt.suffix;
    d.level = static_cast<int>(rt.suffix.LabelCount());
    d.birth = util::DayFromYmd(2010, 1, 1);
    d.death = kAliveForever;
    NsEpoch epoch;
    epoch.days = {d.birth, kAliveForever};
    epoch.style = DeployStyle::kPrivate;
    epoch.ns_names = rt.central_ns;
    d.epochs.push_back(std::move(epoch));
    int id = static_cast<int>(w.domains_.size());
    w.domains_.push_back(std::move(d));
    DomainGenState gs;
    gs.alive = true;
    gs.is_apex = true;
    gen_state.push_back(gs);
    country_active[c].push_back(id);
    ++live_count[c];
  }

  // Country-adoption gate: a deterministic per-(provider, country) coin
  // decides whether a market ever buys from a provider, and the top-10 flag
  // sets a chooser's weight. Neither changes over the decade, so both are
  // tabulated once here rather than derived per chooser per year.
  std::vector<char> is_top10(n, 0);
  for (const char* code : Top10CountryCodes()) {
    const int c = CountryIndexByCode(code);
    if (c >= 0) is_top10[c] = 1;
  }
  std::vector<double> adoption_coin(providers.size() * n);
  for (size_t p = 0; p < providers.size(); ++p) {
    for (int c = 0; c < n; ++c) {
      adoption_coin[p * n + c] =
          double(util::HashString(std::string(providers[p].spec->group_key) +
                                  "|" + countries[c].code) >>
                 11) *
          0x1.0p-53;
    }
  }

  for (int year = cfg.first_year; year <= cfg.last_year; ++year) {
    util::Rng yr = lifecycle_rng.Fork("year:" + std::to_string(year));
    util::CivilDay y_start = util::YearStart(year);
    util::CivilDay y_end = util::YearEnd(year);
    int year_days = util::DaysInYear(year);

    std::vector<int> choosers;
    std::vector<char> is_chooser(w.domains_.size(), 0);
    auto add_chooser = [&](int id) {
      if (id < static_cast<int>(is_chooser.size()) && is_chooser[id]) return;
      if (id >= static_cast<int>(is_chooser.size())) {
        is_chooser.resize(id + 1, 0);
      }
      is_chooser[id] = 1;
      choosers.push_back(id);
    };

    // (a) Forced churn: providers that shut down last year.
    for (auto& prt : providers) {
      if (prt.spec->end_year != 0 && prt.spec->end_year == year - 1) {
        for (int id : prt.customers) {
          if (gen_state[id].alive && gen_state[id].provider >= 0 &&
              providers[gen_state[id].provider].spec == prt.spec) {
            add_chooser(id);
          }
        }
      }
    }
    // (b) Companies that folded last year: most customers migrate, some
    // linger forever (the dangling-delegation seed population).
    for (size_t ci = 0; ci < companies.size(); ++ci) {
      CompanyRuntime& crt = companies[ci];
      const NationalCompany& comp =
          w.country_rt_[crt.country].companies[crt.index_in_country];
      // Customers churn the year after their host folds; in the final
      // simulated year, same-year deaths churn too (there is no later year
      // to catch them).
      const bool died_last_year = comp.last_year == year - 1;
      const bool dies_final_year =
          year == cfg.last_year && comp.last_year == year;
      if (!died_last_year && !dies_final_year) continue;
      bool may_linger = available_ns_countries.empty()  // set later; year-1 ok
                        || available_ns_countries.contains(crt.country);
      for (int id : crt.customers) {
        if (!gen_state[id].alive || gen_state[id].company != static_cast<int>(ci)) {
          continue;
        }
        // Half the folded hosts keep one zombie customer, half keep two
        // (paper: 805 d_ns serve 1,121 domains, ~1.4 each).
        size_t linger_cap = 1 + (ci % 2);
        if (may_linger && crt.lingering.size() < linger_cap &&
            yr.Bernoulli(0.15)) {
          gen_state[id].lingering_on_dead_company = true;
          crt.lingering.push_back(id);
        } else {
          add_chooser(id);
        }
      }
    }

    // (c) Deaths, then (d) births per country.
    for (int c = 0; c < n; ++c) {
      auto& active = country_active[c];
      size_t out = 0;
      for (size_t k = 0; k < active.size(); ++k) {
        int id = active[k];
        DomainGenState& gs = gen_state[id];
        if (!gs.alive) continue;
        if (!gs.lingering_on_dead_company && !gs.is_apex &&
            year > cfg.first_year) {
          double p_death =
              gs.is_single_ns ? cfg.death_rate_1ns : cfg.death_rate;
          if (yr.Bernoulli(p_death)) {
            DomainTruth& d = w.domains_[id];
            d.death = y_start + static_cast<util::CivilDay>(
                                    yr.UniformU64(year_days));
            if (!d.epochs.empty()) d.epochs.back().days.last = d.death;
            gs.alive = false;
            if (gs.provider >= 0) --providers[gs.provider].customer_count;
            if (gs.company >= 0) --companies[gs.company].customer_count;
            --live_count[c];
            continue;
          }
        }
        active[out++] = id;
      }
      active.resize(out);

      int target = static_cast<int>(std::lround(TargetFor(c, year)));
      while (live_count[c] < target) {
        util::CivilDay birth =
            year == cfg.first_year
                ? util::YearStart(2010) +
                      static_cast<util::CivilDay>(yr.UniformU64(365))
                : y_start + static_cast<util::CivilDay>(yr.UniformU64(year_days));
        int id = create_domain(c, birth, yr);
        add_chooser(id);
      }
      // Shrinking targets (China 2020): extra deaths.
      int shrink_guard = static_cast<int>(active.size()) * 4 + 16;
      while (live_count[c] > target && !active.empty() && shrink_guard-- > 0) {
        size_t k = yr.UniformU64(active.size());
        int id = active[k];
        DomainGenState& gs = gen_state[id];
        if (gs.is_apex) continue;
        DomainTruth& d = w.domains_[id];
        // Consolidation-style shrinkage is dated to the closing weeks of
        // the *previous* year, so the decline registers as a year-over-year
        // dip in the PDNS counts (paper Fig. 2, the Chinese consolidation).
        d.death = y_start - 1 - static_cast<util::CivilDay>(yr.UniformU64(21));
        d.death = std::max(d.death, d.birth);
        if (!d.epochs.empty()) {
          d.death = std::max(d.death, d.epochs.back().days.first);
        }
        if (!d.epochs.empty()) d.epochs.back().days.last = d.death;
        gs.alive = false;
        if (gs.provider >= 0) --providers[gs.provider].customer_count;
        if (gs.company >= 0) --companies[gs.company].customer_count;
        active.erase(active.begin() + k);
        --live_count[c];
      }

      // (e) Voluntary switches and d_1NS upgrades.
      for (int id : active) {
        if (w.domains_[id].birth >= y_start) continue;  // newly born
        DomainGenState& gs = gen_state[id];
        if (gs.lingering_on_dead_company || gs.is_apex) continue;
        double p = cfg.switch_rate +
                   (gs.is_single_ns ? cfg.upgrade_rate_1ns : 0.0);
        if (yr.Bernoulli(p)) add_chooser(id);
      }
    }

    // (f) Demand-driven allocation.
    yr.Shuffle(choosers);
    std::vector<char> assigned(w.domains_.size(), 0);

    auto provider_target = [&](const ProviderSpec& spec) -> double {
      if (year < spec.start_year) return 0.0;
      if (spec.end_year != 0 && year > spec.end_year) return 0.0;
      double frac = std::clamp((year - 2011) / 9.0, 0.0, 1.0);
      double t = spec.domains_2011 +
                 (spec.domains_2020 - spec.domains_2011) * frac;
      // Providers that existed before 2011 already have their 2011 level;
      // late entrants ramp from zero at start_year.
      if (spec.start_year > 2011) {
        double ramp = std::clamp(
            double(year - spec.start_year + 1) /
                double(std::max(1, 2020 - spec.start_year + 1)),
            0.0, 1.0);
        t = spec.domains_2020 * ramp;
      }
      return t * cfg.scale;
    };

    for (size_t p = 0; p < providers.size(); ++p) {
      ProviderRuntime& prt = providers[p];
      const ProviderSpec& spec = *prt.spec;
      double target = provider_target(spec);
      double deficit = target - prt.customer_count;
      if (deficit >= 1.0) {
        // Sequential weighted sampling over unassigned choosers.
        double total_w = 0.0;
        std::vector<double> weights(choosers.size(), 0.0);
        double frac_cov = std::clamp((year - 2011) / 9.0, 0.0, 1.0);
        double coverage = spec.coverage_2011 +
                          (spec.coverage_2020 - spec.coverage_2011) * frac_cov;
        for (size_t j = 0; j < choosers.size(); ++j) {
          int id = choosers[j];
          if (assigned[id] || !gen_state[id].alive) continue;
          int country = w.domains_[id].country;
          if (!spec.country_focus.empty() &&
              spec.country_focus != countries[country].code) {
            continue;
          }
          // The adoption threshold grows with the provider's coverage, so
          // markets open monotonically over the decade (Table III
          // calibration).
          if (spec.country_focus.empty() &&
              adoption_coin[p * n + country] >= coverage) {
            continue;
          }
          double wgt = is_top10[country] ? 1.0 : spec.small_country_affinity;
          weights[j] = wgt;
          total_w += wgt;
        }
        double need = deficit;
        for (size_t j = 0; j < choosers.size() && need >= 0.5 && total_w > 0;
             ++j) {
          if (weights[j] <= 0.0) continue;
          double accept = need * weights[j] / total_w;
          total_w -= weights[j];
          if (yr.Bernoulli(std::min(1.0, accept))) {
            int id = choosers[j];
            // New domains (no deployment yet) are configured the day
            // they appear; switchers migrate on a random day of the year.
            util::CivilDay day =
                w.domains_[id].epochs.empty()
                    ? w.domains_[id].birth
                    : y_start + static_cast<util::CivilDay>(
                                    yr.UniformU64(year_days));
            ApplyAssignment(id, AssignProvider(id, static_cast<int>(p), yr),
                            day);
            assigned[id] = 1;
            need -= 1.0;
          }
        }
      } else if (deficit <= -2.0 && prt.customer_count > 0) {
        // Declining provider: force some customers out.
        int to_remove = static_cast<int>(-deficit);
        for (size_t j = 0; j < prt.customers.size() && to_remove > 0; ++j) {
          int id = prt.customers[j];
          if (!gen_state[id].alive ||
              gen_state[id].provider != static_cast<int>(p) || assigned[id]) {
            continue;
          }
          if (!yr.Bernoulli(0.5)) continue;
          add_chooser(id);  // will be reassigned below
          assigned.resize(std::max(assigned.size(), is_chooser.size()), 0);
          --to_remove;
        }
      }
    }

    // (g) Everyone else: private or national by country mix.
    for (int id : choosers) {
      if (id < static_cast<int>(assigned.size()) && assigned[id]) continue;
      if (!gen_state[id].alive) continue;
      const DomainTruth& d = w.domains_[id];
      const CountrySpec& spec = countries[d.country];
      double p_private =
          spec.private_share / (spec.private_share + spec.national_share);
      util::CivilDay day =
          d.epochs.empty()
              ? d.birth
              : y_start +
                    static_cast<util::CivilDay>(yr.UniformU64(year_days));
      day = std::min(day, y_end);
      NsAssignment a = yr.Bernoulli(p_private)
                           ? AssignPrivate(id, year, yr)
                           : AssignNational(id, year, yr);
      ApplyAssignment(id, a, day);
    }
  }
}

// ---------------------------------------------------------------------------
// Passive DNS
// ---------------------------------------------------------------------------

void World::Builder::PopulatePdns() {
  const util::CivilDay db_start = util::DayFromYmd(2010, 1, 1);
  const util::CivilDay db_end = util::DayFromYmd(2021, 2, 15);
  util::Rng prng = rng.Fork("pdns");
  pdns::PdnsSnapshotBuilder sightings(/*merge_gap_days=*/30);

  // Flash domains: names that exist for only a few days (expired
  // registrations, parked experiments, campaign one-offs). They carry
  // machine-generated labels, so the disposable-name filter keeps them out
  // of the query list, and their short record lifetimes are exactly what
  // the §III-C stability threshold exists to drop.
  static constexpr char kHex[] = "0123456789abcdef";
  for (int c = 0; c < static_cast<int>(w.country_rt_.size()); ++c) {
    const CountryRuntime& rt = w.country_rt_[c];
    for (int year = cfg.first_year; year <= cfg.last_year; ++year) {
      int n_flash = static_cast<int>(TargetFor(c, year) * 0.05);
      for (int k = 0; k < n_flash; ++k) {
        std::string label = "site-";
        for (int h = 0; h < 6; ++h) label += kHex[prng.UniformU64(16)];
        dns::Name name = rt.suffix.Child(label);
        util::CivilDay day = util::YearStart(year) +
                             static_cast<util::CivilDay>(prng.UniformU64(360));
        int len = 1 + static_cast<int>(prng.UniformU64(5));
        std::string ns = "ns" + std::to_string(1 + prng.UniformU64(2)) +
                         ".flashpark" +
                         std::to_string(1 + prng.UniformU64(4)) + ".net";
        sightings.ObserveInterval(name, dns::RRType::kNS, ns,
                                  {day, day + len - 1});
      }
    }
  }

  for (size_t i = 0; i < w.domains_.size(); ++i) {
    const DomainTruth& d = w.domains_[i];
    for (const NsEpoch& epoch : d.epochs) {
      util::DayInterval seen{std::max(epoch.days.first, db_start),
                             std::min(epoch.days.last, db_end)};
      if (seen.first > seen.last) continue;
      for (const dns::Name& ns : epoch.ns_names) {
        sightings.ObserveInterval(d.name, dns::RRType::kNS, ns.ToString(),
                                  seen);
      }
    }
    // Stale delegations and lingering zombies stay visible: sensors keep
    // seeing the parent-side records long after the child died.
    bool visible_to_end =
        d.fate == DomainFate::kStaleDelegation ||
        gen_state[i].lingering_on_dead_company;
    if (visible_to_end && !d.epochs.empty()) {
      const NsEpoch& last = d.epochs.back();
      util::CivilDay from = std::max(last.days.first, db_start);
      if (from <= db_end) {
        for (const dns::Name& ns : last.ns_names) {
          sightings.ObserveInterval(d.name, dns::RRType::kNS,
                                    ns.ToString(), {from, db_end});
        }
      }
    }
    // Short-lived junk records (the 7-day stability filter's prey).
    for (int year = cfg.first_year; year <= cfg.last_year; ++year) {
      util::CivilDay ys = util::YearStart(year);
      util::CivilDay ye = util::YearEnd(year);
      if (d.birth > ye || d.death < ys) continue;
      if (!prng.Bernoulli(cfg.transient_record_rate)) continue;
      util::CivilDay day =
          ys + static_cast<util::CivilDay>(prng.UniformU64(300));
      int len = 1 + static_cast<int>(prng.UniformU64(cfg.transient_max_days));
      std::string shield =
          "ns" + std::to_string(1 + prng.UniformU64(2)) + ".ddosshield" +
          std::to_string(1 + prng.UniformU64(3)) + ".net";
      sightings.ObserveInterval(d.name, dns::RRType::kNS, shield,
                                {day, day + len - 1});
    }
  }
  w.pdns_ = sightings.Build();
}

}  // namespace govdns::worldgen
