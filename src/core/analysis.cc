#include "core/analysis.h"

#include <algorithm>
#include <set>
#include <string_view>
#include <unordered_map>

namespace govdns::core {

namespace {

// True when the NS host fails to serve the domain (the paper's defective
// criterion: listed but "does not answer queries for that zone").
bool HostDefective(const NsHostResult& host) {
  return host.status != NsHostStatus::kAuthoritative;
}

// Longest-match seed attribution by suffix lookup. The seeds enclosing a
// name are among its ancestors, and two enclosing seeds with the same label
// count are the same name (duplicate seed rows, possibly with conflicting
// country metadata). So walking the name's ancestors from the longest down
// and stopping at the first seed name finds the longest match, in at most
// LabelCount() + 1 probes; each name maps to its first seed in input order,
// so attribution never depends on which duplicate is listed last.
class SeedIndex {
 public:
  // Keeps views of the seeds' names: `seeds` must outlive the index and
  // stay unmodified.
  explicit SeedIndex(const std::vector<SeedDomain>& seeds);

  // The seed whose d_gov is the longest one `name` equals or lies under
  // (the first in input order among duplicates); nullptr if none does.
  const SeedDomain* Find(const dns::Name& name) const;

 private:
  std::unordered_map<std::string_view, const SeedDomain*> first_;
};

SeedIndex::SeedIndex(const std::vector<SeedDomain>& seeds) {
  first_.reserve(seeds.size());
  // emplace never replaces, so a duplicate name keeps its first seed.
  for (const SeedDomain& seed : seeds) {
    first_.emplace(seed.d_gov.CanonicalKey(), &seed);
  }
}

const SeedDomain* SeedIndex::Find(const dns::Name& name) const {
  // The ancestors' keys are the prefixes of the name's key that end at a
  // label boundary, down to the root's empty key.
  std::string_view key = name.CanonicalKey();
  for (;;) {
    if (const auto it = first_.find(key); it != first_.end()) return it->second;
    if (key.empty()) return nullptr;
    const size_t sep = key.rfind('\0');
    key = key.substr(0, sep == std::string_view::npos ? 0 : sep);
  }
}

}  // namespace

ActiveDataset ActiveDataset::Build(std::vector<MeasurementResult> results,
                                   std::vector<SeedDomain> seeds,
                                   std::vector<CountryMeta> metas) {
  ActiveDataset out;
  out.results = std::move(results);
  out.seeds = std::move(seeds);
  out.metas = std::move(metas);
  out.country.resize(out.results.size(), -1);
  // Longest match (jis.gov.jm-style seeds can nest under a TLD another seed
  // also uses), first seed in input order among duplicates.
  const SeedIndex index(out.seeds);
  for (size_t i = 0; i < out.results.size(); ++i) {
    if (const SeedDomain* seed = index.Find(out.results[i].domain)) {
      out.country[i] = seed->country;
    }
  }
  return out;
}

ActiveDataset::Funnel ActiveDataset::ComputeFunnel() const {
  Funnel funnel;
  funnel.queried = static_cast<int64_t>(results.size());
  for (const MeasurementResult& r : results) {
    if (r.parent_responded) ++funnel.parent_responded;
    if (r.parent_has_records) ++funnel.parent_has_records;
    if (r.child_any_authoritative) ++funnel.child_authoritative;
  }
  return funnel;
}

// ---------------------------------------------------------------------------
// Replication
// ---------------------------------------------------------------------------

ReplicationSummary AnalyzeReplication(const ActiveDataset& dataset) {
  ReplicationSummary out;
  std::map<int, int64_t> count_hist;
  std::map<int, ReplicationSummary::CountryRow> by_country;

  for (size_t i = 0; i < dataset.results.size(); ++i) {
    const MeasurementResult& r = dataset.results[i];
    if (!r.parent_has_records) continue;
    ++out.domains_considered;
    int ns_count = static_cast<int>(r.AllNs().size());
    ++count_hist[ns_count];

    int c = dataset.country[i];
    ReplicationSummary::CountryRow* row = nullptr;
    if (c >= 0) {
      row = &by_country[c];
      row->code = dataset.metas[c].code;
      ++row->domains;
    }
    if (ns_count == 1) {
      ++out.d1ns_count;
      bool stale = !r.child_any_authoritative;
      if (stale) {
        out.d1ns_stale_pct += 1.0;  // numerator for now
      }
      if (row != nullptr) {
        ++row->d1ns;
        if (stale) ++row->d1ns_stale;
      }
    } else if (row != nullptr) {
      ++row->min_two;
    }
  }

  int64_t cumulative = 0;
  for (const auto& [count, freq] : count_hist) {
    cumulative += freq;
    out.ns_count_cdf.emplace_back(
        count, double(cumulative) / double(out.domains_considered));
  }
  if (out.domains_considered > 0) {
    int64_t singles = count_hist.count(1) ? count_hist[1] : 0;
    out.pct_at_least_two =
        1.0 - double(singles) / double(out.domains_considered);
  }
  if (out.d1ns_count > 0) {
    out.d1ns_stale_pct /= double(out.d1ns_count);
  }
  for (auto& [c, row] : by_country) out.by_country.push_back(std::move(row));
  return out;
}

// ---------------------------------------------------------------------------
// Diversity (Table I)
// ---------------------------------------------------------------------------

namespace {

struct DiversityAcc {
  int64_t domains = 0;
  int64_t multi_ip = 0;
  int64_t multi_24 = 0;
  int64_t multi_asn = 0;

  DiversityRow Finish(std::string label) const {
    DiversityRow row;
    row.label = std::move(label);
    row.domains = domains;
    if (domains > 0) {
      row.pct_multi_ip = double(multi_ip) / double(domains);
      row.pct_multi_24 = double(multi_24) / double(domains);
      row.pct_multi_asn = double(multi_asn) / double(domains);
    }
    return row;
  }
};

}  // namespace

std::vector<DiversityRow> AnalyzeDiversity(
    const ActiveDataset& dataset, const geo::AsnDatabase& asn_db,
    const std::vector<std::string>& country_codes) {
  return AnalyzeDiversity(dataset, asn_db, country_codes, nullptr);
}

std::vector<DiversityRow> AnalyzeDiversity(
    const ActiveDataset& dataset, const geo::AsnDatabase& asn_db,
    const std::vector<std::string>& country_codes,
    std::vector<LevelDiversityRow>* by_level) {
  DiversityAcc total;
  std::map<std::string, DiversityAcc> per_country;
  std::map<int, std::string> wanted;  // country index -> code
  for (size_t i = 0; i < dataset.metas.size(); ++i) {
    for (const std::string& code : country_codes) {
      if (dataset.metas[i].code == code) wanted[static_cast<int>(i)] = code;
    }
  }
  std::vector<DiversityAcc> levels;  // indexed by label count

  for (size_t i = 0; i < dataset.results.size(); ++i) {
    const MeasurementResult& r = dataset.results[i];
    if (!r.parent_has_records) continue;
    if (r.AllNs().size() < 2) continue;  // multi-NS domains only
    std::vector<geo::IPv4> addrs = r.NsAddresses();
    if (addrs.empty()) continue;

    std::set<uint32_t> prefixes;
    std::set<uint32_t> asns;
    for (geo::IPv4 ip : addrs) {
      prefixes.insert(ip.Slash24().bits());
      if (auto info = asn_db.Lookup(ip)) asns.insert(info->asn);
    }
    auto bump = [&](DiversityAcc& acc) {
      ++acc.domains;
      if (addrs.size() > 1) ++acc.multi_ip;
      if (prefixes.size() > 1) ++acc.multi_24;
      if (asns.size() > 1) ++acc.multi_asn;
    };
    bump(total);
    int c = dataset.country[i];
    if (c >= 0) {
      auto it = wanted.find(c);
      if (it != wanted.end()) bump(per_country[it->second]);
    }
    const size_t level = r.domain.LabelCount();
    if (levels.size() <= level) levels.resize(level + 1);
    bump(levels[level]);
  }

  std::vector<DiversityRow> rows;
  rows.push_back(total.Finish("Total"));
  for (const std::string& code : country_codes) {
    auto it = per_country.find(code);
    rows.push_back(it == per_country.end() ? DiversityRow{code, 0, 0, 0, 0}
                                           : it->second.Finish(code));
  }
  if (by_level != nullptr) {
    by_level->clear();
    for (size_t level = 0; level < levels.size(); ++level) {
      const DiversityAcc& acc = levels[level];
      if (acc.domains == 0) continue;
      by_level->push_back({static_cast<int>(level), acc.domains,
                           double(acc.multi_24) / double(acc.domains)});
    }
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Defective delegations
// ---------------------------------------------------------------------------

DelegationHealth ClassifyDelegation(const MeasurementResult& result) {
  int64_t parent_hosts = 0;
  int64_t defective = 0;
  for (const NsHostResult& host : result.hosts) {
    if (!host.in_parent_set) continue;
    ++parent_hosts;
    if (HostDefective(host)) ++defective;
  }
  if (parent_hosts == 0 || defective == 0) return DelegationHealth::kHealthy;
  return defective == parent_hosts ? DelegationHealth::kFullyDefective
                                   : DelegationHealth::kPartiallyDefective;
}

DelegationSummary AnalyzeDelegations(const ActiveDataset& dataset) {
  DelegationSummary out;
  std::map<int, DelegationSummary::CountryRow> by_country;
  for (size_t i = 0; i < dataset.results.size(); ++i) {
    const MeasurementResult& r = dataset.results[i];
    if (!r.parent_has_records) continue;
    ++out.domains_considered;
    DelegationHealth health = ClassifyDelegation(r);
    int c = dataset.country[i];
    DelegationSummary::CountryRow* row = nullptr;
    if (c >= 0) {
      row = &by_country[c];
      row->code = dataset.metas[c].code;
      ++row->domains;
    }
    if (health == DelegationHealth::kPartiallyDefective) {
      ++out.partially_defective;
      if (row != nullptr) ++row->partial;
    } else if (health == DelegationHealth::kFullyDefective) {
      ++out.fully_defective;
      if (row != nullptr) ++row->full;
    }
  }
  for (auto& [c, row] : by_country) out.by_country.push_back(std::move(row));
  return out;
}

// ---------------------------------------------------------------------------
// Parent/child consistency
// ---------------------------------------------------------------------------

ConsistencyClass ClassifyConsistency(const MeasurementResult& result) {
  if (!result.parent_has_records || result.child_ns.empty() ||
      !result.child_any_authoritative) {
    return ConsistencyClass::kNotComparable;
  }
  std::set<dns::Name> p(result.parent_ns.begin(), result.parent_ns.end());
  std::set<dns::Name> c(result.child_ns.begin(), result.child_ns.end());
  if (p == c) return ConsistencyClass::kEqual;
  std::vector<dns::Name> common;
  std::set_intersection(p.begin(), p.end(), c.begin(), c.end(),
                        std::back_inserter(common));
  if (!common.empty()) {
    if (std::includes(c.begin(), c.end(), p.begin(), p.end())) {
      return ConsistencyClass::kChildSuperset;
    }
    if (std::includes(p.begin(), p.end(), c.begin(), c.end())) {
      return ConsistencyClass::kParentSuperset;
    }
    return ConsistencyClass::kOverlapNeither;
  }
  // Disjoint name sets: compare IP(P) vs IP(C).
  std::set<geo::IPv4> ip_p, ip_c;
  for (const NsHostResult& host : result.hosts) {
    for (geo::IPv4 ip : host.addresses) {
      if (p.contains(host.host)) ip_p.insert(ip);
      if (c.contains(host.host)) ip_c.insert(ip);
    }
  }
  for (geo::IPv4 ip : ip_p) {
    if (ip_c.contains(ip)) return ConsistencyClass::kDisjointSharedIp;
  }
  return ConsistencyClass::kDisjoint;
}

ConsistencySummary AnalyzeConsistency(const ActiveDataset& dataset) {
  ConsistencySummary out;
  std::map<int, ConsistencySummary::CountryRow> by_country;
  int64_t disagree_total = 0;
  int64_t disagree_with_defect = 0;

  for (size_t i = 0; i < dataset.results.size(); ++i) {
    const MeasurementResult& r = dataset.results[i];
    ConsistencyClass klass = ClassifyConsistency(r);
    if (klass == ConsistencyClass::kNotComparable) continue;
    ++out.comparable;
    ++out.counts[klass];
    int level = static_cast<int>(r.domain.LabelCount());
    auto& [equal, total] = out.by_level[level];
    ++total;
    if (klass == ConsistencyClass::kEqual) ++equal;

    int c = dataset.country[i];
    if (c >= 0) {
      auto& row = by_country[c];
      row.code = dataset.metas[c].code;
      ++row.comparable;
      if (klass != ConsistencyClass::kEqual) ++row.disagree;
    }
    if (klass != ConsistencyClass::kEqual) {
      ++disagree_total;
      if (ClassifyDelegation(r) != DelegationHealth::kHealthy) {
        ++disagree_with_defect;
      }
    }
  }
  if (out.comparable > 0) {
    out.pct_equal =
        double(out.counts[ConsistencyClass::kEqual]) / double(out.comparable);
  }
  if (disagree_total > 0) {
    out.pct_disagree_with_partial_defect =
        double(disagree_with_defect) / double(disagree_total);
  }
  for (auto& [c, row] : by_country) out.by_country.push_back(std::move(row));
  return out;
}

// ---------------------------------------------------------------------------
// Hijack risk
// ---------------------------------------------------------------------------

HijackSummary AnalyzeHijackRisk(const ActiveDataset& dataset,
                                const registrar::PublicSuffixList& psl,
                                const registrar::RegistrarClient& registrar) {
  HijackSummary out;

  const SeedIndex seeds(dataset.seeds);
  auto is_government = [&](const dns::Name& name) {
    return seeds.Find(name) != nullptr;
  };

  struct NsDomainInfo {
    std::set<size_t> domains;   // result indices referencing it
    std::set<int> countries;
  };
  std::map<dns::Name, NsDomainInfo> defective_refs;
  std::map<dns::Name, NsDomainInfo> dangling_refs;

  for (size_t i = 0; i < dataset.results.size(); ++i) {
    const MeasurementResult& r = dataset.results[i];
    if (!r.parent_has_records) continue;
    const bool any_defect = ClassifyDelegation(r) != DelegationHealth::kHealthy;
    ConsistencyClass klass = ClassifyConsistency(r);

    if (any_defect) {
      for (const NsHostResult& host : r.hosts) {
        if (!host.in_parent_set || !HostDefective(host)) continue;
        if (is_government(host.host)) continue;
        auto reg = psl.RegisteredDomain(host.host);
        if (!reg) continue;
        auto& info = defective_refs[*reg];
        info.domains.insert(i);
        if (dataset.country[i] >= 0) info.countries.insert(dataset.country[i]);
      }
    } else if (klass != ConsistencyClass::kEqual &&
               klass != ConsistencyClass::kNotComparable) {
      // §IV-D: inconsistent but fully responsive — dangling candidates are
      // the NS names not present in both P and C.
      std::set<dns::Name> p(r.parent_ns.begin(), r.parent_ns.end());
      std::set<dns::Name> c(r.child_ns.begin(), r.child_ns.end());
      for (const NsHostResult& host : r.hosts) {
        bool in_both = p.contains(host.host) && c.contains(host.host);
        if (in_both || is_government(host.host)) continue;
        auto reg = psl.RegisteredDomain(host.host);
        if (!reg) continue;
        auto& info = dangling_refs[*reg];
        info.domains.insert(i);
        if (dataset.country[i] >= 0) info.countries.insert(dataset.country[i]);
      }
    }
  }

  std::map<int, HijackSummary::CountryRow> by_country;
  std::set<size_t> affected_domains;
  std::set<int> affected_countries;
  out.candidate_ns_domains = static_cast<int64_t>(defective_refs.size());
  for (const auto& [reg, info] : defective_refs) {
    if (!registrar.IsAvailable(reg)) continue;
    ++out.available_ns_domains;
    if (auto price = registrar.PriceUsd(reg)) out.prices_usd.push_back(*price);
    if (info.countries.size() > 1) ++out.multi_country_ns_domains;
    affected_domains.insert(info.domains.begin(), info.domains.end());
    affected_countries.insert(info.countries.begin(), info.countries.end());
    for (int c : info.countries) {
      auto& row = by_country[c];
      row.code = dataset.metas[c].code;
      ++row.available_ns_domains;
    }
    for (size_t i : info.domains) {
      int c = dataset.country[i];
      if (c >= 0) ++by_country[c].affected_domains;
    }
  }
  out.affected_domains = static_cast<int64_t>(affected_domains.size());
  out.affected_countries = static_cast<int64_t>(affected_countries.size());
  for (auto& [c, row] : by_country) out.by_country.push_back(std::move(row));

  std::set<size_t> dangling_domains;
  std::set<int> dangling_countries;
  for (const auto& [reg, info] : dangling_refs) {
    if (!registrar.IsAvailable(reg)) continue;
    ++out.dangling_available_ns;
    if (auto price = registrar.PriceUsd(reg)) {
      out.dangling_prices_usd.push_back(*price);
    }
    dangling_domains.insert(info.domains.begin(), info.domains.end());
    dangling_countries.insert(info.countries.begin(), info.countries.end());
  }
  out.dangling_domains = static_cast<int64_t>(dangling_domains.size());
  out.dangling_countries = static_cast<int64_t>(dangling_countries.size());
  return out;
}

}  // namespace govdns::core
