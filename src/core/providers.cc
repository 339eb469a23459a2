#include "core/providers.h"

#include <algorithm>
#include <map>
#include <set>

#include "util/strings.h"

namespace govdns::core {

std::vector<ProviderRule> DefaultProviderRules() {
  std::vector<ProviderRule> rules;
  auto add = [&](std::string group, std::string display,
                 std::vector<std::string> suffixes,
                 std::vector<std::string> substrings, bool major) {
    ProviderRule rule;
    rule.group_key = std::move(group);
    rule.display = std::move(display);
    rule.ns_suffixes = std::move(suffixes);
    rule.ns_substrings = std::move(substrings);
    for (const std::string& s : rule.ns_suffixes) {
      rule.soa_suffixes.push_back(s);
    }
    rule.major = major;
    rules.push_back(std::move(rule));
  };

  // Majors (Table II).
  add("AWS DNS", "Amazon", {}, {".awsdns-"}, true);
  add("Azure DNS", "Azure", {}, {".azure-dns."}, true);
  add("cloudflare.com", "Cloudflare", {".ns.cloudflare.com"}, {}, true);
  add("dnspod.net", "DNSPod", {".dnspod.net"}, {}, true);
  add("dnsmadeeasy.com", "DNSMadeEasy", {".dnsmadeeasy.com"}, {}, true);
  add("dynect.net", "Dyn", {".dynect.net"}, {}, true);
  add("domaincontrol.com", "GoDaddy", {".domaincontrol.com"}, {}, true);
  add("ultradns.net", "UltraDNS", {".ultradns.net"}, {}, true);

  // The wider pool (Table III and the long tail).
  add("websitewelcome.com", "websitewelcome.com", {".websitewelcome.com"}, {},
      false);
  add("Hostgator", "Hostgator", {".hostgator.com", ".hostgator.com.br"}, {},
      false);
  add("zoneedit.com", "zoneedit.com", {".zoneedit.com"}, {}, false);
  add("dreamhost.com", "dreamhost.com", {".dreamhost.com"}, {}, false);
  add("bluehost.com", "bluehost.com", {".bluehost.com"}, {}, false);
  add("ixwebhosting.com", "ixwebhosting.com", {".ixwebhosting.com"}, {},
      false);
  add("hostmonster.com", "hostmonster.com", {".hostmonster.com"}, {}, false);
  add("everydns.net", "everydns.net", {".everydns.net"}, {}, false);
  add("pipedns.com", "pipedns.com", {".pipedns.com"}, {}, false);
  add("stabletransit.com", "stabletransit.com", {".stabletransit.com"}, {},
      false);
  add("digitalocean.com", "digitalocean.com", {".digitalocean.com"}, {},
      false);
  add("microsoftonline.com", "microsoftonline.com", {".microsoftonline.com"},
      {}, false);
  add("wixdns.net", "wixdns.net", {".wixdns.net"}, {}, false);
  add("cloudns.net", "cloudns.net", {".cloudns.net"}, {}, false);
  add("hichina.com", "HiChina", {".hichina.com"}, {}, false);
  add("xincache.com", "XinNet", {".xincache.com"}, {}, false);
  add("dns-diy.com", "DNS-DIY", {".dns-diy.com"}, {}, false);
  return rules;
}

ProviderMatcher::ProviderMatcher(std::vector<ProviderRule> rules)
    : rules_(std::move(rules)) {}

int ProviderMatcher::MatchNs(std::string_view hostname) const {
  for (size_t i = 0; i < rules_.size(); ++i) {
    const ProviderRule& rule = rules_[i];
    for (const std::string& suffix : rule.ns_suffixes) {
      if (util::EndsWithIgnoreCase(hostname, suffix)) {
        return static_cast<int>(i);
      }
    }
    for (const std::string& sub : rule.ns_substrings) {
      if (util::ContainsIgnoreCase(hostname, sub)) return static_cast<int>(i);
    }
  }
  return -1;
}

int ProviderMatcher::MatchSoa(const dns::SoaRdata& soa) const {
  int m = MatchNs(soa.mname.ToString());
  if (m >= 0) return m;
  for (size_t i = 0; i < rules_.size(); ++i) {
    for (const std::string& suffix : rules_[i].soa_suffixes) {
      if (util::EndsWithIgnoreCase(soa.rname.ToString(), suffix)) {
        return static_cast<int>(i);
      }
    }
  }
  return -1;
}

ProviderAnalyzer::ProviderAnalyzer(const ProviderMatcher* matcher,
                                   std::vector<CountryMeta> countries)
    : matcher_(matcher), countries_(std::move(countries)) {
  GOVDNS_CHECK(matcher != nullptr);
}

ProviderYearTable ProviderAnalyzer::Analyze(const MinedDataset& dataset,
                                            int year) const {
  const int y = year - dataset.config.first_year;
  GOVDNS_CHECK(y >= 0 && y < dataset.config.year_count());

  const auto& rules = matcher_->rules();
  ProviderYearTable table;
  table.year = year;

  // Grouping units that exist at all: distinct sub-regions + top-10.
  std::set<std::string> all_groups;
  for (const CountryMeta& meta : countries_) {
    all_groups.insert(ProviderGroupKey(meta));
  }
  table.total_groups = static_cast<int64_t>(all_groups.size());

  // Interned NS id -> rule match, computed lazily once.
  std::vector<int> ns_match(dataset.ns_count(), -2);
  auto match_of = [&](int32_t id) {
    if (ns_match[id] == -2) ns_match[id] = matcher_->MatchNs(dataset.NsName(id));
    return ns_match[id];
  };

  struct Acc {
    int64_t domains = 0;
    int64_t d1p = 0;
    std::set<std::string> groups;
    std::set<int> countries;
  };
  std::vector<Acc> acc(rules.size());

  for (size_t d = 0; d < dataset.domains.size(); ++d) {
    if (!dataset.HasData(d, y)) continue;
    ++table.total_domains;
    const int country = dataset.domains[d].country;
    std::set<int> matched;
    bool any_unmatched = false;
    for (int32_t id : dataset.NsIds(d, y)) {
      int m = match_of(id);
      if (m >= 0) {
        matched.insert(m);
      } else {
        any_unmatched = true;
      }
    }
    if (matched.empty()) continue;
    const CountryMeta& meta = countries_[country];
    for (int m : matched) {
      ++acc[m].domains;
      acc[m].groups.insert(ProviderGroupKey(meta));
      acc[m].countries.insert(country);
      // d_1P: the whole NS set belongs to this single provider.
      if (matched.size() == 1 && !any_unmatched) ++acc[m].d1p;
    }
  }

  for (size_t i = 0; i < rules.size(); ++i) {
    ProviderYearRow row;
    row.group_key = rules[i].group_key;
    row.display = rules[i].display;
    row.year = year;
    row.domains = acc[i].domains;
    row.d1p = acc[i].d1p;
    row.groups = static_cast<int64_t>(acc[i].groups.size());
    row.countries = static_cast<int64_t>(acc[i].countries.size());
    row.major = rules[i].major;
    table.rows.push_back(std::move(row));
  }
  return table;
}

std::vector<ProviderYearRow> ProviderAnalyzer::TopByCountries(
    const ProviderYearTable& table, size_t n) {
  std::vector<ProviderYearRow> rows = table.rows;
  std::stable_sort(rows.begin(), rows.end(),
                   [](const ProviderYearRow& a, const ProviderYearRow& b) {
                     if (a.countries != b.countries) {
                       return a.countries > b.countries;
                     }
                     return a.domains > b.domains;
                   });
  if (rows.size() > n) rows.resize(n);
  return rows;
}

int64_t ProviderAnalyzer::MaxCountriesAnyProvider(
    const ProviderYearTable& table) {
  int64_t best = 0;
  for (const ProviderYearRow& row : table.rows) {
    best = std::max(best, row.countries);
  }
  return best;
}

}  // namespace govdns::core
