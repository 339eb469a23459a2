// Country audit: the per-country slice of the study — what a national CERT
// would want to know about its government namespace.
//
//   ./country_audit [cc] [scale]    (defaults: "br", 0.05)
//
// Prints the country's d_gov, replication profile, defective delegations
// (with the offending nameservers), consistency, provider dependence, and
// registrable dangling nameserver domains.
#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "core/analysis.h"
#include "core/providers.h"
#include "core/study.h"
#include "scale_arg.h"
#include "util/strings.h"
#include "util/table.h"
#include "worldgen/adapter.h"
#include "worldgen/countries.h"

int main(int argc, char** argv) {
  using namespace govdns;
  std::string code = argc > 1 ? argv[1] : "br";
  worldgen::WorldConfig config;
  config.scale = examples::ScaleArg(argc, argv, 2, "[cc] [scale]");
  // The country codes are known before any world exists.
  if (worldgen::CountryIndexByCode(code) < 0) {
    std::fprintf(stderr,
                 "usage: %s [cc] [scale]\n  cc: a country code, not '%s'\n",
                 argv[0], code.c_str());
    return 2;
  }
  auto world = worldgen::BuildWorld(config);
  auto bound = worldgen::MakeStudy(*world);
  core::Study& study = *bound.study;
  study.RunAll();

  const auto& dataset = study.active();
  int country = -1;
  for (size_t i = 0; i < dataset.metas.size(); ++i) {
    if (dataset.metas[i].code == code) country = static_cast<int>(i);
  }
  if (country < 0) {
    std::fprintf(stderr, "unknown country code: %s\n", code.c_str());
    return 1;
  }
  const core::SeedDomain* seed = nullptr;
  for (const auto& s : study.seeds()) {
    if (s.country == country) seed = &s;
  }
  std::printf("== audit of %s (%s) ==\n", dataset.metas[country].name.c_str(),
              seed ? seed->d_gov.ToString().c_str() : "no seed");

  // Per-country funnel and replication.
  int64_t queried = 0, responsive = 0, d1ns = 0, d1ns_stale = 0;
  int64_t partial = 0, full = 0, comparable = 0, disagree = 0;
  std::map<std::string, int64_t> provider_use;
  std::map<std::string, std::set<std::string>> bad_ns;  // host -> domains
  core::ProviderMatcher matcher(core::DefaultProviderRules());

  for (size_t i = 0; i < dataset.results.size(); ++i) {
    if (dataset.country[i] != country) continue;
    const auto& r = dataset.results[i];
    ++queried;
    if (!r.parent_has_records) continue;
    ++responsive;
    if (r.AllNs().size() == 1) {
      ++d1ns;
      if (!r.child_any_authoritative) ++d1ns_stale;
    }
    auto health = core::ClassifyDelegation(r);
    if (health == core::DelegationHealth::kPartiallyDefective) ++partial;
    if (health == core::DelegationHealth::kFullyDefective) ++full;
    if (health != core::DelegationHealth::kHealthy) {
      for (const auto& host : r.hosts) {
        if (host.in_parent_set &&
            host.status != core::NsHostStatus::kAuthoritative) {
          bad_ns[host.host.ToString()].insert(r.domain.ToString());
        }
      }
    }
    auto klass = core::ClassifyConsistency(r);
    if (klass != core::ConsistencyClass::kNotComparable) {
      ++comparable;
      if (klass != core::ConsistencyClass::kEqual) ++disagree;
    }
    for (const auto& ns : r.AllNs()) {
      int m = matcher.MatchNs(ns.ToString());
      if (m >= 0) ++provider_use[matcher.rules()[m].group_key];
    }
  }

  std::printf("domains queried: %lld, responsive: %lld\n",
              static_cast<long long>(queried),
              static_cast<long long>(responsive));
  if (responsive == 0) return 0;
  std::printf("single-NS domains: %lld (stale: %lld)\n",
              static_cast<long long>(d1ns),
              static_cast<long long>(d1ns_stale));
  std::printf("defective delegations: %s partial, %s full\n",
              util::Percent(double(partial) / responsive).c_str(),
              util::Percent(double(full) / responsive).c_str());
  if (comparable > 0) {
    std::printf("parent/child disagreement: %s of %lld comparable\n",
                util::Percent(double(disagree) / comparable).c_str(),
                static_cast<long long>(comparable));
  }

  if (!provider_use.empty()) {
    std::printf("\nthird-party provider exposure:\n");
    std::vector<std::pair<int64_t, std::string>> ranked;
    for (const auto& [key, n] : provider_use) ranked.emplace_back(n, key);
    std::sort(ranked.rbegin(), ranked.rend());
    for (size_t i = 0; i < ranked.size() && i < 8; ++i) {
      std::printf("  %-24s %lld NS references\n", ranked[i].second.c_str(),
                  static_cast<long long>(ranked[i].first));
    }
  }

  if (!bad_ns.empty()) {
    std::printf("\nworst offending nameservers (defective, by victim count):\n");
    std::vector<std::pair<size_t, std::string>> ranked;
    for (const auto& [host, victims] : bad_ns) {
      ranked.emplace_back(victims.size(), host);
    }
    std::sort(ranked.rbegin(), ranked.rend());
    for (size_t i = 0; i < ranked.size() && i < 10; ++i) {
      std::printf("  %-40s affects %zu domains\n", ranked[i].second.c_str(),
                  ranked[i].first);
    }
  }
  return 0;
}
