// Hijack scan: enumerate registrable nameserver domains that government
// domains still delegate to — the §IV-C/D attack surface — and print a
// responsible-disclosure-style report with registration prices.
//
//   ./hijack_scan [scale]    (default 0.05)
#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "core/analysis.h"
#include "core/study.h"
#include "scale_arg.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"
#include "worldgen/adapter.h"

int main(int argc, char** argv) {
  using namespace govdns;
  worldgen::WorldConfig config;
  config.scale = examples::ScaleArg(argc, argv, 1, "[scale]");
  auto world = worldgen::BuildWorld(config);
  auto bound = worldgen::MakeStudy(*world);
  core::Study& study = *bound.study;
  study.RunAll();

  const auto& dataset = study.active();
  const auto& psl = world->psl();
  const auto& registrar = world->registrar_client();

  // Collect (available d_ns -> victims) directly so the report can name
  // names; AnalyzeHijackRisk provides the same data in aggregate.
  struct Finding {
    std::set<std::string> domains;
    std::set<std::string> countries;
    double price = 0.0;
    bool parked = false;
  };
  std::map<std::string, Finding> findings;

  auto is_government = [&](const dns::Name& name) {
    for (const auto& seed : study.seeds()) {
      if (name.IsSubdomainOf(seed.d_gov)) return true;
    }
    return false;
  };

  for (size_t i = 0; i < dataset.results.size(); ++i) {
    const auto& r = dataset.results[i];
    if (!r.parent_has_records) continue;
    bool defective = core::ClassifyDelegation(r) !=
                     core::DelegationHealth::kHealthy;
    auto klass = core::ClassifyConsistency(r);
    bool inconsistent = klass != core::ConsistencyClass::kEqual &&
                        klass != core::ConsistencyClass::kNotComparable;
    if (!defective && !inconsistent) continue;
    for (const auto& host : r.hosts) {
      bool risky = defective
                       ? (host.in_parent_set &&
                          host.status != core::NsHostStatus::kAuthoritative)
                       : !(host.in_parent_set && host.in_child_set);
      if (!risky || is_government(host.host)) continue;
      auto reg = psl.RegisteredDomain(host.host);
      if (!reg || !registrar.IsAvailable(*reg)) continue;
      auto& finding = findings[reg->ToString()];
      finding.domains.insert(r.domain.ToString());
      if (dataset.country[i] >= 0) {
        finding.countries.insert(dataset.metas[dataset.country[i]].code);
      }
      finding.price = registrar.PriceUsd(*reg).value_or(0.0);
      finding.parked = !defective;
    }
  }

  std::printf("== hijackable nameserver domains: %zu ==\n", findings.size());
  std::vector<std::pair<size_t, std::string>> ranked;
  std::vector<double> prices;
  for (const auto& [dns_domain, finding] : findings) {
    ranked.emplace_back(finding.domains.size(), dns_domain);
    prices.push_back(finding.price);
  }
  std::sort(ranked.rbegin(), ranked.rend());

  util::TextTable table({"Nameserver domain", "Price (USD)", "Victims",
                         "Countries", "Kind"});
  for (size_t i = 0; i < ranked.size() && i < 25; ++i) {
    const Finding& finding = findings[ranked[i].second];
    char price[32];
    std::snprintf(price, sizeof(price), "%.2f", finding.price);
    table.AddRow({ranked[i].second, price,
                  std::to_string(finding.domains.size()),
                  util::Join({finding.countries.begin(),
                              finding.countries.end()}, ","),
                  finding.parked ? "parked (responsive)" : "lame"});
  }
  table.Print(std::cout);

  if (!prices.empty()) {
    std::printf("\ntotal cost to acquire every listed domain: %.2f USD; "
                "median %.2f\n",
                [&] { double s = 0; for (double p : prices) s += p; return s; }(),
                util::Median(prices));
  }
  std::printf("(each entry means: registering that domain lets an attacker "
              "answer DNS for the victim government domains)\n");
  return 0;
}
