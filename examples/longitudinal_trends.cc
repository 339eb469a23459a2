// Longitudinal trends: the passive-DNS decade in one report — namespace
// growth, the single-nameserver population, private-deployment share, and
// provider centralization (the paper's §IV-A/B narrative).
//
//   ./longitudinal_trends [scale]    (default 0.05)
#include <cstdio>
#include <iostream>

#include "core/mining.h"
#include "core/providers.h"
#include "core/study.h"
#include "scale_arg.h"
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
  study.RunSelection();
  study.RunMining();

  const auto& dataset = study.mined();
  auto counts = core::CountPerYear(dataset);
  auto churn = core::D1nsChurn(dataset);
  auto private_share = core::PrivateShare(dataset, study.seeds());

  util::TextTable table({"Year", "Domains", "NS hosts", "d_1NS",
                         "d_1NS private", "all private"});
  for (size_t y = 0; y < counts.size(); ++y) {
    table.AddRow({std::to_string(counts[y].year),
                  util::WithCommas(counts[y].domains),
                  util::WithCommas(counts[y].nameservers),
                  util::WithCommas(churn[y].d1ns_total),
                  util::Percent(private_share[y].pct_d1ns_private),
                  util::Percent(private_share[y].pct_all_private)});
  }
  std::printf("== a decade of government DNS ==\n");
  table.Print(std::cout);

  core::ProviderMatcher matcher(core::DefaultProviderRules());
  core::ProviderAnalyzer analyzer(&matcher, worldgen::MakeCountryMetas());
  util::TextTable trend({"Year", "Top provider", "Countries",
                         "Domains on majors"});
  for (int year : {2011, 2014, 2017, 2020}) {
    auto t = analyzer.Analyze(dataset, year);
    auto top = core::ProviderAnalyzer::TopByCountries(t, 1);
    int64_t majors = 0;
    for (const auto& row : t.rows) {
      if (row.major) majors += row.domains;
    }
    trend.AddRow({std::to_string(year),
                  top.empty() ? "-" : top.front().group_key,
                  top.empty() ? "0" : std::to_string(top.front().countries),
                  util::WithCommas(majors)});
  }
  std::printf("\n== provider centralization ==\n");
  trend.Print(std::cout);
  std::printf("(the paper's headline: the most widely used provider grew "
              "from 52 to 85 countries, +60%%)\n");
  return 0;
}
