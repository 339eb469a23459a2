// Ablation: the §III-C stability filter threshold.
//
// The paper keeps PDNS records whose first-to-last-seen *gap* is at least 7
// days — `last_seen − first_seen >= stability_days`, the largest default
// cache TTL among popular resolvers — arguing that shorter-lived records
// are transients (misconfigurations, DDoS protection switches,
// expirations). Note the gap, not the inclusive calendar length: a record
// seen on 7 consecutive days has a 6-day gap and is dropped at the default
// threshold (see mining.h). This sweep re-mines the dataset at thresholds
// 1..30 days and reports how the 2020 domain count and the d_1NS population
// react: low thresholds admit junk records, high ones start dropping
// genuinely stable deployments.
#include <iostream>

#include "bench/common.h"
#include "core/mining.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using govdns::bench::BenchEnv;

govdns::core::MinedDataset MineWithThreshold(int days) {
  auto& env = BenchEnv::Get();
  govdns::core::MiningConfig config;
  config.first_year = env.world().config().first_year;
  config.last_year = env.world().config().last_year;
  config.stability_days = days;
  govdns::core::PdnsMiner miner(config);
  return miner.Mine(env.world().pdns_db(), env.seeds());
}

void BM_MineAtThreshold(benchmark::State& state) {
  BenchEnv::Get().seeds();
  for (auto _ : state) {
    auto dataset = MineWithThreshold(static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(dataset);
  }
}
BENCHMARK(BM_MineAtThreshold)->Arg(1)->Arg(7)->Arg(30)
    ->Unit(benchmark::kMillisecond);

void PrintArtifact() {
  govdns::util::TextTable table({"Threshold (days)", "Domains 2020",
                                 "NS hostnames 2020", "d_1NS 2020"});
  for (int days : {1, 3, 7, 14, 30, 60}) {
    auto dataset = MineWithThreshold(days);
    auto counts = govdns::core::CountPerYear(dataset);
    auto churn = govdns::core::D1nsChurn(dataset);
    const auto& last = counts.back();
    table.AddRow({std::to_string(days),
                  govdns::util::WithCommas(last.domains),
                  govdns::util::WithCommas(last.nameservers),
                  govdns::util::WithCommas(churn.back().d1ns_total)});
  }
  std::printf("\nAblation — stability-filter threshold (paper uses 7 days)\n");
  table.Print(std::cout);
}

}  // namespace

GOVDNS_BENCH_MAIN(PrintArtifact)
