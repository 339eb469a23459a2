// Ablation: the statistic summarizing NS_daily (paper Fig. 5).
//
// The paper represents a domain-year by the *mode* of its daily NS counts.
// This sweep compares mode / min / max / mean: min over-counts d_1NS (any
// transition through a 1-NS day marks the whole year), max under-counts
// them, and mean rounds away short-lived states. The mode is the stable
// middle ground.
#include <iostream>

#include "bench/common.h"
#include "core/mining.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using govdns::bench::BenchEnv;
using govdns::core::YearlyStatistic;

govdns::core::MinedDataset MineWithStatistic(YearlyStatistic stat) {
  auto& env = BenchEnv::Get();
  govdns::core::MiningConfig config;
  config.first_year = env.world().config().first_year;
  config.last_year = env.world().config().last_year;
  config.statistic = stat;
  govdns::core::PdnsMiner miner(config);
  return miner.Mine(env.world().pdns_db(), env.seeds());
}

void BM_MineWithStatistic(benchmark::State& state) {
  BenchEnv::Get().seeds();
  for (auto _ : state) {
    auto dataset =
        MineWithStatistic(static_cast<YearlyStatistic>(state.range(0)));
    benchmark::DoNotOptimize(dataset);
  }
}
BENCHMARK(BM_MineWithStatistic)
    ->Arg(static_cast<int>(YearlyStatistic::kMode))
    ->Arg(static_cast<int>(YearlyStatistic::kMean))
    ->Unit(benchmark::kMillisecond);

void PrintArtifact() {
  static constexpr struct {
    YearlyStatistic stat;
    const char* name;
  } kStats[] = {{YearlyStatistic::kMode, "mode (paper)"},
                {YearlyStatistic::kMin, "min"},
                {YearlyStatistic::kMax, "max"},
                {YearlyStatistic::kMean, "mean"}};
  govdns::util::TextTable table(
      {"Statistic", "d_1NS 2011", "d_1NS 2020"});
  for (const auto& entry : kStats) {
    auto dataset = MineWithStatistic(entry.stat);
    auto churn = govdns::core::D1nsChurn(dataset);
    table.AddRow({entry.name,
                  govdns::util::WithCommas(churn.front().d1ns_total),
                  govdns::util::WithCommas(churn.back().d1ns_total)});
  }
  std::printf("\nAblation — NS_daily summary statistic (paper Fig. 5 uses "
              "the mode)\n");
  table.Print(std::cout);
}

}  // namespace

GOVDNS_BENCH_MAIN(PrintArtifact)
