// Ablation: the second query round (§III-B).
//
// The paper re-queries domains whose parent returned NS records but whose
// child servers never answered, to rule out transient loss. Without the
// retry, packet loss misclassifies healthy domains as fully defective.
// This ablation runs the measurement with and without round 2 (and under
// elevated loss) and compares the defective-delegation rates.
#include <iostream>

#include "bench/common.h"
#include "core/analysis.h"
#include "core/measure.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using govdns::bench::BenchEnv;

govdns::core::DelegationSummary MeasureWith(bool second_round,
                                             double extra_loss) {
  auto& env = BenchEnv::Get();
  env.world().network().set_extra_loss_rate(extra_loss);
  // The study's measurer, fresh per arm so cut-cache state is identical
  // between arms.
  govdns::core::MeasurerOptions options;
  options.second_round = second_round;
  options.collect_soa = false;
  govdns::core::ActiveMeasurer measurer(&env.world().network(),
                                        env.world().root_server_ips(),
                                        govdns::core::ResolverOptions(),
                                        options);
  auto query_list = govdns::core::PdnsMiner::ActiveQueryList(env.mined());
  // The ablation contrasts two measurement policies; a deterministic
  // subsample keeps the repeated measurement passes affordable at scale.
  constexpr size_t kSample = 25000;
  if (query_list.size() > kSample) query_list.resize(kSample);
  auto results = measurer.MeasureAll(query_list);
  auto dataset = govdns::core::ActiveDataset::Build(
      std::move(results), env.seeds(), govdns::worldgen::MakeCountryMetas());
  env.world().network().set_extra_loss_rate(0.0);
  return govdns::core::AnalyzeDelegations(dataset);
}

void BM_SecondRound(benchmark::State& state) {
  BenchEnv::Get().mined();
  for (auto _ : state) {
    auto summary = MeasureWith(state.range(0) != 0, /*extra_loss=*/0.0);
    benchmark::DoNotOptimize(summary);
  }
}
BENCHMARK(BM_SecondRound)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void PrintArtifact() {
  govdns::util::TextTable table(
      {"Loss", "Configuration", "Partial %", "Full %"});
  for (double loss : {0.0, 0.15}) {
    for (bool second_round : {false, true}) {
      auto summary = MeasureWith(second_round, loss);
      double n = double(summary.domains_considered);
      table.AddRow({govdns::util::Percent(loss, 0),
                    second_round ? "with round 2 (paper)" : "single round",
                    govdns::util::Percent(summary.partially_defective / n),
                    govdns::util::Percent(summary.fully_defective / n)});
    }
  }
  std::printf("\nAblation — effect of the §III-B second query round\n");
  std::printf("(the 15%%-loss rows test it under transient loss)\n");
  table.Print(std::cout);
}

}  // namespace

GOVDNS_BENCH_MAIN(PrintArtifact)
