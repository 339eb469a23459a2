// Ablation: chaos sweep — retry/backoff/health armor vs injected loss.
//
// The paper's second measurement round exists to keep transient packet loss
// from masquerading as defective delegations (§III-B, Fig. 10). This sweep
// quantifies that rationale end-to-end: network-wide loss is swept 0 → 50%
// and the stale-d_1NS rate (Fig. 8) and defective-delegation rates (Fig. 10)
// are measured with the RetryPolicy armor on vs off. The false-positive
// columns subtract each arm's zero-loss baseline, so they show exactly how
// much *adversity-induced* misclassification the armor absorbs.
#include <iostream>
#include <vector>

#include "bench/common.h"
#include "core/analysis.h"
#include "core/measure.h"
#include "core/report.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using govdns::bench::BenchEnv;

struct SweepPoint {
  double loss = 0.0;
  bool armored = false;
  double stale_d1ns_pct = 0.0;   // Fig. 8 statistic under this weather
  double fully_defective_pct = 0.0;  // Fig. 10 statistic
  govdns::core::ResilienceReport resilience;
};

SweepPoint MeasurePoint(bool armored, double loss) {
  auto& env = BenchEnv::Get();
  env.world().network().set_extra_loss_rate(loss);
  // The study's measurer, fresh per point so cut-cache state never leaks
  // across points; every domain is measured hermetically, so no breaker
  // verdict carries over from one domain to the next either.
  govdns::core::ResolverOptions ropts;
  if (!armored) ropts.retry = govdns::core::RetryPolicy::Disabled();
  govdns::core::MeasurerOptions mopts;
  mopts.collect_soa = false;
  govdns::core::ActiveMeasurer measurer(&env.world().network(),
                                        env.world().root_server_ips(), ropts,
                                        mopts);
  auto query_list = govdns::core::PdnsMiner::ActiveQueryList(env.mined());
  // Deterministic subsample: 12 full measurement passes ride this sweep.
  constexpr size_t kSample = 20000;
  if (query_list.size() > kSample) query_list.resize(kSample);
  auto results = measurer.MeasureAll(query_list);
  auto dataset = govdns::core::ActiveDataset::Build(
      std::move(results), env.seeds(), govdns::worldgen::MakeCountryMetas());
  env.world().network().set_extra_loss_rate(0.0);

  SweepPoint point;
  point.loss = loss;
  point.armored = armored;
  auto replication = govdns::core::AnalyzeReplication(dataset);
  point.stale_d1ns_pct = replication.d1ns_stale_pct;
  auto delegations = govdns::core::AnalyzeDelegations(dataset);
  if (delegations.domains_considered > 0) {
    point.fully_defective_pct = double(delegations.fully_defective) /
                                double(delegations.domains_considered);
  }
  point.resilience = govdns::core::BuildResilienceReport(dataset);
  return point;
}

void BM_ChaosResilience(benchmark::State& state) {
  BenchEnv::Get().mined();
  const bool armored = state.range(0) != 0;
  const double loss = double(state.range(1)) / 100.0;
  for (auto _ : state) {
    auto point = MeasurePoint(armored, loss);
    benchmark::DoNotOptimize(point);
  }
}
BENCHMARK(BM_ChaosResilience)
    ->Args({0, 20})
    ->Args({1, 20})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void PrintArtifact() {
  const std::vector<double> kLossSweep = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5};
  govdns::util::TextTable table({"Loss", "Armor", "stale d1NS", "FP", "full def",
                                 "FP", "retries", "degraded"});
  for (bool armored : {false, true}) {
    SweepPoint baseline;
    for (double loss : kLossSweep) {
      SweepPoint p = MeasurePoint(armored, loss);
      if (loss == 0.0) baseline = p;
      table.AddRow(
          {govdns::util::Percent(loss, 0),
           armored ? "retry policy" : "naive",
           govdns::util::Percent(p.stale_d1ns_pct),
           govdns::util::Percent(p.stale_d1ns_pct - baseline.stale_d1ns_pct),
           govdns::util::Percent(p.fully_defective_pct),
           govdns::util::Percent(p.fully_defective_pct -
                                 baseline.fully_defective_pct),
           std::to_string(p.resilience.totals.retries),
           std::to_string(p.resilience.degraded_domains)});
      if (loss == 0.2) {
        std::fprintf(stderr, "[bench] resilience@20%%loss armor=%d %s\n",
                     armored ? 1 : 0, p.resilience.ToJson().c_str());
      }
    }
  }
  std::printf("\nAblation — chaos sweep: retry/backoff/health armor vs loss\n");
  std::printf("(FP = excess over the same arm's zero-loss baseline; the\n");
  std::printf(" naive arm sends one attempt per query and keeps no breaker,\n");
  std::printf(" the retry-policy arm runs the study's default RetryPolicy)\n");
  table.Print(std::cout);
}

}  // namespace

GOVDNS_BENCH_MAIN(PrintArtifact)
