// Degradation bench: what does a partially-dark Internet cost the study?
//
// Sweeps the global blackhole probability (DESIGN.md §6g) over a healthy
// world and 1% / 5% / 20% blackholed-server worlds, with the per-domain
// logical deadline armed, and reports per point: wall time of the full
// pipeline, quarantine counts by reason, and the resulting coverage ratio.
// The point of the artifact is the trade curve — budgets convert unbounded
// tail latency into an explicit, measured coverage loss — plus the §6g
// invariant that a degraded report is identical for 1 and N workers. The
// artifact lands in BENCH_degradation.json (path overridable via
// GOVDNS_DEGRADATION_JSON).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/export.h"
#include "core/measure.h"
#include "core/report.h"
#include "core/study.h"
#include "util/json.h"
#include "util/table.h"
#include "worldgen/adapter.h"
#include "worldgen/countries.h"
#include "worldgen/world.h"

namespace {

// Tight enough that a blackholed parent chain (3 attempts x 2000 ms per
// server, plus backoff) cannot finish, generous for healthy domains.
constexpr uint64_t kDomainDeadlineMs = 8000;

struct SweepPoint {
  double p_blackhole = 0.0;
  double seconds = 0.0;  // pipeline only; world build is excluded
  size_t domains = 0;
  govdns::core::QuarantineReport quarantine;
  std::string report_json;
  bool identical_across_workers = false;
};

std::string RunPipeline(double p_blackhole, int workers, double* seconds,
                        govdns::core::QuarantineReport* quarantine,
                        size_t* domains) {
  govdns::worldgen::WorldConfig config;
  config.scale = govdns::bench::ScaleFromEnv();
  config.chaos.p_blackhole = p_blackhole;
  auto world = govdns::worldgen::BuildWorld(config);
  auto bound = govdns::worldgen::MakeStudy(*world);

  std::vector<std::string> top10;
  for (const char* code : govdns::worldgen::Top10CountryCodes()) {
    top10.emplace_back(code);
  }

  govdns::core::MeasurerOptions options;
  options.workers = workers;
  options.max_logical_ms_per_domain = kDomainDeadlineMs;

  const auto start = std::chrono::steady_clock::now();
  bound.study->RunSelection();
  bound.study->RunMining();
  bound.study->RunActiveMeasurement(options);
  auto report = govdns::core::BuildReport(*bound.study, top10);
  std::string json = govdns::core::ExportReportJson(report);
  const auto stop = std::chrono::steady_clock::now();

  if (seconds != nullptr) {
    *seconds = std::chrono::duration<double>(stop - start).count();
  }
  if (quarantine != nullptr) *quarantine = report.quarantine;
  if (domains != nullptr) *domains = bound.study->active().results.size();
  return json;
}

SweepPoint RunPoint(double p_blackhole) {
  SweepPoint point;
  point.p_blackhole = p_blackhole;
  point.report_json = RunPipeline(p_blackhole, /*workers=*/1, &point.seconds,
                                  &point.quarantine, &point.domains);
  const std::string pooled =
      RunPipeline(p_blackhole, /*workers=*/4, nullptr, nullptr, nullptr);
  point.identical_across_workers = point.report_json == pooled;
  return point;
}

void BM_DegradedPipeline(benchmark::State& state) {
  const double p = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    double seconds = 0.0;
    auto json = RunPipeline(p, /*workers=*/1, &seconds, nullptr, nullptr);
    benchmark::DoNotOptimize(json);
  }
}
BENCHMARK(BM_DegradedPipeline)
    ->Arg(0)
    ->Arg(5)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

void PrintArtifact() {
  const std::vector<double> kSweep = {0.0, 0.01, 0.05, 0.20};
  std::vector<SweepPoint> points;
  for (double p : kSweep) points.push_back(RunPoint(p));

  govdns::util::TextTable table({"p(blackhole)", "Seconds", "Quarantined",
                                 "hang/bh/budget", "Coverage", "1==4 workers"});
  for (const SweepPoint& point : points) {
    char p_buf[16], sec[32], mix[48], cov[16];
    std::snprintf(p_buf, sizeof p_buf, "%.2f", point.p_blackhole);
    std::snprintf(sec, sizeof sec, "%.3f", point.seconds);
    std::snprintf(mix, sizeof mix, "%lld/%lld/%lld",
                  static_cast<long long>(point.quarantine.hang),
                  static_cast<long long>(point.quarantine.blackhole),
                  static_cast<long long>(point.quarantine.budget_exceeded));
    std::snprintf(cov, sizeof cov, "%.4f", point.quarantine.coverage);
    table.AddRow({p_buf, sec,
                  std::to_string(point.quarantine.quarantined), mix, cov,
                  point.identical_across_workers ? "yes" : "NO"});
  }

  govdns::util::JsonWriter w;
  w.BeginObject();
  w.Kv("scale", govdns::bench::ScaleFromEnv());
  w.Kv("domain_deadline_ms", static_cast<int64_t>(kDomainDeadlineMs));
  w.Key("sweep").BeginArray();
  for (const SweepPoint& point : points) {
    w.BeginObject();
    w.Kv("p_blackhole", point.p_blackhole);
    w.Kv("wall_seconds", point.seconds);
    w.Kv("domains", static_cast<int64_t>(point.domains));
    w.Kv("quarantined", point.quarantine.quarantined);
    w.Kv("hang", point.quarantine.hang);
    w.Kv("blackhole", point.quarantine.blackhole);
    w.Kv("budget_exceeded", point.quarantine.budget_exceeded);
    w.Kv("watchdog_cancelled", point.quarantine.watchdog_cancelled);
    w.Kv("coverage", point.quarantine.coverage);
    w.Kv("identical_across_workers", point.identical_across_workers);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  const std::string json = w.TakeString();

  std::printf("\nGraceful degradation — the full pipeline with the %llu ms\n",
              static_cast<unsigned long long>(kDomainDeadlineMs));
  std::printf("per-domain deadline armed, sweeping the fraction of\n");
  std::printf("blackholed servers. Budgets trade unbounded tail latency for\n");
  std::printf("an explicit coverage loss; degraded reports must stay\n");
  std::printf("identical across worker counts.\n");
  table.Print(std::cout);
  std::fprintf(stderr, "[bench] degradation %s\n", json.c_str());

  govdns::bench::WriteArtifactJson("GOVDNS_DEGRADATION_JSON", "BENCH_degradation.json", json);
}

}  // namespace

GOVDNS_BENCH_MAIN(PrintArtifact)
