// The sharded measurement pool must be a pure optimization: for a fixed
// world seed, every observable study output — per-domain results, every
// analysis, the resilience report, the exported JSON — must be
// byte-identical whether one worker or many measured the list. Every
// datagram the measurement sends must also be attributed exactly once: to a
// domain's query_stats or to the shared cut cache.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cut_cache.h"
#include "core/export.h"
#include "core/measure.h"
#include "core/report.h"
#include "core/study.h"
#include "obs/obs.h"
#include "tests/test_world.h"
#include "worldgen/adapter.h"

namespace govdns {
namespace {

struct RunOutput {
  std::string resilience_json;
  std::string export_json;
  std::string metrics_stable_json;  // kStable series only
  std::string trace_json;           // sampled query traces + cut publish log
  core::ResolverCounters merged;      // the study's measurement counters
  core::ResolverCounters per_domain;  // Σ per-domain query_stats
  uint64_t exchanges = 0;  // SimNetwork exchanges during the measurement
  uint64_t queries_sent = 0;
  uint64_t traced_domains = 0;
  size_t diagnostic_gauges = 0;
  core::CutCacheStats cache;
};

// One full pipeline run on a fresh hostile world (fixed seed), measured
// with `workers` threads.
RunOutput RunStudy(int workers) {
  worldgen::WorldConfig config;
  config.scale = 0.02;
  config.chaos = simnet::ChaosProfile::Hostile();
  auto world = worldgen::BuildWorld(config);
  auto bound = worldgen::MakeStudy(*world);
  core::Study& study = *bound.study;

  obs::ObservabilityConfig obs_config;
  obs_config.trace.sample_period = 4;
  obs::Observability observability(obs_config);
  study.AttachObservability(&observability);

  study.RunSelection();
  study.RunMining();

  core::MeasurerOptions mopts;
  mopts.workers = workers;
  const uint64_t exchanges_before = world->network().stats().exchanges;
  study.RunActiveMeasurement(mopts);
  const uint64_t exchanges_after = world->network().stats().exchanges;

  RunOutput out;
  out.exchanges = exchanges_after - exchanges_before;
  out.resilience_json =
      core::BuildResilienceReport(study.active()).ToJson();
  out.export_json =
      core::ExportReportJson(core::BuildReport(study, {"cn", "br"}));
  out.metrics_stable_json = core::ExportMetricsJson(
      observability.metrics().Snapshot(/*include_diagnostic=*/false));
  out.trace_json = core::ExportTraceJson(observability.traces(),
                                         observability.cut_log());
  out.traced_domains = observability.traces().folded_total();
  out.diagnostic_gauges = observability.metrics().Snapshot().gauges.size();
  out.merged = study.measurement_counters();
  out.queries_sent = study.measurement_queries_sent();
  out.cache = study.measurement_cache_stats();
  for (const core::MeasurementResult& r : study.active().results) {
    out.per_domain += r.query_stats;
  }
  return out;
}

TEST(ParallelMeasureTest, FourWorkersMatchSerialByteForByte) {
  RunOutput serial = RunStudy(1);
  RunOutput parallel = RunStudy(4);
  // More workers than a 4-core host has cores.
  RunOutput oversubscribed = RunStudy(8);

  // Headline equivalence: the resilience report and the full exported study
  // report are byte-identical — no analysis can tell the runs apart.
  EXPECT_EQ(serial.resilience_json, parallel.resilience_json);
  EXPECT_EQ(serial.export_json, parallel.export_json);
  EXPECT_EQ(serial.resilience_json, oversubscribed.resilience_json);
  EXPECT_EQ(serial.export_json, oversubscribed.export_json);

  // The observability layer obeys the same contract: the stable metrics
  // snapshot and the full trace document (sampled per-domain event logs,
  // timestamps included, plus the deduplicated cut publish log) are
  // byte-identical across worker counts.
  EXPECT_EQ(serial.metrics_stable_json, parallel.metrics_stable_json);
  EXPECT_EQ(serial.trace_json, parallel.trace_json);
  EXPECT_GT(serial.traced_domains, 0u);
  EXPECT_GT(serial.diagnostic_gauges, 0u);  // cut-cache gauges were published
  EXPECT_NE(serial.metrics_stable_json.find("\"measure.queries\""),
            std::string::npos);

  // Counter reconciliation against the transport: every datagram the
  // measurement sent is either a measured domain's (Σ per-domain
  // query_stats) or the shared cut cache's infrastructure walk, in both runs
  // — nothing went unattributed, nothing was double-counted. Only the infra
  // share may differ between the runs (racing workers can both walk a cut).
  EXPECT_EQ(serial.exchanges,
            serial.per_domain.queries + serial.cache.infra.queries);
  EXPECT_EQ(parallel.exchanges,
            parallel.per_domain.queries + parallel.cache.infra.queries);
  EXPECT_EQ(serial.merged, parallel.merged);
  EXPECT_EQ(serial.queries_sent, parallel.queries_sent);
  EXPECT_EQ(serial.queries_sent, serial.merged.queries);

  // The run must have actually exercised the hostile weather and the shared
  // cache, or the equivalence above would be vacuous.
  EXPECT_GT(serial.merged.queries, 0u);
  EXPECT_GT(serial.merged.retries, 0u);
  EXPECT_GT(serial.cache.hits, 0u);
  EXPECT_GT(serial.cache.publishes, 0u);
  EXPECT_GT(parallel.cache.hits, 0u);
}

TEST(ParallelMeasureTest, RepeatedParallelRunsAreDeterministic) {
  // Same seed, same worker count, two runs: thread scheduling differs, the
  // outputs must not.
  RunOutput a = RunStudy(4);
  RunOutput b = RunStudy(4);
  EXPECT_EQ(a.resilience_json, b.resilience_json);
  EXPECT_EQ(a.export_json, b.export_json);
  EXPECT_EQ(a.merged, b.merged);
  EXPECT_EQ(a.metrics_stable_json, b.metrics_stable_json);
  EXPECT_EQ(a.trace_json, b.trace_json);
}

TEST(ParallelMeasureTest, DefaultWorkerCountRuns) {
  // workers = 0 (hardware concurrency) must behave like any explicit count.
  RunOutput defaulted = RunStudy(0);
  RunOutput serial = RunStudy(1);
  EXPECT_EQ(defaulted.resilience_json, serial.resilience_json);
  EXPECT_EQ(defaulted.export_json, serial.export_json);
}

struct LameRun {
  std::vector<core::MeasurementResult> results;
  core::CutCacheStats cache;
};

// Pool-mode measurement of d0..d{n-1}.lame.gov.xx: every walk ends at
// lame.gov.xx, whose only nameserver never answers.
LameRun MeasureUnderLame(size_t domains, int workers) {
  testing::TinyInternet world;
  core::MeasurerOptions options;
  options.workers = workers;
  core::ActiveMeasurer measurer(&world.net, world.roots(),
                                core::ResolverOptions(), options);
  std::vector<dns::Name> names;
  for (size_t i = 0; i < domains; ++i) {
    names.push_back(
        dns::Name::FromString("d" + std::to_string(i) + ".lame.gov.xx"));
  }
  LameRun out;
  out.results = measurer.MeasureAll(names);
  out.cache = measurer.shared_cache()->stats();
  return out;
}

TEST(ParallelMeasureTest, SharedNegativeHoldsForThePass) {
  // A dead subtree is probed once per pass. Every domain measures on its own
  // hermetic clock, so an expiry judged across those clocks would be a coin
  // flip that re-probes the same dead zone and republishes the same verdict.
  const LameRun one = MeasureUnderLame(1, /*workers=*/1);
  const LameRun serial = MeasureUnderLame(64, /*workers=*/1);
  EXPECT_EQ(serial.cache.negative_publishes, 1u);
  EXPECT_EQ(serial.cache.infra.queries, one.cache.infra.queries);
  EXPECT_EQ(serial.cache.negative_evictions, 0u);
  ASSERT_EQ(serial.results.size(), 64u);
  for (const core::MeasurementResult& r : serial.results) {
    EXPECT_EQ(r.query_stats.negative_cache_hits, 1u) << r.domain.ToString();
  }

  // Whichever worker probes the dead zone, each domain's result is the same.
  const LameRun pooled = MeasureUnderLame(64, /*workers=*/4);
  ASSERT_EQ(pooled.results.size(), serial.results.size());
  for (size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(pooled.results[i], serial.results[i])
        << serial.results[i].domain.ToString();
  }
}

}  // namespace
}  // namespace govdns
