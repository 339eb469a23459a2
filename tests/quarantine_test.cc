// Quarantine acceptance (DESIGN.md §6g): with one country's authoritative
// infrastructure fully blackholed, a budgeted study must (a) quarantine
// exactly that country's affected domains with the right reason codes while
// every other country's results stay byte-identical to a healthy run,
// (b) produce the same report for 1 and N workers, (c) survive a kill/resume
// cycle mid-degradation with a byte-identical report (the quarantine state
// rides its own journal frame), and (d) converge to the no-budget report as
// budgets grow. Study-level country/phase budgets must pre-quarantine
// deterministically at batch granularity.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "ckpt/fault.h"
#include "ckpt/journal.h"
#include "core/export.h"
#include "core/measure.h"
#include "core/report.h"
#include "core/study.h"
#include "core/study_ckpt.h"
#include "worldgen/adapter.h"

namespace govdns {
namespace {

namespace fs = std::filesystem;

// Big enough that the target country holds several active-query domains,
// small enough to keep the suite quick.
constexpr double kScale = 0.01;
constexpr size_t kBatch = 100;
constexpr uint64_t kWorldFp = 0xDE67ADEDF00Dull;
// The blackholed country: default reserved suffix (gov.eg), mid-size
// weight, no special fates — its degradation cannot hide behind a custom
// topology.
constexpr const char* kTarget = "eg";
// Generous against healthy domains (tens of ms to a few seconds of logical
// time each), tight against a blackholed parent chain (>= 3 attempts x
// 2000 ms per server before backoff).
constexpr uint64_t kDomainDeadlineMs = 8000;

std::string TempDir(const std::string& tag) {
  std::string dir =
      (fs::temp_directory_path() / ("govdns_quarantine_" + tag)).string();
  fs::remove_all(dir);
  return dir;
}

worldgen::WorldConfig HealthyWorld() {
  worldgen::WorldConfig config;
  config.scale = kScale;
  return config;
}

worldgen::WorldConfig BlackholedWorld() {
  worldgen::WorldConfig config = HealthyWorld();
  simnet::ChaosProfile blackhole;
  blackhole.p_blackhole = 1.0;
  config.country_chaos.push_back({kTarget, blackhole});
  return config;
}

core::MeasurerOptions DeadlineOptions(int workers) {
  core::MeasurerOptions options;
  options.workers = workers;
  options.max_logical_ms_per_domain = kDomainDeadlineMs;
  return options;
}

struct StudyRun {
  std::string json;
  core::QuarantineReport quarantine;
  std::vector<core::MeasurementResult> results;
  std::vector<int> country;  // per result: index into metas
  std::vector<core::CountryMeta> metas;
};

StudyRun RunStudy(const worldgen::WorldConfig& config,
                  const core::MeasurerOptions& options) {
  auto world = worldgen::BuildWorld(config);
  auto bound = worldgen::MakeStudy(*world);
  const core::StudyReport report = bound.study->Run({.measurement = options});
  StudyRun out;
  out.json = core::ExportReportJson(report);
  out.quarantine = report.quarantine;
  out.results = bound.study->active().results;
  out.country = bound.study->active().country;
  out.metas = bound.study->active().metas;
  return out;
}

int CountryIndex(const StudyRun& run, const std::string& code) {
  for (size_t i = 0; i < run.metas.size(); ++i) {
    if (run.metas[i].code == code) return static_cast<int>(i);
  }
  return -1;
}

// ---- (a) precision: only the blackholed country degrades -------------------

TEST(QuarantineTest, BlackholedCountryQuarantinedPreciselyWithReasons) {
  const StudyRun healthy = RunStudy(HealthyWorld(), DeadlineOptions(1));
  const StudyRun degraded = RunStudy(BlackholedWorld(), DeadlineOptions(1));
  ASSERT_EQ(healthy.results.size(), degraded.results.size());
  ASSERT_EQ(healthy.country, degraded.country);

  const int target = CountryIndex(degraded, kTarget);
  ASSERT_GE(target, 0);

  // The world must actually contain target-country domains to degrade, or
  // everything below is vacuous. The healthy run may quarantine a few
  // deadline-crossing domains of its own (dead-parent fates retry their way
  // past the budget) — degradation is measured against that baseline.
  int target_domains = 0;
  int target_quarantined = 0;
  int healthy_target_quarantined = 0;
  for (size_t i = 0; i < degraded.results.size(); ++i) {
    const core::MeasurementResult& d = degraded.results[i];
    if (degraded.country[i] == target) {
      ++target_domains;
      if (healthy.results[i].quarantine_reason !=
          core::QuarantineReason::kNone) {
        ++healthy_target_quarantined;
      }
      if (d.quarantine_reason != core::QuarantineReason::kNone) {
        ++target_quarantined;
        // A fully blackholed ADNS yields timeout-shaped degradation: the
        // deadline classifies it as hang or blackhole, never as a
        // study-level budget verdict.
        EXPECT_TRUE(d.quarantine_reason == core::QuarantineReason::kHang ||
                    d.quarantine_reason == core::QuarantineReason::kBlackhole)
            << d.domain.ToString() << " reason "
            << core::QuarantineReasonName(d.quarantine_reason);
        EXPECT_TRUE(d.degraded);
      }
    } else {
      // Everything outside the target country is byte-identical to the
      // healthy world — including logical timings and query stats.
      EXPECT_EQ(d, healthy.results[i]) << d.domain.ToString();
    }
  }
  ASSERT_GE(target_domains, 3) << "scale too small for a meaningful test";
  EXPECT_GT(target_quarantined, healthy_target_quarantined);

  // Report view: the target shows up in the by-country quarantine rows, and
  // every row that is not the target matches the healthy run's rows.
  std::set<std::string> degraded_codes;
  for (const auto& row : degraded.quarantine.by_country) {
    degraded_codes.insert(row.code);
  }
  EXPECT_TRUE(degraded_codes.count(kTarget) == 1);
  std::set<std::string> healthy_codes;
  for (const auto& row : healthy.quarantine.by_country) {
    healthy_codes.insert(row.code);
    EXPECT_TRUE(degraded_codes.count(row.code) == 1)
        << "healthy-run quarantine row vanished under degradation: "
        << row.code;
  }
  for (const auto& row : degraded.quarantine.by_country) {
    if (row.code == kTarget) {
      EXPECT_EQ(row.quarantined, target_quarantined);
      EXPECT_EQ(row.domains, target_domains);
    } else {
      // Any other quarantined country was already degraded in the healthy
      // world (same count), not collateral damage of the blackhole.
      EXPECT_TRUE(healthy_codes.count(row.code) == 1) << row.code;
    }
  }
  EXPECT_EQ(degraded.quarantine.quarantined,
            healthy.quarantine.quarantined - healthy_target_quarantined +
                target_quarantined);
  EXPECT_LT(degraded.quarantine.coverage, 1.0);
  EXPECT_EQ(degraded.quarantine.total_domains,
            static_cast<int64_t>(degraded.results.size()));
}

// ---- (b) worker-count invariance under degradation -------------------------

TEST(QuarantineTest, DegradedReportIsWorkerCountInvariant) {
  const StudyRun serial = RunStudy(BlackholedWorld(), DeadlineOptions(1));
  const StudyRun pooled = RunStudy(BlackholedWorld(), DeadlineOptions(4));
  EXPECT_EQ(serial.json, pooled.json);
  EXPECT_EQ(serial.quarantine, pooled.quarantine);
  EXPECT_GT(serial.quarantine.quarantined, 0);
}

// ---- (d) convergence: budgets off == budgets huge --------------------------

TEST(QuarantineTest, GrowingBudgetsConvergeToTheUnbudgetedReport) {
  core::MeasurerOptions huge = DeadlineOptions(1);
  huge.max_logical_ms_per_domain = 50'000'000;
  const StudyRun unbudgeted = RunStudy(BlackholedWorld(), core::MeasurerOptions{
                                      .workers = 1});
  const StudyRun budgeted = RunStudy(BlackholedWorld(), huge);
  EXPECT_EQ(unbudgeted.json, budgeted.json);
  // With room to finish, even blackholed domains complete their (failing)
  // measurements the slow way: nothing is quarantined on either side.
  EXPECT_EQ(unbudgeted.quarantine.quarantined, 0);
  EXPECT_EQ(budgeted.quarantine.quarantined, 0);
  EXPECT_EQ(budgeted.quarantine.coverage, 1.0);
}

// ---- study-level budgets: deterministic batch-granular pre-quarantine ------

TEST(QuarantineTest, PhaseDeadlinePreQuarantinesDeterministically) {
  core::MeasurerOptions options;
  options.workers = 1;
  options.phase_deadline_logical_ms = 30'000;
  const StudyRun serial = RunStudy(HealthyWorld(), options);
  options.workers = 4;
  const StudyRun pooled = RunStudy(HealthyWorld(), options);

  EXPECT_EQ(serial.json, pooled.json);
  EXPECT_EQ(serial.quarantine, pooled.quarantine);
  // The phase deadline actually pre-empted later batches...
  EXPECT_GT(serial.quarantine.budget_exceeded, 0);
  EXPECT_LT(serial.quarantine.coverage, 1.0);
  // ...and a pre-quarantined placeholder carries no measurement payload.
  bool saw_placeholder = false;
  for (const core::MeasurementResult& r : serial.results) {
    if (r.quarantine_reason == core::QuarantineReason::kBudgetExceeded) {
      saw_placeholder = true;
      EXPECT_TRUE(r.degraded);
      EXPECT_EQ(r.query_stats.queries, 0u);
      EXPECT_FALSE(r.parent_located);
    }
  }
  EXPECT_TRUE(saw_placeholder);
}

TEST(QuarantineTest, CountryBudgetCutsOffOnlyOverBudgetCountries) {
  core::MeasurerOptions options;
  options.workers = 1;
  options.max_logical_ms_per_country = 2'000;
  const StudyRun run = RunStudy(HealthyWorld(), options);
  EXPECT_GT(run.quarantine.budget_exceeded, 0);
  // Every pre-quarantined domain belongs to a country that had already
  // spent its budget in an earlier batch; a country small enough to finish
  // within budget has no quarantined domains at all.
  const StudyRun baseline = RunStudy(HealthyWorld(), core::MeasurerOptions{
                                    .workers = 1});
  ASSERT_EQ(baseline.results.size(), run.results.size());
  for (size_t i = 0; i < run.results.size(); ++i) {
    if (run.results[i].quarantine_reason == core::QuarantineReason::kNone) {
      EXPECT_EQ(run.results[i], baseline.results[i])
          << run.results[i].domain.ToString();
    } else {
      EXPECT_EQ(run.results[i].quarantine_reason,
                core::QuarantineReason::kBudgetExceeded);
    }
  }
}

// ---- (c) kill/resume mid-degradation ---------------------------------------

struct CkptRun {
  bool killed = false;
  std::string json;
  uint64_t commits = 0;
};

CkptRun RunCheckpointed(const std::string& dir, bool resume,
                        const ckpt::CkptFaultPlan* plan, int workers) {
  auto world = worldgen::BuildWorld(BlackholedWorld());
  auto bound = worldgen::MakeStudy(*world);
  core::StudyCheckpointOptions opts;
  opts.batch_size = kBatch;
  opts.resume = resume;
  core::StudyCheckpoint ckpt(dir, kWorldFp, opts);
  if (plan != nullptr) ckpt.set_fault_plan(*plan);
  bound.study->AttachCheckpoint(&ckpt);

  CkptRun out;
  try {
    out.json = core::ExportReportJson(
        bound.study->Run({.measurement = DeadlineOptions(workers)}));
  } catch (const ckpt::KillPointReached&) {
    out.killed = true;
  }
  out.commits = ckpt.journal_stats().commits;
  return out;
}

TEST(QuarantineTest, KillResumeMidDegradationPreservesTheReport) {
  // A degraded checkpointed run must (1) match the uncheckpointed degraded
  // run, and (2) resume byte-identically from a kill at any stage of the
  // degradation — including after the quarantine frame was journaled.
  const StudyRun plain = RunStudy(BlackholedWorld(), DeadlineOptions(1));
  const std::string base_dir = TempDir("base");
  CkptRun baseline =
      RunCheckpointed(base_dir, /*resume=*/false, nullptr, /*workers=*/1);
  ASSERT_FALSE(baseline.killed);
  EXPECT_EQ(baseline.json, plain.json);
  ASSERT_GE(baseline.commits, 5u);
  fs::remove_all(base_dir);

  // Sweep a few write points: early (selection/mining), mid-measurement
  // (inside the degraded batches), and the tail (quarantine + report
  // frames land last).
  const std::vector<uint64_t> kill_points = {
      2, baseline.commits / 2, baseline.commits - 1, baseline.commits};
  for (uint64_t k : kill_points) {
    const std::string dir = TempDir("kill_" + std::to_string(k));
    ckpt::CkptFaultPlan plan;
    plan.kill_at_write = k;
    plan.mode = ckpt::KillMode::kAfterCommit;
    plan.exit_process = false;
    CkptRun killed =
        RunCheckpointed(dir, /*resume=*/false, &plan, /*workers=*/1);
    ASSERT_TRUE(killed.killed) << "kill at write " << k << " never fired";
    CkptRun resumed =
        RunCheckpointed(dir, /*resume=*/true, nullptr, /*workers=*/1);
    ASSERT_FALSE(resumed.killed);
    EXPECT_EQ(resumed.json, baseline.json)
        << "degraded report diverged after kill at write " << k;
    fs::remove_all(dir);
  }

  // A full resume of a completed journal revalidates the stored quarantine
  // frame (TryLoadQuarantine + equality check) and reproduces the report.
  const std::string done_dir = TempDir("done");
  CkptRun first =
      RunCheckpointed(done_dir, /*resume=*/false, nullptr, /*workers=*/1);
  ASSERT_FALSE(first.killed);
  CkptRun second =
      RunCheckpointed(done_dir, /*resume=*/true, nullptr, /*workers=*/1);
  ASSERT_FALSE(second.killed);
  EXPECT_EQ(second.json, first.json);
  fs::remove_all(done_dir);
}

}  // namespace
}  // namespace govdns
