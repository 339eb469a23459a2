// Kill-anywhere resume harness (DESIGN.md §6f acceptance): a world-scale
// study is killed at EVERY journal write point — under every kill mode,
// including modes that truncate or corrupt the in-flight frame — and then
// resumed; the final exported StudyReport JSON must be byte-identical to an
// uninterrupted run, for 1 worker and for a pool. Also: every corruption
// mode applied to a completed journal produces a clean restart-from-prior-
// phase decision with the matching diagnostic counter, and cooperative
// interruption surfaces as a structured PipelineError that a later resume
// recovers from.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/fault.h"
#include "ckpt/journal.h"
#include "core/export.h"
#include "core/report.h"
#include "core/study.h"
#include "core/study_ckpt.h"
#include "worldgen/adapter.h"
#include "worldgen/countries.h"

namespace govdns {
namespace {

namespace fs = std::filesystem;

// Small but end-to-end world: hostile chaos exercises retries, dead
// subtrees, and the negative cache on top of the checkpoint machinery.
constexpr double kScale = 0.004;
constexpr size_t kBatch = 200;
constexpr uint64_t kWorldFp = 0x57EADF00D5EEDull;

std::string TempDir(const std::string& tag) {
  std::string dir =
      (fs::temp_directory_path() / ("govdns_resume_" + tag)).string();
  fs::remove_all(dir);
  return dir;
}

worldgen::WorldConfig SmallWorld() {
  worldgen::WorldConfig config;
  config.scale = kScale;
  config.chaos = simnet::ChaosProfile::Hostile();
  return config;
}

std::string ReportJsonOf(core::Study& study) {
  std::vector<std::string> top10;
  for (const char* code : worldgen::Top10CountryCodes()) {
    top10.emplace_back(code);
  }
  return core::ExportReportJson(core::BuildReport(study, top10));
}

struct RunResult {
  bool killed = false;                      // the fault plan fired
  std::string json;                         // empty when killed
  std::optional<std::string> prior_report;  // report.ck found on resume
  ckpt::JournalStats jstats;
  core::StudyCheckpointStats cstats;
};

// One full checkpointed pipeline run on a fresh world. The world is rebuilt
// every time — exactly what a restarted process does — so resume must work
// from the journal alone.
RunResult RunCheckpointed(const std::string& dir, bool resume,
                          const ckpt::CkptFaultPlan* plan, int workers,
                          const std::atomic<bool>* interrupt = nullptr) {
  auto world = worldgen::BuildWorld(SmallWorld());
  auto bound = worldgen::MakeStudy(*world);
  core::StudyCheckpointOptions opts;
  opts.batch_size = kBatch;
  opts.resume = resume;
  core::StudyCheckpoint ckpt(dir, kWorldFp, opts);
  if (plan != nullptr) ckpt.set_fault_plan(*plan);
  bound.study->AttachCheckpoint(&ckpt);
  if (interrupt != nullptr) bound.study->set_interrupt_flag(interrupt);

  RunResult out;
  try {
    bound.study->RunSelection();
    bound.study->RunMining();
    core::MeasurerOptions mopts;
    mopts.workers = workers;
    bound.study->RunActiveMeasurement(mopts);
    out.prior_report = ckpt.TryLoadReportJson();
    out.json = ReportJsonOf(*bound.study);
    ckpt.SaveReportJson(out.json);
  } catch (const ckpt::KillPointReached&) {
    out.killed = true;
  }
  out.jstats = ckpt.journal_stats();
  out.cstats = ckpt.stats();
  return out;
}

// The same pipeline with no checkpoint at all.
std::string RunPlain(int workers) {
  auto world = worldgen::BuildWorld(SmallWorld());
  auto bound = worldgen::MakeStudy(*world);
  bound.study->RunSelection();
  bound.study->RunMining();
  core::MeasurerOptions mopts;
  mopts.workers = workers;
  bound.study->RunActiveMeasurement(mopts);
  return ReportJsonOf(*bound.study);
}

void DamageFile(const std::string& path,
                const std::function<void(std::string&)>& mutate) {
  std::ifstream in(path, std::ios::binary);
  std::string raw((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  in.close();
  ASSERT_FALSE(raw.empty()) << path;
  mutate(raw);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << raw;
}

TEST(CkptResumeTest, CheckpointedRunMatchesPlainRun) {
  const std::string dir = TempDir("vs_plain");
  RunResult ck = RunCheckpointed(dir, /*resume=*/false, nullptr, /*workers=*/1);
  ASSERT_FALSE(ck.killed);
  EXPECT_EQ(ck.json, RunPlain(/*workers=*/1));
  // The sweep below relies on a meaningful number of write points.
  EXPECT_GE(ck.jstats.commits, 5u);
  fs::remove_all(dir);
}

// Kill at write k (mode cycling through all five), resume, compare.
void KillSweep(int workers) {
  const std::string tag = "sweep_w" + std::to_string(workers);
  const std::string base_dir = TempDir(tag + "_base");
  RunResult baseline =
      RunCheckpointed(base_dir, /*resume=*/false, nullptr, workers);
  ASSERT_FALSE(baseline.killed);
  ASSERT_FALSE(baseline.json.empty());
  // Includes the final SaveReportJson commit — that write point is swept too.
  const uint64_t writes = baseline.jstats.commits;
  ASSERT_GE(writes, 5u);
  fs::remove_all(base_dir);

  constexpr ckpt::KillMode kModes[] = {
      ckpt::KillMode::kBeforeWrite, ckpt::KillMode::kAfterTemp,
      ckpt::KillMode::kTruncate, ckpt::KillMode::kCorrupt,
      ckpt::KillMode::kAfterCommit};
  for (uint64_t k = 1; k <= writes; ++k) {
    const ckpt::KillMode mode = kModes[k % 5];
    const std::string dir = TempDir(tag + "_k" + std::to_string(k));
    ckpt::CkptFaultPlan plan;
    plan.kill_at_write = k;
    plan.mode = mode;
    plan.exit_process = false;
    RunResult killed = RunCheckpointed(dir, /*resume=*/false, &plan, workers);
    ASSERT_TRUE(killed.killed)
        << "plan at write " << k << " never fired (only "
        << killed.jstats.commits << " writes)";
    RunResult resumed =
        RunCheckpointed(dir, /*resume=*/true, nullptr, workers);
    ASSERT_FALSE(resumed.killed);
    EXPECT_EQ(resumed.json, baseline.json)
        << "report diverged after kill at write " << k << " ("
        << ckpt::KillModeName(mode) << ")";
    // A mid-measurement resume gets a warm start from the cut-cache deltas
    // of the batches before the kill, even when the kill damaged the newest
    // delta.
    if (resumed.cstats.batches_loaded >= 2 &&
        resumed.cstats.batches_loaded < baseline.cstats.batches_saved) {
      EXPECT_GT(resumed.cstats.cache_entries_restored, 0)
          << "cold cache after kill at write " << k << " ("
          << ckpt::KillModeName(mode) << ")";
    }
    fs::remove_all(dir);
  }
}

TEST(CkptResumeTest, KillAtEveryWritePointSingleWorker) { KillSweep(1); }

TEST(CkptResumeTest, KillAtEveryWritePointWorkerPool) { KillSweep(4); }

// A fully-resumed run finds the journaled report and it matches what it
// recomputes.
TEST(CkptResumeTest, CompletedJournalServesThePriorReport) {
  const std::string dir = TempDir("prior_report");
  RunResult first =
      RunCheckpointed(dir, /*resume=*/false, nullptr, /*workers=*/1);
  ASSERT_FALSE(first.killed);
  RunResult second =
      RunCheckpointed(dir, /*resume=*/true, nullptr, /*workers=*/1);
  ASSERT_FALSE(second.killed);
  ASSERT_TRUE(second.prior_report.has_value());
  EXPECT_EQ(*second.prior_report, first.json);
  EXPECT_EQ(second.json, first.json);
  // Everything loaded; nothing recomputed or re-saved except the report.
  EXPECT_EQ(second.cstats.phases_loaded, 2);
  EXPECT_EQ(second.cstats.phases_saved, 0);
  EXPECT_EQ(second.cstats.batches_saved, 0);
  EXPECT_GT(second.cstats.results_loaded, 0);
  fs::remove_all(dir);
}

// ---- corruption of a completed journal -----------------------------------
// Each damage mode must produce a clean restart-from-prior-phase decision
// (the matching rejected_* counter), then a byte-identical report.

struct CorruptionCase {
  const char* file;
  void (*mutate)(std::string&);
  uint64_t ckpt::JournalStats::* counter;
};

void ExpectRecovery(const std::string& tag, const CorruptionCase& c) {
  const std::string dir = TempDir(tag);
  RunResult first =
      RunCheckpointed(dir, /*resume=*/false, nullptr, /*workers=*/1);
  ASSERT_FALSE(first.killed);
  DamageFile(dir + "/" + c.file, c.mutate);
  RunResult resumed =
      RunCheckpointed(dir, /*resume=*/true, nullptr, /*workers=*/1);
  ASSERT_FALSE(resumed.killed);
  EXPECT_EQ(resumed.json, first.json) << tag;
  EXPECT_GT(resumed.jstats.*(c.counter), 0u) << tag;
  fs::remove_all(dir);
}

TEST(CkptResumeTest, RecoversFromTruncatedMiningFrame) {
  ExpectRecovery(
      "trunc_mining",
      {"mining.ck", [](std::string& raw) { raw.resize(raw.size() / 2); },
       &ckpt::JournalStats::rejected_truncated});
}

TEST(CkptResumeTest, RecoversFromFlippedCrcByteInSelection) {
  ExpectRecovery("crc_selection",
                 {"selection.ck",
                  [](std::string& raw) {
                    raw[ckpt::kFrameHeaderSize + raw.size() / 3] ^= 0x40;
                  },
                  &ckpt::JournalStats::rejected_crc});
}

TEST(CkptResumeTest, RecoversFromWrongFormatVersion) {
  ExpectRecovery("version_mining",
                 {"mining.ck",
                  [](std::string& raw) {
                    raw[4] = static_cast<char>(ckpt::kFrameVersion + 7);
                  },
                  &ckpt::JournalStats::rejected_version});
}

TEST(CkptResumeTest, RecoversFromDamagedBatchFrame) {
  ExpectRecovery(
      "trunc_batch",
      {"active_000000.ck",
       [](std::string& raw) { raw.resize(ckpt::kFrameHeaderSize + 10); },
       &ckpt::JournalStats::rejected_truncated});
}

// A journal written under a different config/world identity must be
// rejected wholesale (fingerprint counter), then rebuilt from scratch.
TEST(CkptResumeTest, RejectsJournalFromDifferentWorld) {
  const std::string dir = TempDir("wrong_world");
  {
    auto world = worldgen::BuildWorld(SmallWorld());
    auto bound = worldgen::MakeStudy(*world);
    core::StudyCheckpointOptions opts;
    opts.batch_size = kBatch;
    core::StudyCheckpoint ckpt(dir, kWorldFp + 1, opts);  // other identity
    bound.study->AttachCheckpoint(&ckpt);
    bound.study->RunSelection();
    bound.study->RunMining();
  }
  const std::string base_dir = TempDir("wrong_world_base");
  RunResult baseline = RunCheckpointed(base_dir, /*resume=*/false, nullptr, 1);
  RunResult resumed = RunCheckpointed(dir, /*resume=*/true, nullptr, 1);
  ASSERT_FALSE(resumed.killed);
  EXPECT_EQ(resumed.json, baseline.json);
  EXPECT_GT(resumed.jstats.rejected_fingerprint, 0u);
  EXPECT_EQ(resumed.cstats.phases_loaded, 0);
  fs::remove_all(dir);
  fs::remove_all(base_dir);
}

// ---- cooperative interruption --------------------------------------------

TEST(CkptResumeTest, InterruptSurfacesAsPipelineErrorAndResumes) {
  const std::string dir = TempDir("interrupt");
  std::atomic<bool> flag{true};
  try {
    RunCheckpointed(dir, /*resume=*/false, nullptr, /*workers=*/1, &flag);
    FAIL() << "interrupted run completed";
  } catch (const core::PipelineError& e) {
    EXPECT_EQ(e.phase(), "selection");
    EXPECT_EQ(e.cause(), "interrupted");
  }
  flag.store(false);
  RunResult resumed =
      RunCheckpointed(dir, /*resume=*/true, nullptr, /*workers=*/1, &flag);
  ASSERT_FALSE(resumed.killed);
  EXPECT_EQ(resumed.json, RunPlain(/*workers=*/1));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace govdns
