// Multi-vantage fault-tolerance acceptance (DESIGN.md §6k): N supervised
// vantage shards — forked processes, each running the full checkpointed
// pipeline against its own network view — are murdered at EVERY journal
// write point (kill modes cycling, real `_exit`, supervisor restart from
// the shard's own journal) and deadline-expired as wall-clock stragglers;
// the merged cross-vantage disagreement report must stay byte-identical to
// an uninterrupted run, for {1,4} measurement workers and N in {2,3}. The
// merge itself must be a pure function of the summary set: every
// permutation of completion order renders the same JSON and the same text
// section. A shard whose restart budget is exhausted is declared lost and
// excluded from the merge, never silently dropped.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/fault.h"
#include "ckpt/journal.h"
#include "core/export.h"
#include "core/report.h"
#include "core/study.h"
#include "core/study_ckpt.h"
#include "core/vantage.h"
#include "worldgen/adapter.h"
#include "worldgen/countries.h"
#include "worldgen/world.h"

namespace govdns {
namespace {

namespace fs = std::filesystem;

// Same world shape as the ckpt_resume sweep: small but hostile enough that
// vantage overlays produce genuine cross-vantage disagreement.
constexpr double kScale = 0.004;
constexpr size_t kBatch = 200;
constexpr uint64_t kWorldFp = 0x76616E745EEDull;

std::string TempDir(const std::string& tag) {
  std::string dir =
      (fs::temp_directory_path() / ("govdns_vantage_" + tag)).string();
  fs::remove_all(dir);
  return dir;
}

worldgen::WorldConfig SmallWorld() {
  worldgen::WorldConfig config;
  config.scale = kScale;
  config.chaos = simnet::ChaosProfile::Hostile();
  return config;
}

// Fault injected into exactly one shard. The kill fires through the ckpt
// fault plan with exit_process=true — a real process death at a real write
// point, which the supervisor must absorb by restarting the shard from its
// journal. The stall wedges an attempt on the wall clock so the
// supervisor's deadline SIGKILL fires instead.
struct ShardFault {
  int vantage = -1;
  uint64_t kill_at_write = 0;
  ckpt::KillMode mode = ckpt::KillMode::kAfterCommit;
  bool kill_every_attempt = false;  // default: attempt 0 only
  uint64_t stall_ms = 0;
};

struct MultiRun {
  std::vector<core::VantageOutcome> outcomes;
  core::MultiVantageReport merged;
  std::string json;
};

const core::VantageOutcome& OutcomeOf(const MultiRun& run, int vantage) {
  return run.outcomes.at(static_cast<size_t>(vantage));
}

// One supervised multi-vantage run, mirroring the govdns_study --vantages
// orchestration: the world is built once in the parent, each forked shard
// applies its own overlay and journals into its private directory, and the
// parent folds surviving vantage frames into the deterministic merge.
MultiRun RunMulti(const std::string& dir, int vantages, int workers,
                  core::VantageSupervisorOptions options,
                  ShardFault fault = {}) {
  auto world = worldgen::BuildWorld(SmallWorld());
  std::vector<worldgen::VantageProfile> profiles;
  std::vector<std::string> names;
  for (int v = 0; v < vantages; ++v) {
    profiles.push_back(worldgen::MakeDefaultVantageProfile(v));
    names.push_back(profiles.back().name);
  }
  // The study-identity half of every shard fingerprint. Computed here
  // pre-overlay; matches each child's post-overlay value because vantage
  // overlays only touch network behaviors, never the input shape.
  uint64_t study_fp = 0;
  {
    worldgen::PolicyLookupAdapter policy(&world->registry_policy());
    study_fp = core::StudyInputsFingerprint(
        worldgen::MakeStudyInputs(*world, &policy));
  }
  std::vector<std::string> top10;
  for (const char* code : worldgen::Top10CountryCodes()) {
    top10.emplace_back(code);
  }

  core::VantageSupervisor::ChildFn child_fn = [&](const std::string& name,
                                                  int attempt) -> int {
    try {
      const worldgen::VantageProfile* profile = nullptr;
      int index = -1;
      for (size_t i = 0; i < profiles.size(); ++i) {
        if (profiles[i].name == name) {
          profile = &profiles[i];
          index = static_cast<int>(i);
        }
      }
      if (profile == nullptr) return 3;
      if (fault.stall_ms > 0 && fault.vantage == index && attempt == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(fault.stall_ms));
      }
      world->ApplyVantage(*profile);
      auto bound = worldgen::MakeStudy(*world);

      core::StudyCheckpointOptions opts;
      opts.batch_size = kBatch;
      opts.resume = attempt > 0;  // restarts always resume
      core::StudyCheckpoint ckpt(core::VantageJournalDir(dir, name),
                                 core::VantageBaseFingerprint(kWorldFp, name),
                                 opts);
      if (fault.kill_at_write > 0 && fault.vantage == index &&
          (fault.kill_every_attempt || attempt == 0)) {
        ckpt::CkptFaultPlan plan;
        plan.kill_at_write = fault.kill_at_write;
        plan.mode = fault.mode;
        plan.exit_process = true;  // a real death, not an exception
        ckpt.set_fault_plan(plan);
      }
      bound.study->AttachCheckpoint(&ckpt);

      bound.study->RunSelection();
      bound.study->RunMining();
      core::MeasurerOptions mopts;
      mopts.workers = workers;
      bound.study->RunActiveMeasurement(mopts);

      const std::string report_json = core::ExportReportJson(
          core::BuildReport(*bound.study, top10));
      ckpt.SaveReportJson(report_json);
      const uint64_t full_fp = ckpt::MixFingerprint(
          core::VantageBaseFingerprint(kWorldFp, name), study_fp);
      ckpt.SaveVantage(core::BuildVantageSummary(
          name, full_fp, bound.study->active(), report_json));
      return 0;
    } catch (...) {
      return 1;
    }
  };

  core::VantageSupervisor supervisor(names, options);
  MultiRun out;
  out.outcomes = supervisor.Run(child_fn);

  std::vector<core::VantageSummary> summaries;
  std::vector<std::string> lost;
  for (const core::VantageOutcome& outcome : out.outcomes) {
    if (outcome.lost) {
      lost.push_back(outcome.name);
      continue;
    }
    const uint64_t full_fp = ckpt::MixFingerprint(
        core::VantageBaseFingerprint(kWorldFp, outcome.name), study_fp);
    auto summary = core::LoadVantageSummary(
        core::VantageJournalDir(dir, outcome.name), full_fp);
    if (!summary) {
      lost.push_back(outcome.name);
      continue;
    }
    summaries.push_back(*std::move(summary));
  }
  out.merged =
      core::MergeVantageSummaries(std::move(summaries), std::move(lost));
  out.json = core::ExportMultiVantageJson(out.merged);
  return out;
}

core::VantageSupervisorOptions FastPoll() {
  core::VantageSupervisorOptions options;
  options.poll_ms = 5;
  return options;
}

// Write points per shard in a clean run: every frame name is committed
// exactly once, so the .ck census of any one shard's journal is the sweep
// bound (vantages share it — selection and batching are vantage-blind).
uint64_t CountWritePoints(const std::string& dir, const std::string& name) {
  uint64_t n = 0;
  for (const auto& entry :
       fs::directory_iterator(core::VantageJournalDir(dir, name))) {
    if (entry.path().extension() == ".ck") ++n;
  }
  return n;
}

// The full acceptance sweep for one (workers, vantages) cell: a clean
// baseline, then a shard murdered at every write point (victim and kill
// mode cycling), then a wall-clock straggler deadline-killed mid-stall.
// Every merged report must match the baseline byte-for-byte.
void KillAndStragglerSweep(int workers, int vantages) {
  const std::string tag =
      "w" + std::to_string(workers) + "_n" + std::to_string(vantages);
  const std::string base_dir = TempDir(tag + "_base");
  const auto base_start = std::chrono::steady_clock::now();
  MultiRun baseline = RunMulti(base_dir, vantages, workers, FastPoll());
  const uint64_t base_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - base_start)
          .count());
  ASSERT_EQ(baseline.merged.lost.size(), 0u);
  ASSERT_EQ(static_cast<int>(baseline.merged.vantages.size()), vantages);
  ASSERT_GT(baseline.merged.countries_compared, 0);
  for (const core::VantageOutcome& outcome : baseline.outcomes) {
    EXPECT_EQ(outcome.attempts, 1) << outcome.name;
  }
  const uint64_t writes = CountWritePoints(base_dir, baseline.merged.order[0]);
  ASSERT_GE(writes, 5u);
  fs::remove_all(base_dir);

  constexpr ckpt::KillMode kModes[] = {
      ckpt::KillMode::kBeforeWrite, ckpt::KillMode::kAfterTemp,
      ckpt::KillMode::kTruncate, ckpt::KillMode::kCorrupt,
      ckpt::KillMode::kAfterCommit};
  for (uint64_t k = 1; k <= writes; ++k) {
    const std::string dir = TempDir(tag + "_k" + std::to_string(k));
    ShardFault fault;
    fault.vantage = static_cast<int>(k % static_cast<uint64_t>(vantages));
    fault.kill_at_write = k;
    fault.mode = kModes[k % 5];
    MultiRun killed = RunMulti(dir, vantages, workers, FastPoll(), fault);
    const core::VantageOutcome& victim = OutcomeOf(killed, fault.vantage);
    ASSERT_FALSE(victim.lost) << "write " << k;
    ASSERT_EQ(victim.attempts, 2)
        << "plan at write " << k << " never fired for " << victim.name;
    EXPECT_EQ(killed.json, baseline.json)
        << "merged report diverged after killing " << victim.name
        << " at write " << k << " (" << ckpt::KillModeName(fault.mode) << ")";
    fs::remove_all(dir);
  }

  // Straggler: attempt 0 of shard 0 wedges on the wall clock far past the
  // deadline; the supervisor SIGKILLs it and the restart resumes clean. The
  // deadline bounds every attempt, so it is sized from the clean baseline
  // (4x its wall time, at least 1 s) for the restart to finish inside it
  // on a slow build or a loaded host.
  const std::string stall_dir = TempDir(tag + "_stall");
  core::VantageSupervisorOptions deadline = FastPoll();
  deadline.deadline_ms = std::max<uint64_t>(1000, 4 * base_ms);
  ShardFault stall;
  stall.vantage = 0;
  stall.stall_ms = 10 * deadline.deadline_ms;
  MultiRun straggler = RunMulti(stall_dir, vantages, workers, deadline, stall);
  const core::VantageOutcome& slow = OutcomeOf(straggler, 0);
  ASSERT_FALSE(slow.lost);
  EXPECT_GE(slow.deadline_kills, 1);
  EXPECT_EQ(slow.attempts, 2);
  EXPECT_EQ(straggler.json, baseline.json)
      << "merged report diverged after deadline-killing " << slow.name;
  fs::remove_all(stall_dir);
}

TEST(MultiVantageTest, KillEveryWritePointOneWorkerTwoVantages) {
  KillAndStragglerSweep(/*workers=*/1, /*vantages=*/2);
}

TEST(MultiVantageTest, KillEveryWritePointPoolTwoVantages) {
  KillAndStragglerSweep(/*workers=*/4, /*vantages=*/2);
}

TEST(MultiVantageTest, KillEveryWritePointOneWorkerThreeVantages) {
  KillAndStragglerSweep(/*workers=*/1, /*vantages=*/3);
}

TEST(MultiVantageTest, KillEveryWritePointPoolThreeVantages) {
  KillAndStragglerSweep(/*workers=*/4, /*vantages=*/3);
}

// Worker-pool size may cost or save wall-clock time inside each shard but
// must never change the merged bytes.
TEST(MultiVantageTest, WorkerPoolNeverChangesMergedBytes) {
  const std::string dir1 = TempDir("pool_w1");
  const std::string dir4 = TempDir("pool_w4");
  MultiRun one = RunMulti(dir1, /*vantages=*/2, /*workers=*/1, FastPoll());
  MultiRun four = RunMulti(dir4, /*vantages=*/2, /*workers=*/4, FastPoll());
  ASSERT_FALSE(one.merged.vantages.empty());
  EXPECT_EQ(one.json, four.json);
  fs::remove_all(dir1);
  fs::remove_all(dir4);
}

// The merge is a pure, order-free function of the summary set: every
// permutation of collection order produces byte-identical JSON and a
// byte-identical rendered disagreement section.
TEST(MultiVantageTest, MergeIsByteIdenticalAcrossCompletionOrders) {
  const std::string dir = TempDir("perm");
  MultiRun baseline = RunMulti(dir, /*vantages=*/3, /*workers=*/1, FastPoll());
  ASSERT_EQ(baseline.merged.vantages.size(), 3u);

  std::ostringstream base_text;
  core::PrintMultiVantageReport(baseline.merged, base_text);

  std::vector<core::VantageSummary> summaries = baseline.merged.vantages;
  std::sort(summaries.begin(), summaries.end(),
            [](const core::VantageSummary& a, const core::VantageSummary& b) {
              return a.name < b.name;
            });
  int permutations = 0;
  do {
    core::MultiVantageReport merged = core::MergeVantageSummaries(
        summaries, /*lost=*/{});
    EXPECT_EQ(core::ExportMultiVantageJson(merged), baseline.json)
        << "permutation " << permutations;
    std::ostringstream text;
    core::PrintMultiVantageReport(merged, text);
    EXPECT_EQ(text.str(), base_text.str()) << "permutation " << permutations;
    ++permutations;
  } while (std::next_permutation(
      summaries.begin(), summaries.end(),
      [](const core::VantageSummary& a, const core::VantageSummary& b) {
        return a.name < b.name;
      }));
  EXPECT_EQ(permutations, 6);
  fs::remove_all(dir);
}

// A shard that dies on every attempt exhausts its restart budget, is
// declared lost, and is excluded from — but named by — the merge.
TEST(MultiVantageTest, ShardDeadOnEveryAttemptIsDeclaredLost) {
  const std::string dir = TempDir("lost");
  core::VantageSupervisorOptions options = FastPoll();
  options.max_restarts = 1;
  ShardFault fault;
  fault.vantage = 1;
  fault.kill_at_write = 1;
  fault.kill_every_attempt = true;
  MultiRun run = RunMulti(dir, /*vantages=*/2, /*workers=*/1, options, fault);
  const core::VantageOutcome& dead = OutcomeOf(run, 1);
  EXPECT_TRUE(dead.lost);
  EXPECT_EQ(dead.attempts, 2);  // budget of 1 restart, both murdered
  ASSERT_EQ(run.merged.lost.size(), 1u);
  EXPECT_EQ(run.merged.lost[0], dead.name);
  ASSERT_EQ(run.merged.vantages.size(), 1u);
  EXPECT_NE(run.merged.vantages[0].name, dead.name);
  // One survivor: no pair to disagree, but the lost shard must be named.
  EXPECT_NE(run.json.find(dead.name), std::string::npos);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace govdns
