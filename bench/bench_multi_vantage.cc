// Multi-vantage supervision bench: what fault tolerance costs.
//
// Runs the full supervised multi-vantage pipeline (fork-per-shard, private
// journals, deterministic disagreement merge — DESIGN.md §6k) three ways on
// fresh worlds with the same seed: uninterrupted, with one shard murdered
// mid-run at a journal write point (supervisor restarts it from its
// journal), and with one shard deadline-killed as a wall-clock straggler.
// Reports the wall-clock overhead of each recovery next to the invariant
// that pays for everything: all three merged disagreement reports must be
// byte-identical. The artifact lands in BENCH_vantage.json (path
// overridable via GOVDNS_VANTAGE_JSON).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "ckpt/fault.h"
#include "ckpt/journal.h"
#include "core/export.h"
#include "core/report.h"
#include "core/study.h"
#include "core/study_ckpt.h"
#include "core/vantage.h"
#include "util/json.h"
#include "util/table.h"
#include "worldgen/adapter.h"
#include "worldgen/countries.h"
#include "worldgen/world.h"

namespace {

namespace fs = std::filesystem;

constexpr uint64_t kWorldFp = 0xBE4C876616E74ull;
constexpr int kVantages = 2;
// Each run forks 2x the pipeline, so the default is smaller than 1.0.
constexpr double kUnsetScale = 0.02;

struct Fault {
  uint64_t kill_at_write = 0;  // shard 0, attempt 0, after-commit _exit
  uint64_t stall_ms = 0;       // shard 0, attempt 0 wedges; deadline fires
};

struct ArmPoint {
  double seconds = 0.0;  // supervise + merge; world build excluded
  std::string json;
  int attempts = 0;        // shard 0's attempt count
  int deadline_kills = 0;  // shard 0's deadline kills
  int64_t countries_compared = 0;
  int64_t countries_disagreeing = 0;
};

// One supervised multi-vantage run on a fresh world, mirroring the
// govdns_study --vantages orchestration.
ArmPoint RunArm(const std::string& dir, const Fault& fault,
                uint64_t deadline_ms) {
  using namespace govdns;
  fs::remove_all(dir);
  worldgen::WorldConfig config;
  config.scale = govdns::bench::ScaleFromEnv("GOVDNS_SCALE", kUnsetScale);
  auto world = worldgen::BuildWorld(config);

  std::vector<worldgen::VantageProfile> profiles;
  std::vector<std::string> names;
  for (int v = 0; v < kVantages; ++v) {
    profiles.push_back(worldgen::MakeDefaultVantageProfile(v));
    names.push_back(profiles.back().name);
  }
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
      for (const worldgen::VantageProfile& p : profiles) {
        if (p.name == name) profile = &p;
      }
      if (profile == nullptr) return 3;
      const bool victim = name == names[0] && attempt == 0;
      if (victim && fault.stall_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(fault.stall_ms));
      }
      world->ApplyVantage(*profile);
      auto bound = worldgen::MakeStudy(*world);

      core::StudyCheckpointOptions opts;
      opts.resume = attempt > 0;
      core::StudyCheckpoint ckpt(core::VantageJournalDir(dir, name),
                                 core::VantageBaseFingerprint(kWorldFp, name),
                                 opts);
      if (victim && fault.kill_at_write > 0) {
        ckpt::CkptFaultPlan plan;
        plan.kill_at_write = fault.kill_at_write;
        plan.mode = ckpt::KillMode::kAfterCommit;
        plan.exit_process = true;
        ckpt.set_fault_plan(plan);
      }
      bound.study->AttachCheckpoint(&ckpt);
      bound.study->RunSelection();
      bound.study->RunMining();
      bound.study->RunActiveMeasurement();

      const std::string report_json =
          core::ExportReportJson(core::BuildReport(*bound.study, top10));
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

  core::VantageSupervisorOptions options;
  options.poll_ms = 10;
  options.deadline_ms = deadline_ms;

  const auto start = std::chrono::steady_clock::now();
  core::VantageSupervisor supervisor(names, options);
  std::vector<core::VantageOutcome> outcomes = supervisor.Run(child_fn);

  std::vector<core::VantageSummary> summaries;
  std::vector<std::string> lost;
  for (const core::VantageOutcome& outcome : outcomes) {
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
  core::MultiVantageReport merged =
      core::MergeVantageSummaries(std::move(summaries), std::move(lost));
  const auto stop = std::chrono::steady_clock::now();

  ArmPoint point;
  point.seconds = std::chrono::duration<double>(stop - start).count();
  point.json = core::ExportMultiVantageJson(merged);
  point.attempts = outcomes.empty() ? 0 : outcomes[0].attempts;
  point.deadline_kills = outcomes.empty() ? 0 : outcomes[0].deadline_kills;
  point.countries_compared = merged.countries_compared;
  point.countries_disagreeing = merged.countries_disagreeing;
  fs::remove_all(dir);
  return point;
}

void BM_SupervisedMultiVantage(benchmark::State& state) {
  const std::string dir =
      (fs::temp_directory_path() / "govdns_bench_vantage_bm").string();
  for (auto _ : state) {
    ArmPoint point = RunArm(dir, Fault{}, /*deadline_ms=*/0);
    benchmark::DoNotOptimize(point);
  }
}
BENCHMARK(BM_SupervisedMultiVantage)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

void PrintArtifact() {
  const std::string dir =
      (fs::temp_directory_path() / "govdns_bench_vantage").string();

  ArmPoint clean = RunArm(dir, Fault{}, /*deadline_ms=*/0);
  Fault crash;
  crash.kill_at_write = 2;  // mid-pipeline: after the mining frame commits
  ArmPoint crashed = RunArm(dir, crash, /*deadline_ms=*/0);
  Fault stall;
  stall.stall_ms = 60000;
  ArmPoint straggler = RunArm(dir, stall, /*deadline_ms=*/1000);

  const bool identical =
      clean.json == crashed.json && clean.json == straggler.json;
  const double crash_over =
      clean.seconds > 0.0 ? (crashed.seconds / clean.seconds - 1.0) * 100.0
                          : 0.0;
  const double stall_over =
      clean.seconds > 0.0 ? (straggler.seconds / clean.seconds - 1.0) * 100.0
                          : 0.0;

  govdns::util::TextTable table(
      {"Config", "Seconds", "Shard-0 attempts", "Deadline kills"});
  char clean_s[32], crash_s[32], stall_s[32];
  std::snprintf(clean_s, sizeof clean_s, "%.3f", clean.seconds);
  std::snprintf(crash_s, sizeof crash_s, "%.3f", crashed.seconds);
  std::snprintf(stall_s, sizeof stall_s, "%.3f", straggler.seconds);
  table.AddRow({"uninterrupted", clean_s, std::to_string(clean.attempts),
                std::to_string(clean.deadline_kills)});
  table.AddRow({"crash + restart", crash_s, std::to_string(crashed.attempts),
                std::to_string(crashed.deadline_kills)});
  table.AddRow({"straggler + deadline kill", stall_s,
                std::to_string(straggler.attempts),
                std::to_string(straggler.deadline_kills)});

  govdns::util::JsonWriter w;
  w.BeginObject();
  w.Kv("scale", govdns::bench::ScaleFromEnv("GOVDNS_SCALE", kUnsetScale));
  w.Kv("vantages", int64_t(kVantages));
  w.Kv("clean_seconds", clean.seconds);
  w.Kv("crash_seconds", crashed.seconds);
  w.Kv("crash_overhead_pct", crash_over);
  w.Kv("crash_attempts", int64_t(crashed.attempts));
  w.Kv("straggler_seconds", straggler.seconds);
  w.Kv("straggler_overhead_pct", stall_over);
  w.Kv("straggler_deadline_kills", int64_t(straggler.deadline_kills));
  w.Kv("countries_compared", clean.countries_compared);
  w.Kv("countries_disagreeing", clean.countries_disagreeing);
  w.Kv("reports_identical", identical);
  w.EndObject();
  const std::string json = w.TakeString();

  std::printf("\nMulti-vantage supervision — %d forked shards supervised to\n",
              kVantages);
  std::printf("completion three ways (fresh world per run, build excluded):\n");
  std::printf("clean, one shard crash-restarted from its journal, one shard\n");
  std::printf("deadline-killed mid-stall. Recovery may only cost wall-clock\n");
  std::printf("time — the merged disagreement report must stay identical.\n");
  table.Print(std::cout);
  std::printf("crash overhead: %.2f%%, straggler overhead: %.2f%%, "
              "reports identical: %s\n",
              crash_over, stall_over, identical ? "yes" : "NO");
  std::fprintf(stderr, "[bench] vantage %s\n", json.c_str());

  govdns::bench::WriteArtifactJson("GOVDNS_VANTAGE_JSON",
                                   "BENCH_vantage.json", json);
}

}  // namespace

GOVDNS_BENCH_MAIN(PrintArtifact)
