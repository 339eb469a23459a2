// Checkpoint overhead bench: the full pipeline with and without a journal.
//
// The checkpoint layer's contract mirrors the obs layer's: attaching a
// StudyCheckpoint may only cost wall-clock time and disk bytes, never change
// the exported report. This bench runs the complete pipeline (selection ->
// mining -> active measurement -> report export) three ways on fresh worlds
// with the same seed — no journal, journal from scratch, and a resume over
// the completed journal — and reports the write-path overhead plus the
// resume speedup that pays for it. The artifact lands in
// BENCH_checkpoint.json (path overridable via GOVDNS_CKPT_JSON) so the
// journal's cost is tracked on disk run over run.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/export.h"
#include "core/report.h"
#include "core/study.h"
#include "core/study_ckpt.h"
#include "util/json.h"
#include "util/table.h"
#include "worldgen/adapter.h"
#include "worldgen/world.h"

namespace {

namespace fs = std::filesystem;

constexpr uint64_t kWorldFp = 0xBE7CC4F7ull;

struct ArmPoint {
  double seconds = 0.0;  // pipeline only; world build is excluded
  std::string report_json;
  size_t domains = 0;
  uint64_t commits = 0;
  uint64_t bytes_written = 0;
  int phases_loaded = 0;
};

// One full pipeline on a fresh world. `dir` empty = no checkpoint;
// otherwise a journal is attached (resuming whatever the dir holds).
ArmPoint RunArm(const std::string& dir, bool resume) {
  govdns::worldgen::WorldConfig config;
  config.scale = govdns::bench::ScaleFromEnv();
  auto world = govdns::worldgen::BuildWorld(config);
  auto bound = govdns::worldgen::MakeStudy(*world);

  std::unique_ptr<govdns::core::StudyCheckpoint> ckpt;
  if (!dir.empty()) {
    govdns::core::StudyCheckpointOptions opts;
    opts.resume = resume;
    ckpt = std::make_unique<govdns::core::StudyCheckpoint>(dir, kWorldFp,
                                                           opts);
    bound.study->AttachCheckpoint(ckpt.get());
  }

  const auto start = std::chrono::steady_clock::now();
  const govdns::core::StudyReport report = bound.study->Run();
  const auto stop = std::chrono::steady_clock::now();

  ArmPoint point;
  point.seconds = std::chrono::duration<double>(stop - start).count();
  point.report_json = govdns::core::ExportReportJson(report);
  point.domains = bound.study->active().results.size();
  if (ckpt != nullptr) {
    point.commits = ckpt->journal_stats().commits;
    point.bytes_written = ckpt->journal_stats().bytes_written;
    point.phases_loaded = ckpt->stats().phases_loaded;
  }
  return point;
}

void BM_Pipeline(benchmark::State& state) {
  const bool checkpointed = state.range(0) != 0;
  const std::string dir =
      (fs::temp_directory_path() / "govdns_bench_ckpt_bm").string();
  for (auto _ : state) {
    fs::remove_all(dir);
    auto point = RunArm(checkpointed ? dir : "", /*resume=*/false);
    benchmark::DoNotOptimize(point);
  }
  fs::remove_all(dir);
}
BENCHMARK(BM_Pipeline)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

void PrintArtifact() {
  const std::string dir =
      (fs::temp_directory_path() / "govdns_bench_ckpt").string();
  constexpr int kReps = 2;
  double off_total = 0.0, on_total = 0.0;
  ArmPoint off, on;
  for (int rep = 0; rep < kReps; ++rep) {
    off = RunArm("", /*resume=*/false);
    off_total += off.seconds;
    fs::remove_all(dir);
    on = RunArm(dir, /*resume=*/false);
    on_total += on.seconds;
  }
  // Resume over the last completed journal: everything loads, nothing
  // recomputes — this is what the write-path overhead buys.
  ArmPoint resumed = RunArm(dir, /*resume=*/true);
  fs::remove_all(dir);

  const double off_s = off_total / kReps;
  const double on_s = on_total / kReps;
  const double overhead_pct = off_s > 0.0 ? (on_s / off_s - 1.0) * 100.0 : 0.0;
  const bool identical = off.report_json == on.report_json &&
                         on.report_json == resumed.report_json;

  govdns::util::TextTable table(
      {"Config", "Seconds", "Commits", "Bytes written"});
  char off_sec[32], on_sec[32], res_sec[32];
  std::snprintf(off_sec, sizeof off_sec, "%.3f", off_s);
  std::snprintf(on_sec, sizeof on_sec, "%.3f", on_s);
  std::snprintf(res_sec, sizeof res_sec, "%.3f", resumed.seconds);
  table.AddRow({"no checkpoint", off_sec, "-", "-"});
  table.AddRow({"journal from scratch", on_sec, std::to_string(on.commits),
                std::to_string(on.bytes_written)});
  table.AddRow({"resume (all loaded)", res_sec,
                std::to_string(resumed.commits),
                std::to_string(resumed.bytes_written)});

  govdns::util::JsonWriter w;
  w.BeginObject();
  w.Kv("scale", govdns::bench::ScaleFromEnv());
  w.Kv("domains", int64_t(on.domains));
  w.Kv("reps", int64_t(kReps));
  w.Kv("off_seconds", off_s);
  w.Kv("on_seconds", on_s);
  w.Kv("overhead_pct", overhead_pct);
  w.Kv("resume_seconds", resumed.seconds);
  w.Kv("resume_phases_loaded", int64_t(resumed.phases_loaded));
  w.Kv("commits", int64_t(on.commits));
  w.Kv("bytes_written", int64_t(on.bytes_written));
  w.Kv("reports_identical", identical);
  w.EndObject();
  const std::string json = w.TakeString();

  std::printf("\nCheckpoint overhead — full pipeline with and without the\n");
  std::printf("journal (fresh world per run, world build excluded), mean of\n");
  std::printf("%d interleaved reps, plus one resume over the completed\n",
              kReps);
  std::printf("journal. The journal may only cost time and bytes — all\n");
  std::printf("three report exports must stay byte-identical.\n");
  table.Print(std::cout);
  std::printf("overhead: %.2f%%, reports identical: %s\n", overhead_pct,
              identical ? "yes" : "NO");
  std::fprintf(stderr, "[bench] checkpoint %s\n", json.c_str());

  govdns::bench::WriteArtifactJson("GOVDNS_CKPT_JSON", "BENCH_checkpoint.json", json);
}

}  // namespace

GOVDNS_BENCH_MAIN(PrintArtifact)
