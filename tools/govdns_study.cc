// govdns_study — run the complete study from the command line and export
// the results.
//
//   govdns_study [--scale S] [--seed N] [--json out.json] [--csv table[,table...]]
//                [--metrics out.json] [--trace out.json]
//                [--trace-sample N] [--mine-workers N] [--report]
//                [--checkpoint-dir DIR] [--resume] [--ckpt-batch N]
//                [--ckpt-kill-after N]
//                [--phase-deadline MS] [--country-budget MS]
//                [--domain-budget MS] [--quarantine-report PATH]
//                [--snapshot-file PATH] [--map-snapshot PATH]
//                [--vantages N] [--vantage-deadline MS]
//                [--vantage-restarts K]
//
// Builds a world at the requested scale, runs selection -> mining -> active
// measurement, and then prints the consolidated report (--report, default)
// and/or writes machine-readable exports. --metrics and --trace attach the
// observability layer and dump the metrics snapshot / sampled query traces
// (DESIGN.md §6d); both documents are deterministic for a given seed except
// for series tagged "diagnostic". The report is the figure run: one section
// per paper table and figure (core::PrintReport).
//
// Every flag value is parsed strictly: a missing value, a value that is not
// wholly a number, or one outside its flag's range (--scale in [0, 1000],
// --vantages at most worldgen::kMaxDefaultVantages) exits 2 with the usage
// line before any world is built, and so does an unknown --csv table.
//
// Checkpointing (DESIGN.md §6f): --checkpoint-dir journals every phase into
// DIR; --resume picks up from the last complete phase (and, inside active
// measurement, the last complete batch). --ckpt-kill-after N _exit(42)s at
// the Nth journal write — the harness uses this to prove kill-anywhere
// resume. SIGINT/SIGTERM raise a cooperative flag: the in-flight batch
// finishes, its checkpoint commits, and the run exits with a structured
// error naming the interrupted phase. A second SIGINT/SIGTERM during that
// flush escalates to an immediate _exit (DESIGN.md §6g).
//
// Snapshot files (DESIGN.md §6i): --snapshot-file PATH publishes the
// world's in-memory PDNS image as a mmap-able GVSN snapshot at PATH (atomic
// tmp+rename), stamped with the same world fingerprint the journal uses.
// --map-snapshot PATH memory-maps such a file and mines it in place of the
// world's image — the O(1)-resume fast path; the mined dataset (and
// therefore the report) is byte-identical either way.
//
// Degradation budgets (DESIGN.md §6g): --domain-budget caps the logical ms
// one domain may consume, --country-budget one country's domains together,
// --phase-deadline the whole measurement phase; over-budget domains are
// quarantined, annotated in the report's quarantine section, and optionally
// dumped standalone with --quarantine-report.
//
// Multi-vantage mode (DESIGN.md §6k): --vantages N forks N supervised shard
// processes, each measuring the same world through its own vantage overlay
// and journaling into <checkpoint-dir>/vantage_<name>/. The parent restarts
// crashed shards from their journals (--vantage-restarts attempts), SIGKILLs
// any attempt that outlives --vantage-deadline, folds the surviving vantage
// frames into the deterministic cross-vantage disagreement report, and
// degrades lost vantages into the quarantine taxonomy. Test hooks:
// --vantage-sigkill NAME:MS murders a shard mid-run, --vantage-kill-after
// NAME:N arms a first-attempt fault plan at the Nth journal write, and
// --vantage-stall NAME:MS wedges a first attempt so the deadline fires.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#include "ckpt/fault.h"
#include "ckpt/signals.h"
#include "core/export.h"
#include "core/mining.h"
#include "core/report.h"
#include "core/study.h"
#include "core/study_ckpt.h"
#include "core/vantage.h"
#include "netio/engine.h"
#include "obs/obs.h"
#include "pdns/db.h"
#include "util/json.h"
#include "util/strings.h"
#include "worldgen/adapter.h"

namespace {

std::atomic<bool> g_interrupted{false};

// Structured failure diagnostic on stderr: one JSON object naming the phase
// that died and why, so harnesses never have to scrape free-form text.
void PrintStructuredError(const std::string& phase, const std::string& cause) {
  govdns::util::JsonWriter w;
  w.BeginObject();
  w.Key("error").BeginObject();
  w.Kv("phase", phase);
  w.Kv("cause", cause);
  w.EndObject();
  w.EndObject();
  std::fprintf(stderr, "%s\n", w.TakeString().c_str());
}

// "NAME:VALUE" test-hook argument (split on the last ':', so vantage names
// may not contain one — the default roster doesn't).
std::optional<std::pair<std::string, uint64_t>> ParseNameValue(
    const std::string& s) {
  size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0) return std::nullopt;
  auto value = govdns::util::ParseUint(std::string_view(s).substr(colon + 1),
                                       UINT64_MAX);
  if (!value) return std::nullopt;
  return std::make_pair(s.substr(0, colon), *value);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace govdns;

  worldgen::WorldConfig config;
  config.scale = 0.05;
  std::string json_path;
  std::string csv_tables;
  std::string metrics_path;
  std::string trace_path;
  std::string checkpoint_dir;
  uint64_t trace_sample = 16;
  int mine_workers = 0;  // 0 = all cores (results are worker-count invariant)
  bool print_report = true;
  core::StudyCheckpointOptions ckpt_options;
  uint64_t kill_after = 0;
  core::MeasurerOptions measure_options;
  std::string quarantine_path;
  std::string snapshot_out_path;
  std::string map_snapshot_path;
  bool use_engine = false;
  netio::QueryEngine::Options engine_options;
  int vantages = 0;
  core::VantageSupervisorOptions vantage_options;
  std::optional<std::pair<std::string, uint64_t>> vantage_kill_after;
  std::optional<std::pair<std::string, uint64_t>> vantage_stall;

  // Every flag but the switches takes one value. A missing value, a value
  // that is not wholly a number in the flag's range, or an unknown flag is
  // a usage error, reported before the world is built.
  bool bad = false;
  for (int i = 1; i < argc && !bad; ++i) {
    const std::string arg = argv[i];
    auto text = [&]() -> std::string {
      if (i + 1 >= argc) {
        bad = true;
        return "";
      }
      return argv[++i];
    };
    auto whole = [&](uint64_t max) -> uint64_t {
      std::optional<uint64_t> v = util::ParseUint(text(), max);
      if (!v) bad = true;
      return v.value_or(0);
    };
    auto count = [&](int max) { return static_cast<int>(whole(max)); };
    auto real = [&](double max) -> double {
      std::optional<double> v = util::ParseDouble(text(), 0.0, max);
      if (!v) bad = true;
      return v.value_or(0.0);
    };
    auto hook = [&]() {
      auto kv = ParseNameValue(text());
      if (!kv) bad = true;
      return kv;
    };
    constexpr int kIntMax = std::numeric_limits<int>::max();
    if (arg == "--scale") {
      config.scale = real(worldgen::kMaxScale);
    } else if (arg == "--seed") {
      config.seed = whole(UINT64_MAX);
    } else if (arg == "--json") {
      json_path = text();
    } else if (arg == "--csv") {
      csv_tables = text();
    } else if (arg == "--metrics") {
      metrics_path = text();
    } else if (arg == "--trace") {
      trace_path = text();
    } else if (arg == "--trace-sample") {
      trace_sample = whole(UINT64_MAX);
    } else if (arg == "--mine-workers") {
      mine_workers = count(kIntMax);
    } else if (arg == "--checkpoint-dir") {
      checkpoint_dir = text();
    } else if (arg == "--resume") {
      ckpt_options.resume = true;
    } else if (arg == "--ckpt-batch") {
      ckpt_options.batch_size = static_cast<size_t>(whole(SIZE_MAX));
    } else if (arg == "--ckpt-kill-after") {
      kill_after = whole(UINT64_MAX);
    } else if (arg == "--phase-deadline") {
      measure_options.phase_deadline_logical_ms = whole(UINT64_MAX);
    } else if (arg == "--country-budget") {
      measure_options.max_logical_ms_per_country = whole(UINT64_MAX);
    } else if (arg == "--domain-budget") {
      measure_options.max_logical_ms_per_domain = whole(UINT64_MAX);
    } else if (arg == "--quarantine-report") {
      quarantine_path = text();
    } else if (arg == "--snapshot-file") {
      snapshot_out_path = text();
    } else if (arg == "--map-snapshot") {
      map_snapshot_path = text();
    } else if (arg == "--engine") {
      use_engine = true;
    } else if (arg == "--max-inflight") {
      engine_options.max_inflight = count(kIntMax);
    } else if (arg == "--per-ns-qps") {
      engine_options.per_server_qps =
          real(std::numeric_limits<double>::max());
    } else if (arg == "--lanes") {
      measure_options.workers = count(kIntMax);
    } else if (arg == "--vantages") {
      vantages = count(worldgen::kMaxDefaultVantages);
    } else if (arg == "--vantage-deadline") {
      vantage_options.deadline_ms = whole(UINT64_MAX);
    } else if (arg == "--vantage-restarts") {
      vantage_options.max_restarts = count(kIntMax);
    } else if (arg == "--vantage-sigkill") {
      if (auto kv = hook()) vantage_options.kill_once = {kv->first, kv->second};
    } else if (arg == "--vantage-kill-after") {
      vantage_kill_after = hook();
    } else if (arg == "--vantage-stall") {
      vantage_stall = hook();
    } else if (arg == "--report") {
      print_report = true;
    } else if (arg == "--no-report") {
      print_report = false;
    } else {
      bad = true;
    }
    if (bad) {
      std::fprintf(stderr, "%s: unknown flag, or bad or missing value: %s\n",
                   argv[0], arg.c_str());
    }
  }
  if (bad) {
    std::fprintf(stderr,
                 "usage: %s [--scale S] [--seed N] [--json out.json] "
                 "[--csv t1,t2] [--metrics out.json] [--trace out.json] "
                 "[--trace-sample N] [--mine-workers N] [--no-report] "
                 "[--checkpoint-dir DIR] [--resume] [--ckpt-batch N] "
                 "[--ckpt-kill-after N] [--phase-deadline MS] "
                 "[--country-budget MS] [--domain-budget MS] "
                 "[--quarantine-report PATH] [--engine] [--max-inflight N] "
                 "[--per-ns-qps Q] [--lanes N] [--snapshot-file PATH] "
                 "[--map-snapshot PATH] [--vantages N (max %d)] "
                 "[--vantage-deadline MS] [--vantage-restarts K]\n",
                 argv[0], worldgen::kMaxDefaultVantages);
    return 2;
  }
  if (!csv_tables.empty()) {
    // A known table renders its header row even from an empty report, so an
    // empty export names a table that does not exist.
    for (const std::string& table : util::Split(csv_tables, ',')) {
      if (core::ExportCsv({}, table).empty()) {
        PrintStructuredError("setup", "unknown csv table: " + table);
        return 2;
      }
    }
  }
  if ((ckpt_options.resume || kill_after != 0) && checkpoint_dir.empty()) {
    PrintStructuredError("setup",
                         "--resume/--ckpt-kill-after require --checkpoint-dir");
    return 2;
  }
  if (vantages > 0) {
    // The shards ARE the journal consumers, so a checkpoint root is
    // mandatory; engine/snapshot modes are per-process concerns that do not
    // compose with fork-per-vantage (the engine spawns threads, and fork
    // from a threaded parent is off the table).
    if (checkpoint_dir.empty()) {
      PrintStructuredError("setup", "--vantages requires --checkpoint-dir");
      return 2;
    }
    if (use_engine || !snapshot_out_path.empty() || !map_snapshot_path.empty() ||
        kill_after != 0) {
      PrintStructuredError("setup",
                           "--vantages is incompatible with --engine, "
                           "--snapshot-file, --map-snapshot and "
                           "--ckpt-kill-after (use --vantage-kill-after)");
      return 2;
    }
  }

  std::string phase = "setup";
  try {
    std::fprintf(stderr, "building world (scale %.3f, seed %llu)...\n",
                 config.scale, static_cast<unsigned long long>(config.seed));
    auto world = worldgen::BuildWorld(config);
    // The engine (if any) must be wired in *before* the Study is built: the
    // study binds its resolver to the transport at construction. Fronting
    // the simulated network with a wrapped-mode QueryEngine leaves the
    // report byte-identical — exchanges still execute inline on each lane's
    // thread under its own chaos context — while exercising the exact
    // submit/complete path a real-socket run uses.
    std::optional<pdns::PdnsSnapshot> mapped_snapshot;
    std::unique_ptr<netio::QueryEngine> engine;
    worldgen::BoundStudy bound;
    bound.policy = std::make_unique<worldgen::PolicyLookupAdapter>(
        &world->registry_policy());
    core::StudyInputs inputs =
        worldgen::MakeStudyInputs(*world, bound.policy.get());

    // World identity: every knob that changes the world's bytes belongs in
    // this fingerprint. The checkpoint journal and snapshot files both carry
    // it, so neither artifact can cross worlds.
    uint64_t world_fp = config.seed;
    world_fp = ckpt::MixFingerprint(
        world_fp, static_cast<uint64_t>(config.scale * 1000000.0));
    world_fp =
        ckpt::MixFingerprint(world_fp, static_cast<uint64_t>(config.first_year));
    world_fp =
        ckpt::MixFingerprint(world_fp, static_cast<uint64_t>(config.last_year));

    if (vantages > 0) {
      // Multi-vantage orchestration (DESIGN.md §6k). The world was built
      // once, above, and no thread outlives BuildWorld (§6m), so this
      // parent is still thread-free when it forks; each shard applies its
      // own vantage overlay to the copy-on-write network and runs the full
      // pipeline into its private journal. The parent never builds a Study
      // — it only supervises and merges vantage frames.
      phase = "vantage";
      std::vector<worldgen::VantageProfile> profiles;
      std::vector<std::string> names;
      for (int v = 0; v < vantages; ++v) {
        profiles.push_back(worldgen::MakeDefaultVantageProfile(v));
        names.push_back(profiles.back().name);
      }
      // The study-identity half of each shard journal's fingerprint; a pure
      // function of the inputs' shape, so the parent's (pre-overlay) value
      // matches what every child computes post-overlay.
      const uint64_t study_fp = core::StudyInputsFingerprint(inputs);
      std::vector<std::string> top10;
      for (const char* code : worldgen::Top10CountryCodes()) {
        top10.emplace_back(code);
      }

      core::VantageSupervisor::ChildFn child_fn =
          [&](const std::string& name, int attempt) -> int {
        try {
          const worldgen::VantageProfile* profile = nullptr;
          for (const worldgen::VantageProfile& p : profiles) {
            if (p.name == name) profile = &p;
          }
          if (profile == nullptr) return 3;
          if (vantage_stall && vantage_stall->first == name && attempt == 0) {
            // Wedge the first attempt on the wall clock so the supervisor's
            // deadline fires; the restart runs clean and resumes.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(vantage_stall->second));
          }
          world->ApplyVantage(*profile);
          worldgen::BoundStudy shard;
          shard.policy = std::make_unique<worldgen::PolicyLookupAdapter>(
              &world->registry_policy());
          core::StudyInputs shard_inputs =
              worldgen::MakeStudyInputs(*world, shard.policy.get());
          const uint64_t shard_study_fp =
              core::StudyInputsFingerprint(shard_inputs);

          core::StudyCheckpointOptions shard_ckpt = ckpt_options;
          // Restarts always resume: that is the whole crash-recovery story.
          shard_ckpt.resume = ckpt_options.resume || attempt > 0;
          core::StudyCheckpoint ckpt(
              core::VantageJournalDir(checkpoint_dir, name),
              core::VantageBaseFingerprint(world_fp, name), shard_ckpt);
          if (vantage_kill_after && vantage_kill_after->first == name &&
              attempt == 0) {
            ckpt::CkptFaultPlan plan;
            plan.kill_at_write = vantage_kill_after->second;
            plan.mode = ckpt::KillMode::kAfterCommit;
            plan.exit_process = true;
            ckpt.set_fault_plan(plan);
          }

          obs::ObservabilityConfig shard_obs_config;
          shard_obs_config.trace.sample_period =
              trace_sample == 0 ? 1 : trace_sample;
          obs::Observability shard_obs(shard_obs_config);
          if (!metrics_path.empty()) {
            // Namespace every metric the shard declares under its vantage so
            // side-by-side exports can never collide.
            shard_obs.metrics().set_name_prefix("vantage." + name + ".");
          }

          shard.study = std::make_unique<core::Study>(std::move(shard_inputs));
          if (!metrics_path.empty()) shard.study->AttachObservability(&shard_obs);
          shard.study->AttachCheckpoint(&ckpt);
          shard.study->RunSelection();
          core::MinerOptions shard_mine;
          shard_mine.workers = mine_workers;
          shard.study->RunMining(shard_mine);
          shard.study->RunActiveMeasurement(measure_options);

          core::StudyReport report = core::BuildReport(*shard.study, top10);
          const std::string report_json = core::ExportReportJson(report);
          ckpt.SaveReportJson(report_json);
          const uint64_t full_fp = ckpt::MixFingerprint(
              core::VantageBaseFingerprint(world_fp, name), shard_study_fp);
          ckpt.SaveVantage(core::BuildVantageSummary(
              name, full_fp, shard.study->active(), report_json));

          if (!metrics_path.empty()) {
            const std::string path = metrics_path + "." + name;
            std::ofstream out(path);
            if (!out) return 1;
            out << core::ExportMetricsJson(shard_obs.metrics().Snapshot())
                << "\n";
          }
          return 0;
        } catch (const core::PipelineError& e) {
          PrintStructuredError("vantage:" + name + ":" + e.phase(), e.cause());
          return 1;
        } catch (const std::exception& e) {
          PrintStructuredError("vantage:" + name, e.what());
          return 1;
        }
      };

      std::fprintf(stderr, "supervising %d vantage shard(s)...\n", vantages);
      core::VantageSupervisor supervisor(names, vantage_options);
      std::vector<core::VantageOutcome> outcomes = supervisor.Run(child_fn);

      std::vector<core::VantageSummary> summaries;
      std::vector<std::string> lost;
      for (const core::VantageOutcome& out : outcomes) {
        std::fprintf(stderr,
                     "[vantage] %s: %s (attempts %d, deadline kills %d)\n",
                     out.name.c_str(), out.lost ? "LOST" : "ok", out.attempts,
                     out.deadline_kills);
        if (out.lost) {
          lost.push_back(out.name);
          continue;
        }
        const uint64_t full_fp = ckpt::MixFingerprint(
            core::VantageBaseFingerprint(world_fp, out.name), study_fp);
        auto summary = core::LoadVantageSummary(
            core::VantageJournalDir(checkpoint_dir, out.name), full_fp);
        if (!summary) {
          // Exited clean but left no readable vantage frame: treat exactly
          // like a lost shard rather than merging a partial view.
          lost.push_back(out.name);
          continue;
        }
        summaries.push_back(*std::move(summary));
      }

      phase = "vantage-merge";
      core::MultiVantageReport merged =
          core::MergeVantageSummaries(std::move(summaries), std::move(lost));
      if (print_report) core::PrintMultiVantageReport(merged, std::cout);
      if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
          PrintStructuredError(phase, "cannot write " + json_path);
          return 1;
        }
        out << core::ExportMultiVantageJson(merged) << "\n";
        std::fprintf(stderr, "wrote %s\n", json_path.c_str());
      }
      return merged.vantages.empty() ? 1 : 0;
    }

    if (!snapshot_out_path.empty()) {
      phase = "snapshot-write";
      const pdns::PdnsSnapshot& image = world->pdns_db();
      std::string dir =
          std::filesystem::path(snapshot_out_path).parent_path().string();
      if (dir.empty()) dir = ".";
      auto status = pdns::WritePdnsSnapshotFile(image, world_fp, dir,
                                                snapshot_out_path);
      if (!status.ok()) {
        PrintStructuredError(phase, status.ToString());
        return 1;
      }
      std::fprintf(stderr, "wrote %s (%zu names, %zu entries)\n",
                   snapshot_out_path.c_str(), image.name_count(),
                   image.entry_count());
    }
    if (!map_snapshot_path.empty()) {
      phase = "snapshot-map";
      auto loaded = pdns::PdnsSnapshot::Open(map_snapshot_path, world_fp);
      if (!loaded.ok()) {
        PrintStructuredError(phase, loaded.status().ToString());
        return 1;
      }
      mapped_snapshot = *std::move(loaded);
      inputs.pdns = &*mapped_snapshot;
      std::fprintf(stderr, "mapped %s (%zu names, %zu entries, %s)\n",
                   map_snapshot_path.c_str(), mapped_snapshot->name_count(),
                   mapped_snapshot->entry_count(),
                   mapped_snapshot->mapped() ? "mmap" : "read fallback");
    }

    if (use_engine) {
      engine = std::make_unique<netio::QueryEngine>(inputs.transport,
                                                    engine_options);
      inputs.transport = engine.get();
    }
    bound.study = std::make_unique<core::Study>(std::move(inputs));

    obs::ObservabilityConfig obs_config;
    obs_config.trace.sample_period = trace_sample == 0 ? 1 : trace_sample;
    obs::Observability observability(obs_config);
    const bool want_obs = !metrics_path.empty() || !trace_path.empty();
    if (want_obs) bound.study->AttachObservability(&observability);

    std::unique_ptr<core::StudyCheckpoint> checkpoint;
    if (!checkpoint_dir.empty()) {
      checkpoint = std::make_unique<core::StudyCheckpoint>(
          checkpoint_dir, world_fp, ckpt_options);
      if (kill_after != 0) {
        ckpt::CkptFaultPlan plan;
        plan.kill_at_write = kill_after;
        plan.mode = ckpt::KillMode::kAfterCommit;
        plan.exit_process = true;
        checkpoint->set_fault_plan(plan);
      }
      bound.study->AttachCheckpoint(checkpoint.get());
      bound.study->set_interrupt_flag(&g_interrupted);
      // Escalating handlers: first signal flushes-then-exits cooperatively,
      // second one _exit(130)s immediately in case the flush is wedged.
      ckpt::InstallEscalatingHandlers(&g_interrupted, 130);
    }

    std::fprintf(stderr, "running study...\n");
    phase = "selection";
    bound.study->RunSelection();
    phase = "mining";
    core::MinerOptions mine_options;
    mine_options.workers = mine_workers;
    bound.study->RunMining(mine_options);
    phase = "measurement";
    bound.study->RunActiveMeasurement(measure_options);
    if (engine != nullptr && want_obs) {
      engine->PublishStats(observability.metrics());
    }

    phase = "report";
    std::vector<std::string> top10;
    for (const char* code : worldgen::Top10CountryCodes()) {
      top10.emplace_back(code);
    }
    core::StudyReport report = core::BuildReport(*bound.study, top10);
    const std::string report_json = core::ExportReportJson(report);
    if (checkpoint != nullptr) {
      checkpoint->SaveReportJson(report_json);
      std::fprintf(stderr, "[ckpt] stats %s\n",
                   checkpoint->StatsJson().c_str());
    }

    phase = "export";
    if (print_report) core::PrintReport(report, std::cout);

    if (!json_path.empty()) {
      std::ofstream out(json_path);
      if (!out) {
        PrintStructuredError(phase, "cannot write " + json_path);
        return 1;
      }
      out << report_json << "\n";
      std::fprintf(stderr, "wrote %s\n", json_path.c_str());
    }
    if (!csv_tables.empty()) {
      for (const std::string& table : util::Split(csv_tables, ',')) {
        const std::string path = table + ".csv";
        std::ofstream out(path);
        if (!(out << core::ExportCsv(report, table) << std::flush)) {
          PrintStructuredError(phase, "cannot write " + path);
          return 1;
        }
        std::fprintf(stderr, "wrote %s\n", path.c_str());
      }
    }
    if (!quarantine_path.empty()) {
      // Standalone coverage document: the report's quarantine object plus
      // per-country rows, for harnesses that only care about degradation.
      const core::QuarantineReport& q = report.quarantine;
      util::JsonWriter w;
      w.BeginObject();
      w.Kv("total_domains", q.total_domains);
      w.Kv("quarantined", q.quarantined);
      w.Kv("hang", q.hang);
      w.Kv("blackhole", q.blackhole);
      w.Kv("budget_exceeded", q.budget_exceeded);
      w.Kv("watchdog_cancelled", q.watchdog_cancelled);
      w.Kv("coverage", q.coverage);
      w.Key("by_country").BeginArray();
      for (const core::QuarantineReport::CountryRow& row : q.by_country) {
        w.BeginObject();
        w.Kv("code", row.code);
        w.Kv("domains", row.domains);
        w.Kv("quarantined", row.quarantined);
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
      std::ofstream out(quarantine_path);
      if (!out) {
        PrintStructuredError(phase, "cannot write " + quarantine_path);
        return 1;
      }
      out << w.TakeString() << "\n";
      std::fprintf(stderr, "wrote %s\n", quarantine_path.c_str());
    }
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      if (!out) {
        PrintStructuredError(phase, "cannot write " + metrics_path);
        return 1;
      }
      out << core::ExportMetricsJson(observability.metrics().Snapshot())
          << "\n";
      std::fprintf(stderr, "wrote %s\n", metrics_path.c_str());
    }
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      if (!out) {
        PrintStructuredError(phase, "cannot write " + trace_path);
        return 1;
      }
      out << core::ExportTraceJson(observability.traces(),
                                   observability.cut_log())
          << "\n";
      std::fprintf(stderr, "wrote %s\n", trace_path.c_str());
    }
    return 0;
  } catch (const core::PipelineError& e) {
    // Interrupt/checkpoint failures arrive here with the current batch
    // already flushed (the study checks the flag only between batches).
    PrintStructuredError(e.phase(), e.cause());
    return 1;
  } catch (const std::exception& e) {
    PrintStructuredError(phase, e.what());
    return 1;
  }
}
