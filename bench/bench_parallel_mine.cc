// Scaling bench: the sharded PDNS miner vs worker count (DESIGN.md §6j).
//
// Sweeps PdnsMiner::Mine over the world's in-memory PDNS store at 1/2/4/8
// workers with the sub-phase profiler attached. Each point records wall
// seconds, per-phase walls, the measured speedup, and an Amdahl projection
// computed from the 1-worker run's phase decomposition: the only serial
// remainder of the pipeline is the intern k-way merge plus the renumber
// pass, so
//
//     projected(N) = total / (serial + (total - serial) / N)
//
// On a multi-core host measured and projected agree; on a single-core host
// (where OS scheduling makes measured speedup physically ~1x) the projection
// is the honest scaling statement, and the `cores` field lets the reader —
// and tools/verify.sh — judge which one to trust.
//
// The dataset must be byte-identical at every point (parallel mining is a
// pure optimization), including when mined from the store published as a
// snapshot file and mapped back, which this bench round-trips through a
// temp file. A second sweep runs at GOVDNS_MINE_SCALE (default 10x
// GOVDNS_SCALE; set 0 to disable) so the scaling claim is tested at world
// scale and well past it. Artifacts: the sweep tables on stdout, one
// machine-readable `[bench] mining` JSON line for the stats scraper, and
// BENCH_mining.json (path overridable via GOVDNS_MINING_JSON).
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "core/mining.h"
#include "obs/profile.h"
#include "pdns/db.h"
#include "util/json.h"
#include "util/table.h"

namespace {

namespace fs = std::filesystem;
using govdns::bench::BenchEnv;

constexpr uint64_t kSnapshotFingerprint = 0xBE4C11731E5CA1Eull;

// The second sweep's scale, read at the top of main (0 disables it).
double g_mine_scale = 0.0;

struct PhaseWalls {
  double intern = 0.0;
  double intern_merge = 0.0;
  double shard = 0.0;
  double renumber = 0.0;
  double sort = 0.0;
  double concat = 0.0;
  double fold = 0.0;
};

struct SweepPoint {
  int workers = 0;
  double seconds = 0.0;
  double domains_per_sec = 0.0;
  double speedup = 0.0;
  double projected = 0.0;
  bool identical = false;
  PhaseWalls phases;
};

struct SubstratePoint {
  const char* substrate = "";
  int workers = 0;
  double seconds = 0.0;
  bool identical = false;
};

struct SweepResult {
  double scale = 0.0;
  size_t seeds = 0;
  size_t domains = 0;
  size_t ns_names = 0;
  int64_t entries_scanned = 0;
  double serial_seconds = 0.0;
  double serial_phase_seconds = 0.0;  // intern merge + renumber, from 1w run
  std::vector<SweepPoint> sweep;
  std::vector<SubstratePoint> substrates;
};

double WallSeconds(const govdns::obs::PhaseProfiler& prof, const char* name) {
  auto rec = prof.LastRecord(name);
  return rec.has_value() ? rec->wall_ms / 1000.0 : 0.0;
}

PhaseWalls CollectPhases(const govdns::obs::PhaseProfiler& prof) {
  PhaseWalls p;
  p.intern = WallSeconds(prof, "mining.fold.intern");
  p.intern_merge = WallSeconds(prof, "mining.fold.intern.merge");
  p.shard = WallSeconds(prof, "mining.shard");
  p.renumber = WallSeconds(prof, "mining.fold.renumber");
  p.sort = WallSeconds(prof, "mining.fold.sort");
  p.concat = WallSeconds(prof, "mining.fold.concat");
  p.fold = WallSeconds(prof, "mining.fold");
  return p;
}

govdns::core::MinedDataset MinePoint(
    const govdns::pdns::PdnsSnapshot& snapshot,
    const std::vector<govdns::core::SeedDomain>& seeds,
    const govdns::core::MiningConfig& config, int workers, double* seconds,
    PhaseWalls* phases) {
  govdns::obs::PhaseProfiler prof;
  govdns::core::MinerOptions opts;
  opts.workers = workers;
  opts.profiler = &prof;
  govdns::core::PdnsMiner miner(config, opts);
  const auto start = std::chrono::steady_clock::now();
  auto dataset = miner.Mine(snapshot, seeds);
  const auto stop = std::chrono::steady_clock::now();
  if (seconds != nullptr) {
    *seconds = std::chrono::duration<double>(stop - start).count();
  }
  if (phases != nullptr) *phases = CollectPhases(prof);
  return dataset;
}

// One full sweep over an already-selected study at `scale`.
SweepResult RunSweep(govdns::core::Study& study, double scale) {
  SweepResult r;
  r.scale = scale;
  const auto& seeds = study.seeds();
  const auto& config = study.inputs().mining;
  r.seeds = seeds.size();
  const govdns::pdns::PdnsSnapshot& store = *study.inputs().pdns;

  // The 1-worker run is the identity baseline AND the Amdahl decomposition
  // source: its intern-merge + renumber walls are the pipeline's only
  // serial remainder.
  PhaseWalls serial_phases;
  const auto serial =
      MinePoint(store, seeds, config, 1, &r.serial_seconds, &serial_phases);
  r.domains = serial.domains.size();
  r.ns_names = serial.ns_count();
  r.entries_scanned = serial.stats.entries_scanned;
  r.serial_phase_seconds = serial_phases.intern_merge + serial_phases.renumber;
  const double parallel_part = r.serial_seconds - r.serial_phase_seconds;

  for (int workers : {1, 2, 4, 8}) {
    SweepPoint point;
    point.workers = workers;
    const auto dataset =
        MinePoint(store, seeds, config, workers, &point.seconds, &point.phases);
    point.identical = dataset == serial;
    point.domains_per_sec =
        point.seconds > 0.0 ? double(dataset.domains.size()) / point.seconds
                            : 0.0;
    point.speedup = (r.serial_seconds > 0.0 && point.seconds > 0.0)
                        ? r.serial_seconds / point.seconds
                        : 0.0;
    const double projected_denom =
        r.serial_phase_seconds + parallel_part / workers;
    point.projected = (r.serial_seconds > 0.0 && projected_denom > 0.0)
                          ? r.serial_seconds / projected_denom
                          : 0.0;
    r.sweep.push_back(point);
  }

  // Substrate identity: the store published as a file and mapped back must
  // yield the same bytes the in-memory store did.
  const std::string dir =
      (fs::temp_directory_path() / "govdns_bench_mine").string();
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  const std::string path = dir + "/pdns.gvsn";
  auto write =
      govdns::pdns::WritePdnsSnapshotFile(store, kSnapshotFingerprint, dir, path);
  if (write.ok()) {
    auto mapped = govdns::pdns::PdnsSnapshot::Open(path, kSnapshotFingerprint);
    for (int workers : {1, 4}) {
      if (!mapped.ok()) break;
      SubstratePoint p{"mapped", workers};
      p.identical =
          MinePoint(*mapped, seeds, config, workers, &p.seconds, nullptr) ==
          serial;
      r.substrates.push_back(p);
    }
  } else {
    std::fprintf(stderr, "[bench] cannot write snapshot file: %s\n",
                 write.ToString().c_str());
  }
  fs::remove_all(dir, ec);
  return r;
}

void WriteSweepJson(govdns::util::JsonWriter& w, const SweepResult& r) {
  w.Kv("scale", r.scale);
  w.Kv("seeds", int64_t(r.seeds));
  w.Kv("domains", int64_t(r.domains));
  w.Kv("ns_names", int64_t(r.ns_names));
  w.Kv("entries_scanned", r.entries_scanned);
  w.Kv("serial_seconds", r.serial_seconds);
  w.Kv("serial_phase_seconds", r.serial_phase_seconds);
  w.Key("sweep").BeginArray();
  for (const SweepPoint& p : r.sweep) {
    w.BeginObject()
        .Kv("workers", int64_t(p.workers))
        .Kv("seconds", p.seconds)
        .Kv("domains_per_sec", p.domains_per_sec)
        .Kv("speedup_vs_serial", p.speedup)
        .Kv("projected_speedup", p.projected)
        .Kv("identical_to_serial", p.identical);
    w.Key("phases").BeginObject()
        .Kv("intern", p.phases.intern)
        .Kv("intern_merge", p.phases.intern_merge)
        .Kv("shard", p.phases.shard)
        .Kv("renumber", p.phases.renumber)
        .Kv("sort", p.phases.sort)
        .Kv("concat", p.phases.concat)
        .Kv("fold", p.phases.fold)
        .EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("substrates").BeginArray();
  for (const SubstratePoint& p : r.substrates) {
    w.BeginObject()
        .Kv("substrate", std::string(p.substrate))
        .Kv("workers", int64_t(p.workers))
        .Kv("seconds", p.seconds)
        .Kv("identical_to_serial", p.identical)
        .EndObject();
  }
  w.EndArray();
}

void PrintSweepTable(const SweepResult& r) {
  govdns::util::TextTable table({"Workers", "Seconds", "Domains/sec",
                                 "Speedup", "Projected", "Identical"});
  for (const SweepPoint& p : r.sweep) {
    char seconds[32], rate[32], speedup[32], projected[32];
    std::snprintf(seconds, sizeof seconds, "%.3f", p.seconds);
    std::snprintf(rate, sizeof rate, "%.0f", p.domains_per_sec);
    std::snprintf(speedup, sizeof speedup, "%.2fx", p.speedup);
    std::snprintf(projected, sizeof projected, "%.2fx", p.projected);
    table.AddRow({std::to_string(p.workers), seconds, rate, speedup, projected,
                  p.identical ? "yes" : "NO"});
  }
  std::printf("\nScaling at scale %.3f — %zu seeds, %zu domains, "
              "serial remainder %.4fs\n",
              r.scale, r.seeds, r.domains, r.serial_phase_seconds);
  table.Print(std::cout);
  for (const SubstratePoint& p : r.substrates) {
    std::printf("  substrate %-6s w=%d: %.3fs identical=%s\n", p.substrate,
                p.workers, p.seconds, p.identical ? "yes" : "NO");
  }
}

// The google-benchmark face of the same measurement (timing only; the
// artifact sweep below is the authoritative record).
void BM_MineWorkers(benchmark::State& state) {
  auto& env = BenchEnv::Get();
  const int workers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto dataset = MinePoint(env.world().pdns_db(), env.seeds(),
                             env.study().inputs().mining, workers, nullptr,
                             nullptr);
    benchmark::DoNotOptimize(dataset);
  }
}
BENCHMARK(BM_MineWorkers)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

void PrintArtifact() {
  auto& env = BenchEnv::Get();
  env.seeds();
  const SweepResult main_sweep = RunSweep(env.study(), env.scale());
  PrintSweepTable(main_sweep);

  // Second sweep well past world scale: GOVDNS_MINE_SCALE (default 10x the
  // base scale, 0 disables) on its own world, so the scaling statement is
  // made where the serial fold used to hurt the most.
  std::optional<SweepResult> big_sweep;
  if (g_mine_scale > 0.0) {
    auto scaled = govdns::bench::MakeScaledStudy(g_mine_scale);
    scaled.study().RunSelection();
    big_sweep = RunSweep(scaled.study(), g_mine_scale);
    PrintSweepTable(*big_sweep);
  }

  govdns::util::JsonWriter w;
  w.BeginObject();
  w.Kv("cores", int64_t(std::thread::hardware_concurrency()));
  WriteSweepJson(w, main_sweep);
  if (big_sweep.has_value()) {
    w.Key("mine_scale_sweep").BeginObject();
    WriteSweepJson(w, *big_sweep);
    w.EndObject();
  }
  w.EndObject();
  const std::string json = w.TakeString();

  std::printf("\n(same world seed and seed list at every point; 'Identical'\n"
              " checks the MinedDataset equals the 1-worker run — the pool\n"
              " may only change speed, never bytes. 'Projected' is the\n"
              " Amdahl speedup from the 1-worker phase decomposition: the\n"
              " honest scaling figure when cores < workers.)\n");
  std::fprintf(stderr, "[bench] mining %s\n", json.c_str());
  govdns::bench::WriteArtifactJson("GOVDNS_MINING_JSON", "BENCH_mining.json",
                                   json);
}

}  // namespace

int main(int argc, char** argv) {
  // Both scales are parsed before google-benchmark runs anything, so a bad
  // GOVDNS_MINE_SCALE exits 2 before any world is built.
  g_mine_scale = govdns::bench::ScaleFromEnv(
      "GOVDNS_MINE_SCALE", govdns::bench::ScaleFromEnv() * 10.0);
  return govdns::bench::BenchMain(argc, argv, PrintArtifact);
}
