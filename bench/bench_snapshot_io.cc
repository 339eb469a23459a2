// Snapshot I/O bench: the O(1) open against the fully validated open
// (DESIGN.md §6i).
//
// Publishes the shared BenchEnv world's in-memory PDNS image as a GVSN
// snapshot file and measures the two ways to open it side by side:
//
//   * kFull — PdnsSnapshot::Open with SnapshotValidation::kFull, which
//     checks every payload CRC and walks every fencepost, key and entry
//     (O(entries)); and
//   * kFast — PdnsSnapshot::Open with the default kFast, which mmaps the
//     file and checks only the container CRCs and the section shapes (O(1)
//     in world size).
//
// The artifact's headline number is fast_vs_full_speedup. On the way the
// bench verifies the correctness contract: mining the in-memory store and
// the mapped file, at 1 and at 4 workers, produces the same MinedDataset.
// Lands in BENCH_snapshot.json (path overridable via GOVDNS_SNAPSHOT_JSON).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/mining.h"
#include "pdns/db.h"
#include "util/json.h"
#include "util/status.h"
#include "util/table.h"

namespace {

using govdns::bench::BenchEnv;
namespace ckpt = govdns::ckpt;
namespace pdns = govdns::pdns;

constexpr uint64_t kBenchFingerprint = 0x60bd5bebcd5eedULL;

// One shared on-disk snapshot for every measurement below.
struct SnapshotFixture {
  std::string dir;
  std::string path;
  double write_seconds = 0.0;
  uint64_t file_bytes = 0;

  static SnapshotFixture& Get() {
    static SnapshotFixture* fixture = [] {
      auto* f = new SnapshotFixture();
      auto& env = BenchEnv::Get();
      f->dir = (std::filesystem::temp_directory_path() /
                "govdns_bench_snapshot")
                   .string();
      std::filesystem::create_directories(f->dir);
      f->path = f->dir + "/pdns.gvsn";
      std::fprintf(stderr, "[bench] writing PDNS snapshot ...\n");
      const auto start = std::chrono::steady_clock::now();
      auto status = pdns::WritePdnsSnapshotFile(
          env.world().pdns_db(), kBenchFingerprint, f->dir, f->path);
      const auto stop = std::chrono::steady_clock::now();
      if (!status.ok()) {
        std::fprintf(stderr, "[bench] snapshot write failed: %s\n",
                     status.ToString().c_str());
        std::exit(1);
      }
      f->write_seconds = std::chrono::duration<double>(stop - start).count();
      f->file_bytes = std::filesystem::file_size(f->path);
      return f;
    }();
    return *fixture;
  }
};

double TimeSeconds(int reps, const auto& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count() / reps;
}

auto OpenSnapshot(ckpt::SnapshotValidation validation) {
  return pdns::PdnsSnapshot::Open(SnapshotFixture::Get().path,
                                  kBenchFingerprint, validation);
}

void BM_FullOpen(benchmark::State& state) {
  for (auto _ : state) {
    auto snap = OpenSnapshot(ckpt::SnapshotValidation::kFull);
    benchmark::DoNotOptimize(snap);
  }
}
BENCHMARK(BM_FullOpen)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_FastOpen(benchmark::State& state) {
  for (auto _ : state) {
    auto snap = OpenSnapshot(ckpt::SnapshotValidation::kFast);
    benchmark::DoNotOptimize(snap);
  }
}
BENCHMARK(BM_FastOpen)->Unit(benchmark::kMillisecond)->Iterations(1);

void PrintArtifact() {
  auto& env = BenchEnv::Get();
  auto& f = SnapshotFixture::Get();
  const auto& inputs = env.study().inputs();
  const auto& seeds = env.seeds();
  const pdns::PdnsSnapshot& in_memory = env.world().pdns_db();

  // --- Open timing. Fast opens are microseconds; average over many.
  const double full_seconds = TimeSeconds(3, [&] {
    auto snap = OpenSnapshot(ckpt::SnapshotValidation::kFull);
    if (!snap.ok()) std::abort();
    benchmark::DoNotOptimize(snap);
  });
  bool mapped_for_real = false;
  const double fast_seconds = TimeSeconds(100, [&] {
    auto snap = OpenSnapshot(ckpt::SnapshotValidation::kFast);
    if (!snap.ok()) std::abort();
    mapped_for_real = snap->mapped();
    benchmark::DoNotOptimize(snap);
  });
  const double speedup =
      fast_seconds > 0.0 ? full_seconds / fast_seconds : 0.0;

  // --- Identity: both stores, at 1 and 4 workers, must mine the bytes a
  // default-sized pool mines from the in-memory store.
  const auto baseline =
      govdns::core::PdnsMiner(inputs.mining).Mine(in_memory, seeds);
  auto mine_with = [&](const pdns::PdnsSnapshot& snapshot, int workers) {
    govdns::core::MinerOptions opts;
    opts.workers = workers;
    govdns::core::PdnsMiner miner(inputs.mining, opts);
    return miner.Mine(snapshot, seeds);
  };
  auto mapped = OpenSnapshot(ckpt::SnapshotValidation::kFast);
  if (!mapped.ok()) std::abort();
  const bool in_memory_w1 = mine_with(in_memory, 1) == baseline;
  const bool in_memory_w4 = mine_with(in_memory, 4) == baseline;
  const bool mapped_w1 = mine_with(*mapped, 1) == baseline;
  const bool mapped_w4 = mine_with(*mapped, 4) == baseline;

  govdns::util::TextTable table({"Open", "Seconds", "Speedup"});
  char full_s[32], fast_s[32], speedup_s[32];
  std::snprintf(full_s, sizeof full_s, "%.6f", full_seconds);
  std::snprintf(fast_s, sizeof fast_s, "%.6f", fast_seconds);
  std::snprintf(speedup_s, sizeof speedup_s, "%.1fx", speedup);
  table.AddRow({"kFull", full_s, "1.0x"});
  table.AddRow({"kFast", fast_s, speedup_s});

  govdns::util::JsonWriter w;
  w.BeginObject();
  w.Kv("scale", env.scale());
  w.Kv("names", int64_t(in_memory.name_count()));
  w.Kv("entries", int64_t(in_memory.entry_count()));
  w.Kv("file_bytes", int64_t(f.file_bytes));
  w.Kv("write_seconds", f.write_seconds);
  w.Kv("full_open_seconds", full_seconds);
  w.Kv("fast_open_seconds", fast_seconds);
  w.Kv("fast_vs_full_speedup", speedup);
  w.Kv("mapped_for_real", mapped_for_real);
  w.Key("mining_identity").BeginObject()
      .Kv("in_memory_w1", in_memory_w1)
      .Kv("in_memory_w4", in_memory_w4)
      .Kv("mapped_w1", mapped_w1)
      .Kv("mapped_w4", mapped_w4)
      .EndObject();
  w.EndObject();
  const std::string json = w.TakeString();

  std::printf("\nSnapshot open cost — fully validated vs O(1) (mmap)\n");
  std::printf("(%zu names, %zu entries, %.1f MiB on disk; kFast checks\n",
              in_memory.name_count(), in_memory.entry_count(),
              double(f.file_bytes) / (1024.0 * 1024.0));
  std::printf(" container CRCs and section shapes only — O(1) in world size)\n");
  table.Print(std::cout);
  std::printf("mining identity (vs in-memory store): in-memory w1=%s w4=%s, "
              "mapped w1=%s w4=%s\n",
              in_memory_w1 ? "yes" : "NO", in_memory_w4 ? "yes" : "NO",
              mapped_w1 ? "yes" : "NO", mapped_w4 ? "yes" : "NO");
  std::fprintf(stderr, "[bench] snapshot %s\n", json.c_str());

  govdns::bench::WriteArtifactJson("GOVDNS_SNAPSHOT_JSON",
                                   "BENCH_snapshot.json", json);
}

}  // namespace

GOVDNS_BENCH_MAIN(PrintArtifact)
