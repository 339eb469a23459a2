// Shared environment for the benchmark harnesses.
//
// The bench binaries are the design-choice ablations (DESIGN.md §6) and the
// engineering benches; the paper's tables and figures come from the study
// report (core::PrintReport, `govdns_study`). Each binary shares one
// lazily-built world + study pipeline so google-benchmark times only the
// code under test, not world generation. Scale defaults to the paper's
// global scale (1.0, ~190k domains in the 2020 PDNS snapshot); set
// GOVDNS_SCALE to run smaller.
#pragma once

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "core/study.h"
#include "worldgen/adapter.h"
#include "worldgen/world.h"

namespace govdns::bench {

class BenchEnv {
 public:
  // Singleton; first call builds the world (and prints a note to stderr).
  static BenchEnv& Get();

  worldgen::World& world() { return *world_; }
  core::Study& study() { return *bound_.study; }

  // Stage accessors; each runs its stage on first use.
  const std::vector<core::SeedDomain>& seeds();
  const core::MinedDataset& mined();
  const core::ActiveDataset& active();

  // Emits one `[bench] stats {...}` JSON line to stderr with the network
  // stats and the resolver's cache/health counters, so bench runs record
  // query volume and adversity alongside timing. Called automatically after
  // the measurement stage; harmless to call again for an updated snapshot.
  void PrintStatsJson();

  double scale() const { return scale_; }

 private:
  BenchEnv();

  double scale_ = 1.0;
  std::unique_ptr<worldgen::World> world_;
  worldgen::BoundStudy bound_;
  bool selected_ = false;
  bool mined_done_ = false;
  bool active_done_ = false;
};

// A scale from the environment variable `var` (GOVDNS_SCALE, or
// bench_parallel_mine's GOVDNS_MINE_SCALE), parsed as strictly as
// `govdns_study --scale`: one whole finite number in
// [0, worldgen::kMaxScale]; `unset` when the variable is not set. A bad
// value names the variable and exits 2, before any world is built.
double ScaleFromEnv(const char* var = "GOVDNS_SCALE", double unset = 1.0);

// An independent world + study at an explicit scale, for benches that sweep
// scale itself (e.g. bench_parallel_mine's GOVDNS_MINE_SCALE sweep) and so
// cannot share the BenchEnv singleton. Selection is NOT run; callers drive
// the stages they need.
struct ScaledStudy {
  std::unique_ptr<worldgen::World> world;
  worldgen::BoundStudy bound;

  core::Study& study() { return *bound.study; }
};
ScaledStudy MakeScaledStudy(double scale);

// Writes a BENCH_*.json artifact atomically: the bytes land in
// `<path>.tmp` first and are renamed into place only after a successful
// write, so a crashed or interrupted bench run can never leave a
// half-written artifact for tools/verify.sh to read. `env_var`
// overrides `default_path` when set. Logs a `[bench] wrote ...` (or
// `cannot write ...`) line to stderr either way.
void WriteArtifactJson(const char* env_var, const char* default_path,
                       const std::string& json);

// Standard main body: run benchmarks, then emit the artifact via `print`.
int BenchMain(int argc, char** argv, void (*print_artifact)());

#define GOVDNS_BENCH_MAIN(print_artifact)                      \
  int main(int argc, char** argv) {                            \
    return ::govdns::bench::BenchMain(argc, argv, print_artifact); \
  }

}  // namespace govdns::bench
