#include "bench/common.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>

#include "util/json.h"
#include "util/strings.h"

namespace govdns::bench {

BenchEnv& BenchEnv::Get() {
  static BenchEnv env;
  return env;
}

double ScaleFromEnv(const char* var, double unset) {
  const char* text = std::getenv(var);
  if (text == nullptr) return unset;
  const std::optional<double> scale =
      util::ParseDouble(text, 0.0, worldgen::kMaxScale);
  if (!scale) {
    std::fprintf(stderr, "[bench] %s=%s: want a number in [0, %g]\n", var,
                 text, worldgen::kMaxScale);
    std::exit(2);
  }
  return *scale;
}

BenchEnv::BenchEnv() : scale_(ScaleFromEnv()) {
  std::fprintf(stderr, "[bench] building world at scale %.3f ...\n", scale_);
  worldgen::WorldConfig config;
  config.scale = scale_;
  world_ = worldgen::BuildWorld(config);
  bound_ = worldgen::MakeStudy(*world_);
  std::fprintf(stderr, "[bench] world ready: %zu domains, %zu endpoints\n",
               world_->domains().size(), world_->network().endpoint_count());
}

const std::vector<core::SeedDomain>& BenchEnv::seeds() {
  if (!selected_) {
    bound_.study->RunSelection();
    selected_ = true;
  }
  return bound_.study->seeds();
}

const core::MinedDataset& BenchEnv::mined() {
  seeds();
  if (!mined_done_) {
    std::fprintf(stderr, "[bench] mining passive DNS ...\n");
    bound_.study->RunMining();
    mined_done_ = true;
  }
  return bound_.study->mined();
}

const core::ActiveDataset& BenchEnv::active() {
  mined();
  if (!active_done_) {
    std::fprintf(stderr, "[bench] running active measurement ...\n");
    bound_.study->RunActiveMeasurement();
    active_done_ = true;
    std::fprintf(stderr, "[bench] measurement done (%llu queries)\n",
                 static_cast<unsigned long long>(
                     bound_.study->measurement_queries_sent()));
    PrintStatsJson();
  }
  return bound_.study->active();
}

void BenchEnv::PrintStatsJson() {
  const simnet::NetworkStats net = world_->network().stats();
  const core::ResolverCounters& rc = bound_.study->measurement_counters();
  const core::CutCacheStats& cc = bound_.study->measurement_cache_stats();
  util::JsonWriter w;
  w.BeginObject();
  w.Key("network").BeginObject()
      .Kv("exchanges", int64_t(net.exchanges))
      .Kv("delivered", int64_t(net.delivered))
      .Kv("timeouts", int64_t(net.timeouts))
      .Kv("unreachable", int64_t(net.unreachable))
      .Kv("flap_dropped", int64_t(net.flap_dropped))
      .Kv("burst_dropped", int64_t(net.burst_dropped))
      .Kv("rate_limited", int64_t(net.rate_limited))
      .Kv("corrupted", int64_t(net.corrupted))
      .Kv("truncated", int64_t(net.truncated))
      .Kv("wrong_id", int64_t(net.wrong_id))
      .Kv("clock_ms", int64_t(world_->network().clock().now_ms()))
      .EndObject();
  w.Key("measurement").BeginObject()
      .Kv("queries", int64_t(rc.queries))
      .Kv("retries", int64_t(rc.retries))
      .Kv("timeouts", int64_t(rc.timeouts))
      .Kv("refused", int64_t(rc.refused))
      .Kv("malformed", int64_t(rc.malformed))
      .Kv("wrong_id", int64_t(rc.wrong_id))
      .Kv("truncated", int64_t(rc.truncated))
      .Kv("backoff_ms", int64_t(rc.backoff_ms))
      .Kv("breaker_skips", int64_t(rc.breaker_skips))
      .Kv("negative_cache_hits", int64_t(rc.negative_cache_hits))
      .Kv("budget_denied", int64_t(rc.budget_denied))
      .EndObject();
  w.Key("cut_cache").BeginObject()
      .Kv("hits", int64_t(cc.hits))
      .Kv("misses", int64_t(cc.misses))
      .Kv("negative_hits", int64_t(cc.negative_hits))
      .Kv("publishes", int64_t(cc.publishes))
      .Kv("negative_publishes", int64_t(cc.negative_publishes))
      .Kv("infra_queries", int64_t(cc.infra.queries))
      .Kv("infra_retries", int64_t(cc.infra.retries))
      .EndObject();
  w.EndObject();
  std::fprintf(stderr, "[bench] stats %s\n", w.TakeString().c_str());
}

ScaledStudy MakeScaledStudy(double scale) {
  std::fprintf(stderr, "[bench] building extra world at scale %.3f ...\n",
               scale);
  worldgen::WorldConfig config;
  config.scale = scale;
  ScaledStudy out;
  out.world = worldgen::BuildWorld(config);
  out.bound = worldgen::MakeStudy(*out.world);
  std::fprintf(stderr, "[bench] extra world ready: %zu domains\n",
               out.world->domains().size());
  return out;
}

void WriteArtifactJson(const char* env_var, const char* default_path,
                       const std::string& json) {
  const char* override_path = std::getenv(env_var);
  const std::string out_path =
      override_path != nullptr ? override_path : default_path;
  const std::string tmp_path = out_path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    if (out) out << json << "\n";
    if (!out) {
      std::fprintf(stderr, "[bench] cannot write %s\n", tmp_path.c_str());
      std::remove(tmp_path.c_str());
      return;
    }
  }
  if (std::rename(tmp_path.c_str(), out_path.c_str()) != 0) {
    std::fprintf(stderr, "[bench] cannot rename %s -> %s\n", tmp_path.c_str(),
                 out_path.c_str());
    std::remove(tmp_path.c_str());
    return;
  }
  std::fprintf(stderr, "[bench] wrote %s\n", out_path.c_str());
}

int BenchMain(int argc, char** argv, void (*print_artifact)()) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  if (print_artifact != nullptr) print_artifact();
  return 0;
}

}  // namespace govdns::bench
