// perfbench_study — one govdns study per process, timed layer by layer from
// the outside.
//
//   perfbench_study --mode benign|journaled|resume --scale S
//                   --weather-seed M --trace 0|1 --work-dir DIR --record PATH
//
// Builds the world of seed 2022 (the paper configuration) at --scale and
// drives the public pipeline exactly as a user of the library would, with 4
// mining and 4 measurement workers:
// worldgen::BuildWorld -> Study::RunSelection -> RunMining ->
// RunActiveMeasurement -> core::BuildReport -> ExportReportJson /
// PrintReport / ExportCsv -> destroy the Study, then the World. Every call
// into a layer is wrapped in a span (name, start, end, parent, process CPU)
// recorded by this file; nothing inside the library is instrumented.
//
// Modes:
//   benign     no journal, no chaos.
//   journaled  simnet::ChaosProfile::Hostile() weather laid over the world
//              as a vantage overlay realized from --weather-seed, and a
//              fresh checkpoint journal in DIR/journal (default batch size,
//              cut-cache snapshots).
//   resume     the journaled configuration; set-up primes a complete journal
//              with a journaled study, and the timed study then reopens it
//              with resume = true.
//
// With --trace 1 the study's transport is wrapped in TimingTransport (time
// spent inside SimNetwork), and after the study, outside every timed phase,
// the analyzers, the journal reader and the dns::Name / message codec are
// timed on this world's own data.
//
// Outputs: DIR/report.json (the ExportReportJson bytes), DIR/prime.json in
// resume mode (the priming study's bytes), and one JSON record at PATH with
// the spans, counters and host facts. perfbench/run.py turns records into
// metrics.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/journal.h"
#include "core/analysis.h"
#include "core/export.h"
#include "core/mining.h"
#include "core/providers.h"
#include "core/report.h"
#include "core/study.h"
#include "core/study_ckpt.h"
#include "dns/message.h"
#include "dns/name.h"
#include "dns/transport.h"
#include "util/json.h"
#include "worldgen/adapter.h"
#include "worldgen/countries.h"
#include "worldgen/world.h"

namespace {

using namespace govdns;
using SteadyClock = std::chrono::steady_clock;

const SteadyClock::time_point kProcessStart = SteadyClock::now();

double WallNow() {
  return std::chrono::duration<double>(SteadyClock::now() - kProcessStart)
      .count();
}

double CpuNow() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// A /proc/self/status field in MiB (e.g. "VmRSS"); 0 when unreadable.
double ProcStatusMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Spans in memory, written out once at exit. Times are seconds since
// process start; `parent` indexes the enclosing span (-1 at top level).
struct Span {
  std::string name;
  double start = 0, end = 0;
  double cpu_start = 0, cpu_end = 0;
  int parent = -1;
};

class SpanLog {
 public:
  void Begin(std::string name) {
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.cpu_start = CpuNow();
    s.start = WallNow();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  void End() {
    Span& s = spans_[open_.back()];
    s.end = WallNow();
    s.cpu_end = CpuNow();
    open_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null log records nothing (the priming study in resume mode
// is set-up work and is not broken down).
class Scope {
 public:
  Scope(SpanLog* log, std::string name) : log_(log) {
    if (log_ != nullptr) log_->Begin(std::move(name));
  }
  ~Scope() {
    if (log_ != nullptr) log_->End();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
};

// Forwards every QueryTransport call to the world's transport unchanged and
// adds up the wall time spent inside Exchange/ExchangeStream, summed over
// the worker threads that call it.
class TimingTransport final : public dns::QueryTransport {
 public:
  explicit TimingTransport(dns::QueryTransport* inner) : inner_(inner) {}

  util::StatusOr<std::vector<uint8_t>> Exchange(
      geo::IPv4 server, const std::vector<uint8_t>& wire_query) override {
    const SteadyClock::time_point t0 = SteadyClock::now();
    auto reply = inner_->Exchange(server, wire_query);
    Charge(t0);
    return reply;
  }
  util::StatusOr<std::vector<uint8_t>> ExchangeStream(
      geo::IPv4 server, const std::vector<uint8_t>& wire_query) override {
    const SteadyClock::time_point t0 = SteadyClock::now();
    auto reply = inner_->ExchangeStream(server, wire_query);
    Charge(t0);
    return reply;
  }
  uint64_t now_ms() const override { return inner_->now_ms(); }
  void Delay(uint32_t ms) override { inner_->Delay(ms); }
  void PushChaosContext(uint64_t tag) override { inner_->PushChaosContext(tag); }
  void PopChaosContext() override { inner_->PopChaosContext(); }

  double busy_s() const { return 1e-9 * static_cast<double>(busy_ns_.load()); }
  uint64_t calls() const { return calls_.load(); }

 private:
  void Charge(SteadyClock::time_point t0) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        SteadyClock::now() - t0)
                        .count();
    busy_ns_.fetch_add(static_cast<uint64_t>(ns), std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
  }

  dns::QueryTransport* inner_;
  std::atomic<uint64_t> busy_ns_{0};
  std::atomic<uint64_t> calls_{0};
};

constexpr uint64_t kWorldSeed = 2022;
constexpr int kWorkers = 4;

struct Options {
  std::string mode = "benign";
  double scale = 0;  // required
  uint64_t weather_seed = 0;
  bool trace = false;
  std::string work_dir;
  std::string record_path;
};

// The same world identity govdns_study stamps on its journals.
uint64_t WorldFingerprint(const worldgen::WorldConfig& config) {
  uint64_t fp = config.seed;
  fp = ckpt::MixFingerprint(fp,
                            static_cast<uint64_t>(config.scale * 1000000.0));
  fp = ckpt::MixFingerprint(fp, static_cast<uint64_t>(config.first_year));
  fp = ckpt::MixFingerprint(fp, static_cast<uint64_t>(config.last_year));
  return fp;
}

std::vector<std::string> Top10() {
  std::vector<std::string> out;
  for (const char* code : worldgen::Top10CountryCodes()) out.emplace_back(code);
  return out;
}

const char* const kCsvTables[] = {
    "pdns_per_year",          "d1ns_churn",          "private_share",
    "diversity",              "delegations_by_country", "hijack_by_country",
    "consistency_by_country",
};

// One pass of the pipeline over `inputs`, from Study construction through
// every export. Owns what teardown later destroys.
struct Pipeline {
  std::unique_ptr<core::StudyCheckpoint> ckpt;
  std::unique_ptr<core::Study> study;
  std::unique_ptr<core::StudyReport> report;
  std::string report_json;
  uint64_t export_bytes = 0;
};

Pipeline RunPipeline(core::StudyInputs inputs, const Options& opt,
                     uint64_t world_fp, bool journal, bool resume,
                     SpanLog* log) {
  Pipeline p;
  {
    Scope s(log, "study.construct");
    if (journal) {
      core::StudyCheckpointOptions co;
      co.resume = resume;
      p.ckpt = std::make_unique<core::StudyCheckpoint>(
          (std::filesystem::path(opt.work_dir) / "journal").string(), world_fp,
          co);
    }
    p.study = std::make_unique<core::Study>(std::move(inputs));
    if (p.ckpt != nullptr) p.study->AttachCheckpoint(p.ckpt.get());
  }
  {
    Scope s(log, "selection");
    p.study->RunSelection();
  }
  {
    Scope s(log, "mining");
    core::MinerOptions mo;
    mo.workers = kWorkers;
    p.study->RunMining(mo);
  }
  {
    Scope s(log, "measurement");
    core::MeasurerOptions mo;
    mo.workers = kWorkers;
    p.study->RunActiveMeasurement(mo);
  }
  {
    Scope s(log, "report");
    p.report = std::make_unique<core::StudyReport>(
        core::BuildReport(*p.study, Top10()));
  }
  {
    Scope s(log, "export");
    p.report_json = core::ExportReportJson(*p.report);
    std::ostringstream text;
    core::PrintReport(*p.report, text);
    p.export_bytes = p.report_json.size() + text.str().size();
    for (const char* table : kCsvTables) {
      p.export_bytes += core::ExportCsv(*p.report, table).size();
    }
    if (p.ckpt != nullptr) {
      Scope c(log, "export.ckpt_save");
      p.ckpt->SaveReportJson(p.report_json);
    }
  }
  return p;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  if (!out) throw std::runtime_error("cannot write " + path);
}

volatile uint64_t g_sink = 0;

// Median ns per item over repeated passes of `pass` (each pass handles
// `items` items); repeats until at least 3 passes and 50 ms have run.
template <typename F>
double NsPerItem(size_t items, F&& pass) {
  std::vector<double> per;
  const SteadyClock::time_point begin = SteadyClock::now();
  while (per.size() < 3 ||
         SteadyClock::now() - begin < std::chrono::milliseconds(50)) {
    const SteadyClock::time_point t0 = SteadyClock::now();
    g_sink = g_sink + pass();
    const double ns = std::chrono::duration<double, std::nano>(
                          SteadyClock::now() - t0)
                          .count();
    per.push_back(ns / static_cast<double>(std::max<size_t>(items, 1)));
  }
  std::sort(per.begin(), per.end());
  return per[per.size() / 2];
}

// Microbenchmarks of the dns layer over the workload's own query list.
void DnsMicro(const std::vector<dns::Name>& names, uint64_t seed,
              util::JsonWriter& w) {
  const size_t n = names.size();
  std::vector<std::string> texts;
  texts.reserve(n);
  for (const dns::Name& name : names) texts.push_back(name.ToString());
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  std::mt19937_64 rng(seed);
  std::shuffle(perm.begin(), perm.end(), rng);

  w.Kv("dns.name_compare_ns", NsPerItem(n, [&] {
         uint64_t less = 0;
         for (size_t i = 0; i < n; ++i) less += names[i] < names[perm[i]];
         return less;
       }));
  std::vector<dns::Name> copies;
  copies.reserve(n);
  w.Kv("dns.name_copy_ns", NsPerItem(n, [&] {
         copies.clear();
         for (const dns::Name& name : names) copies.push_back(name);
         return static_cast<uint64_t>(copies.size());
       }));
  w.Kv("dns.name_parse_ns", NsPerItem(n, [&] {
         uint64_t ok = 0;
         for (const std::string& t : texts) ok += dns::Name::Parse(t).ok();
         return ok;
       }));
  w.Kv("dns.name_to_string_ns", NsPerItem(n, [&] {
         uint64_t bytes = 0;
         for (const dns::Name& name : names) bytes += name.ToString().size();
         return bytes;
       }));
  w.Kv("dns.message_roundtrip_ns", NsPerItem(n, [&] {
         uint64_t ok = 0;
         for (size_t i = 0; i < n; ++i) {
           const std::vector<uint8_t> wire =
               dns::MakeQuery(static_cast<uint16_t>(i), names[i],
                              dns::RRType::kNS)
                   .Encode();
           ok += dns::Message::Decode(wire).ok();
         }
         return ok;
       }));
}

// Each analyzer BuildReport runs, called once more on its own and timed.
void ReplayAnalyzers(const core::Study& study, SpanLog& log) {
  const core::MinedDataset& mined = study.mined();
  const core::ActiveDataset& active = study.active();
  const core::StudyInputs& in = study.inputs();
  auto timed = [&](const char* name, auto&& body) {
    Scope s(&log, name);
    body();
  };
  timed("replay.count_per_year", [&] {
    g_sink = g_sink + core::CountPerYear(mined).size();
  });
  timed("replay.replication", [&] {
    g_sink = g_sink + core::AnalyzeReplication(active).ns_count_cdf.size();
  });
  timed("replay.diversity", [&] {
    g_sink = g_sink + core::AnalyzeDiversity(active, *in.asn_db, Top10()).size();
  });
  timed("replay.d1ns_churn", [&] {
    g_sink = g_sink + core::D1nsChurn(mined).size();
  });
  timed("replay.private_share", [&] {
    g_sink = g_sink + core::PrivateShare(mined, study.seeds()).size();
  });
  timed("replay.providers", [&] {
    const core::ProviderMatcher matcher(core::DefaultProviderRules());
    const core::ProviderAnalyzer analyzer(&matcher, in.countries);
    g_sink = g_sink +
             analyzer.Analyze(mined, mined.config.first_year).rows.size() +
             analyzer.Analyze(mined, mined.config.last_year).rows.size();
  });
  timed("replay.delegations", [&] {
    g_sink = g_sink + core::AnalyzeDelegations(active).by_country.size();
  });
  timed("replay.hijack", [&] {
    g_sink = g_sink +
             core::AnalyzeHijackRisk(active, *in.psl, *in.registrar)
                 .dangling_domains;
  });
  timed("replay.consistency", [&] {
    g_sink = g_sink + core::AnalyzeConsistency(active).by_country.size();
  });
}

// Reads the journal the study left behind back through a fresh resuming
// StudyCheckpoint: the ckpt read path on its own. The journal was written
// by this process moments ago, so a rejected frame is a failure.
void ReloadJournal(const core::Study& study, const Options& opt,
                   uint64_t world_fp, size_t query_list_size, SpanLog& log) {
  Scope s(&log, "ckpt.load");
  core::StudyCheckpointOptions co;
  co.resume = true;
  core::StudyCheckpoint ck(
      (std::filesystem::path(opt.work_dir) / "journal").string(), world_fp,
      co);
  ck.Bind(core::StudyInputsFingerprint(study.inputs()));
  const bool selection = ck.TryLoadSelection().has_value();
  const bool mining = ck.TryLoadMining(study.inputs().mining).has_value();
  const size_t results = ck.LoadActiveBatches(query_list_size).size();
  const bool quarantine = ck.TryLoadQuarantine().has_value();
  const bool report = ck.TryLoadReportJson().has_value();
  if (!selection || !mining || results != query_list_size || !quarantine ||
      !report) {
    throw std::runtime_error("journal reload came back incomplete");
  }
  if (ck.journal_stats().Rejections() != 0) {
    throw std::runtime_error(
        "journal reload rejected " +
        std::to_string(ck.journal_stats().Rejections()) + " frame(s)");
  }
}

int Run(const Options& opt) {
  SpanLog log;
  util::JsonWriter w;
  w.BeginObject();

  worldgen::WorldConfig config;
  config.seed = kWorldSeed;
  config.scale = opt.scale;
  const bool hostile = opt.mode != "benign";
  uint64_t world_fp = WorldFingerprint(config);
  if (hostile) world_fp = ckpt::MixFingerprint(world_fp, opt.weather_seed);
  const bool journal = opt.mode != "benign";
  const bool resume = opt.mode == "resume";
  std::filesystem::create_directories(opt.work_dir);

  std::unique_ptr<worldgen::World> world;
  std::unique_ptr<worldgen::PolicyLookupAdapter> policy;
  std::optional<core::StudyInputs> inputs;
  log.Begin("setup");
  {
    Scope s(&log, "worldgen");
    world = worldgen::BuildWorld(config);
  }
  if (hostile) {
    Scope s(&log, "weather");
    worldgen::VantageProfile weather;
    weather.name = "perfbench-" + std::to_string(opt.weather_seed);
    weather.chaos = simnet::ChaosProfile::Hostile();
    world->ApplyVantage(weather);
  }
  {
    Scope s(&log, "bind");
    policy = std::make_unique<worldgen::PolicyLookupAdapter>(
        &world->registry_policy());
    inputs = worldgen::MakeStudyInputs(*world, policy.get());
  }
  if (resume) {
    Scope s(&log, "prime");
    Pipeline prime = RunPipeline(*inputs, opt, world_fp, /*journal=*/true,
                                 /*resume=*/false, nullptr);
    WriteFile((std::filesystem::path(opt.work_dir) / "prime.json").string(),
              prime.report_json);
  }
  log.End();
  const double rss_after_setup = ProcStatusMb("VmRSS");

  std::unique_ptr<TimingTransport> timing;
  if (opt.trace) {
    timing = std::make_unique<TimingTransport>(inputs->transport);
    inputs->transport = timing.get();
  }
  const simnet::NetworkStats net0 = world->network().stats();

  log.Begin("study");
  Pipeline p = RunPipeline(std::move(*inputs), opt, world_fp, journal,
                           /*resume=*/resume, &log);
  log.End();
  const double rss_after_study = ProcStatusMb("VmRSS");
  const simnet::NetworkStats net1 = world->network().stats();

  WriteFile((std::filesystem::path(opt.work_dir) / "report.json").string(),
            p.report_json);

  const core::Study& study = *p.study;
  const std::vector<dns::Name> query_list =
      core::PdnsMiner::ActiveQueryList(study.mined());
  int64_t failed_domains = 0;
  for (const core::MeasurementResult& r : study.active().results) {
    if (r.degraded || r.quarantine_reason != core::QuarantineReason::kNone) {
      ++failed_domains;
    }
  }

  w.Key("host").BeginObject();
  w.Kv("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()));
  w.Kv("compiler", "g++ " __VERSION__);
  w.Kv("build_type", PERFBENCH_BUILD_TYPE);
  w.EndObject();
  w.Key("config").BeginObject();
  w.Kv("mode", opt.mode);
  w.Key("world_seed").Uint(kWorldSeed);
  w.Key("weather_seed").Uint(opt.weather_seed);
  w.Kv("scale", opt.scale);
  w.Kv("chaos", hostile ? "hostile" : "benign");
  w.Kv("mine_workers", kWorkers);
  w.Kv("measure_workers", kWorkers);
  w.Kv("trace", opt.trace);
  w.EndObject();

  w.Key("counters").BeginObject();
  w.Kv("domains", static_cast<int64_t>(query_list.size()));
  w.Kv("failed_domains", failed_domains);
  w.Kv("worldgen.domains", static_cast<int64_t>(world->domains().size()));
  w.Kv("worldgen.endpoints",
       static_cast<int64_t>(world->network().endpoint_count()));
  w.Kv("selection.seeds", static_cast<int64_t>(study.seeds().size()));
  w.Kv("mining.domains", study.mined().stats.domains);
  const core::ResolverCounters& rc = study.measurement_counters();
  w.Key("measurement.surface_queries").Uint(study.measurement_queries_sent());
  w.Key("measurement.retries").Uint(rc.retries);
  w.Key("measurement.timeouts").Uint(rc.timeouts);
  const core::CutCacheStats& cc = study.measurement_cache_stats();
  w.Key("cut_cache.hits").Uint(cc.hits);
  w.Key("cut_cache.misses").Uint(cc.misses);
  w.Key("cut_cache.negative_publishes").Uint(cc.negative_publishes);
  w.Key("cut_cache.negative_evictions").Uint(cc.negative_evictions);
  w.Key("cut_cache.infra_queries").Uint(cc.infra.queries);
  w.Key("simnet.exchanges").Uint(net1.exchanges - net0.exchanges);
  w.Key("simnet.timeouts").Uint(net1.timeouts - net0.timeouts);
  uint64_t commits = 0, bytes_written = 0, rejections = 0;
  int64_t results_loaded = 0;
  if (p.ckpt != nullptr) {
    commits = p.ckpt->journal_stats().commits;
    bytes_written = p.ckpt->journal_stats().bytes_written;
    rejections = p.ckpt->journal_stats().Rejections();
    results_loaded = p.ckpt->stats().results_loaded;
  }
  w.Key("ckpt.commits").Uint(commits);
  w.Key("ckpt.bytes_written").Uint(bytes_written);
  w.Key("ckpt.frame_rejections").Uint(rejections);
  w.Kv("ckpt.results_loaded", results_loaded);
  w.Key("export.bytes").Uint(p.export_bytes);
  w.EndObject();

  if (opt.trace) {
    // Post-study layer measurements: outside setup, study and teardown.
    log.Begin("post");
    w.Key("micro").BeginObject();
    w.Kv("simnet.exchange_busy_s", timing->busy_s());
    w.Key("simnet.decorated_exchanges").Uint(timing->calls());
    ReplayAnalyzers(study, log);
    if (journal) ReloadJournal(study, opt, world_fp, query_list.size(), log);
    {
      Scope s(&log, "dns.micro");
      DnsMicro(query_list, opt.weather_seed, w);
    }
    w.EndObject();
    log.End();
  }

  log.Begin("teardown");
  {
    Scope s(&log, "teardown.study");
    p = Pipeline();
  }
  {
    Scope s(&log, "teardown.world");
    world.reset();
    policy.reset();
  }
  log.End();

  w.Key("rss_mb").BeginObject();
  w.Kv("after_setup", rss_after_setup);
  w.Kv("after_study", rss_after_study);
  w.EndObject();
  w.Key("spans").BeginArray();
  for (const Span& s : log.spans()) {
    w.BeginObject();
    w.Kv("name", s.name);
    w.Kv("start", s.start);
    w.Kv("end", s.end);
    w.Kv("cpu", s.cpu_end - s.cpu_start);
    w.Kv("parent", s.parent);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  WriteFile(opt.record_path, w.TakeString() + "\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (v == nullptr) {
      std::fprintf(stderr, "perfbench_study: %s needs a value\n", arg.c_str());
      return 2;
    }
    ++i;
    if (arg == "--mode") {
      opt.mode = v;
    } else if (arg == "--scale") {
      opt.scale = std::atof(v);
    } else if (arg == "--weather-seed") {
      opt.weather_seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--work-dir") {
      opt.work_dir = v;
    } else if (arg == "--record") {
      opt.record_path = v;
    } else {
      std::fprintf(stderr, "perfbench_study: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if ((opt.mode != "benign" && opt.mode != "journaled" &&
       opt.mode != "resume") ||
      opt.work_dir.empty() || opt.record_path.empty() || opt.scale <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench_study --mode benign|journaled|resume "
                 "--scale S --weather-seed M --trace 0|1 --work-dir DIR "
                 "--record PATH\n");
    return 2;
  }
  try {
    return Run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_study: %s\n", e.what());
    return 1;
  }
}
