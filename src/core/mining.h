// Passive-DNS mining (§III-B/C, Figures 2, 3, 6, 7).
//
// From each seed d_gov, a left-hand wildcard search discovers every zone in
// the government namespace. Records are stability-filtered, and each
// domain-year is summarized by the mode of its daily nameserver counts
// (paper Fig. 5) and the ids of the distinct NS hostnames seen that year.
// The miner also derives the active-measurement query list: domains seen in
// the collection window, minus disposable-looking names.
//
// The result is a flat MinedDataset (DESIGN.md §6o): one MinedDomain per
// mined name for its identity and flags, and the per-year summaries in
// three columns shared by every domain, one row per (domain, year), plus
// the interned NS names as one byte blob. A dataset of 86k domains is a
// handful of heap blocks instead of one per domain and one per year with
// data, and the longitudinal analyzers walk the rows in memory order.
//
// Mine() shards the seed list over a worker pool (MinerOptions::workers)
// over the immutable PdnsSnapshot (DESIGN.md §6e/§6j). A parallel pre-pass
// builds the global NS-name intern table: unique stable rdata per worker,
// merged into one byte-sorted table. Each worker then mines whole seeds
// against zero-copy entry views, resolving rdata to a global id by
// bucket-accelerated binary search, and emits its seeds as columns. The
// fold renumbers the ids to first-seen seed order, re-sorts each row's ids
// and copies every seed's columns into place, so the MinedDataset (rows,
// NS-name order and stats) is byte-identical for any worker count and to
// the pre-pool serial miner.
//
// Stability predicate (§III-C): a record is stable when
//
//     last_seen − first_seen >= stability_days      (default 7)
//
// i.e. the *gap* between first and last sighting must reach the threshold —
// the paper's own formulation, chosen because 7 days is the largest default
// cache TTL among the resolvers it surveys. Note this is NOT the inclusive
// calendar length `DayInterval::LengthDays()` (= last − first + 1): a record
// seen on day 0 and day 6 spans 7 calendar days but only a 6-day gap, and is
// dropped. An earlier revision tested `LengthDays() < stability_days`, which
// let such records through — one day of transient junk per record slipped
// into every yearly series (see MinerTest.StabilityBoundaryMatchesPaper).
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.h"
#include "obs/profile.h"
#include "pdns/db.h"
#include "util/civil_time.h"

namespace govdns::core {

// Which statistic summarizes the daily NS-count list of a domain-year.
// The paper uses the mode (Fig. 5); the alternatives quantify how much that
// choice matters (see bench_ablation_nsdaily_stat).
enum class YearlyStatistic { kMode, kMin, kMax, kMean };

struct MiningConfig {
  int first_year = 2011;
  int last_year = 2020;
  // Minimum first-seen-to-last-seen gap (days) for a record to be stable:
  // keep iff last_seen − first_seen >= stability_days (see file comment).
  int stability_days = 7;
  YearlyStatistic statistic = YearlyStatistic::kMode;
  // The active-collection window (paper: 2020-01-01 .. 2021-02).
  util::DayInterval active_window{util::DayFromYmd(2020, 1, 1),
                                  util::DayFromYmd(2021, 2, 15)};
  bool filter_disposable = true;
  // Whether a PDNS entry must also pass the stability filter to pull its
  // domain into the active-measurement window. The paper-faithful default is
  // false: §III-B extracts raw FQDNs seen during the collection window for
  // querying (transients are then handled by the second round and the
  // responsiveness funnel), while the §III-C stability filter applies only
  // to the longitudinal series. Set true to require a stable sighting — an
  // ablation-style tightening that keeps one-day wonders out of the query
  // list entirely.
  bool require_stable_for_active = false;

  int year_count() const { return last_year - first_year + 1; }

  friend bool operator==(const MiningConfig&, const MiningConfig&) = default;
};

// Stable 64-bit digest of every MiningConfig field. Folded into the study's
// checkpoint fingerprint so a journal mined under a different config is
// rejected at frame-load time, before any payload is trusted.
uint64_t MiningConfigFingerprint(const MiningConfig& config);

// Execution knobs of one Mine() pass. Deliberately NOT part of MiningConfig:
// the config travels inside the MinedDataset, and nothing about how the work
// was scheduled may appear in the dataset (byte-identical across worker
// counts is the pool's contract).
struct MinerOptions {
  // Worker threads sharding the seed list; 0 picks
  // std::thread::hardware_concurrency(), clamped to the seed count.
  int workers = 0;
  // Optional sub-phase profiling sink (not owned; may be null): records
  // "mining.freeze", "mining.fold.intern" (+ ".merge" for its serial tail),
  // "mining.shard", "mining.fold.{renumber,sort,concat}", and the umbrella
  // "mining.fold" wall-time phases (DESIGN.md §6j). "mining.freeze" is the
  // O(1) attach of the snapshot, its items the entry count; the row keeps
  // its name from when mining first flattened a mutable database, because
  // exported profiles are pinned byte for byte.
  obs::PhaseProfiler* profiler = nullptr;
};

// One mined name. Its per-year NS summaries are rows of the owning
// MinedDataset's columns.
struct MinedDomain {
  dns::Name name;
  int country = -1;    // from the owning seed
  int seed_index = -1;
  bool disposable = false;
  bool in_active_window = false;

  friend bool operator==(const MinedDomain&, const MinedDomain&) = default;
};

// Deterministic bookkeeping of one Mine() pass. Pure function of (snapshot,
// seeds, config); the study folds it into the observability metrics so the
// mining stage is not a black box between selection and measurement.
struct MiningStats {
  int64_t seeds = 0;
  int64_t entries_scanned = 0;     // PDNS entries examined
  int64_t entries_unstable = 0;    // dropped by the stability filter
  int64_t domains = 0;             // distinct owner names mined
  int64_t domains_disposable = 0;  // matching the disposable heuristic
  int64_t domains_in_active_window = 0;

  friend bool operator==(const MiningStats&, const MiningStats&) = default;
};

struct MinedDataset {
  MiningConfig config;
  std::vector<MinedDomain> domains;
  // The per-year summaries, one row per (domain d, year offset y) at row
  // d * config.year_count() + y, in three columns:
  //   modes      the yearly statistic of the daily NS-count list (the mode
  //              by default); 0 = no stable records that year;
  //   ids_begin  rows + 1 fenceposts: row r's ids are
  //              ns_ids[ids_begin[r], ids_begin[r + 1]);
  //   ns_ids     each row's interned ids of the distinct NS hostnames seen
  //              that year (stable records only), ascending.
  // The miner never gives a row without data ids; a decoded checkpoint
  // keeps whatever rows its frame holds (see study_ckpt.h).
  std::vector<int32_t> modes;
  std::vector<uint32_t> ids_begin = {0};
  std::vector<int32_t> ns_ids;
  // The interned hostname table as one blob: name i is
  // ns_bytes[i == 0 ? 0 : ns_ends[i - 1], ns_ends[i]).
  std::string ns_bytes;
  std::vector<uint32_t> ns_ends;
  MiningStats stats;

  size_t Row(size_t domain, int year_offset) const {
    return domain * static_cast<size_t>(config.year_count()) +
           static_cast<size_t>(year_offset);
  }
  int Mode(size_t domain, int year_offset) const {
    return modes[Row(domain, year_offset)];
  }
  bool HasData(size_t domain, int year_offset) const {
    return Mode(domain, year_offset) > 0;
  }
  std::span<const int32_t> NsIds(size_t domain, int year_offset) const {
    const size_t row = Row(domain, year_offset);
    return std::span<const int32_t>(ns_ids).subspan(
        ids_begin[row], ids_begin[row + 1] - ids_begin[row]);
  }
  size_t ns_count() const { return ns_ends.size(); }
  std::string_view NsName(int32_t id) const {
    const size_t i = static_cast<size_t>(id);
    const size_t begin = i == 0 ? 0 : ns_ends[i - 1];
    return std::string_view(ns_bytes).substr(begin, ns_ends[i] - begin);
  }
  // Appends the name of the next id. Offsets are 32-bit, so the blob holds
  // at most 4 GiB (CHECKed; a world at 100x scale needs under 1 GiB).
  void AppendNsName(std::string_view name);

  friend bool operator==(const MinedDataset&, const MinedDataset&) = default;
};

class PdnsMiner {
 public:
  explicit PdnsMiner(MiningConfig config = MiningConfig(),
                     MinerOptions options = MinerOptions());

  // Pure function of (snapshot, seeds, config): the worker count and every
  // other MinerOptions knob may change only the wall time, never the bytes
  // (pinned by ParallelMineTest), and so may whether the snapshot was built
  // in memory or mapped from a file (pinned by SnapshotFileTest).
  MinedDataset Mine(const pdns::PdnsSnapshot& snapshot,
                    const std::vector<SeedDomain>& seeds);

  // The heuristic the pipeline uses in place of the paper's manual
  // "disposable domains" filtering: machine-generated-looking labels.
  static bool LooksDisposable(const dns::Name& name);

  // The query list for active measurement.
  static std::vector<dns::Name> ActiveQueryList(const MinedDataset& dataset);
  // Country index of each query-list entry, aligned with ActiveQueryList
  // (same filter, same order). The study's per-country budget accounting
  // (DESIGN.md §6g) keys on this.
  static std::vector<int> ActiveQueryCountries(const MinedDataset& dataset);

 private:
  MiningConfig config_;
  MinerOptions options_;
};

// ---- Longitudinal aggregates over a mined dataset -------------------------

struct YearlyCounts {
  int year = 0;
  int64_t domains = 0;
  int64_t countries = 0;
  int64_t nameservers = 0;  // distinct hostnames

  friend bool operator==(const YearlyCounts&, const YearlyCounts&) = default;
};
// Figures 2 and 3.
std::vector<YearlyCounts> CountPerYear(const MinedDataset& dataset);

struct D1nsChurnRow {
  int year = 0;
  int64_t d1ns_total = 0;
  double pct_overlap_2011 = 0.0;   // share of this year's d_1NS also 1-NS in 2011
  double pct_new_vs_prev = 0.0;    // share not d_1NS the year before
  double pct_2011_cohort_gone = 0.0;  // of 2011's d_1NS, share w/o data now

  friend bool operator==(const D1nsChurnRow&, const D1nsChurnRow&) = default;
};
// Figure 6.
std::vector<D1nsChurnRow> D1nsChurn(const MinedDataset& dataset);

struct PrivateShareRow {
  int year = 0;
  double pct_d1ns_private = 0.0;
  double pct_all_private = 0.0;

  friend bool operator==(const PrivateShareRow&,
                         const PrivateShareRow&) = default;
};
// Figure 7: a domain-year counts as private when every stable NS hostname
// that year sits inside the domain's own d_gov (a lower bound, as in the
// paper).
std::vector<PrivateShareRow> PrivateShare(const MinedDataset& dataset,
                                          const std::vector<SeedDomain>& seeds);

}  // namespace govdns::core
