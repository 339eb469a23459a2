#include "core/mining.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <utility>

#include "util/arena.h"
#include "util/pool.h"
#include "util/rng.h"
#include "util/stats.h"

namespace govdns::core {

uint64_t MiningConfigFingerprint(const MiningConfig& config) {
  uint64_t state = 0x676f76646e73636bull;  // arbitrary non-zero start
  auto mix = [&state](uint64_t v) {
    state ^= v + 0x9E3779B97F4A7C15ull + (state << 6) + (state >> 2);
    uint64_t s = state;
    state = util::SplitMix64(s);
  };
  mix(static_cast<uint64_t>(config.first_year));
  mix(static_cast<uint64_t>(config.last_year));
  mix(static_cast<uint64_t>(config.stability_days));
  mix(static_cast<uint64_t>(config.statistic));
  mix(static_cast<uint64_t>(config.active_window.first));
  mix(static_cast<uint64_t>(config.active_window.last));
  mix(config.filter_disposable ? 1 : 2);
  mix(config.require_stable_for_active ? 1 : 2);
  return state;
}

void MinedDataset::AppendNsName(std::string_view name) {
  GOVDNS_CHECK(ns_bytes.size() + name.size() <=
               std::numeric_limits<uint32_t>::max());
  ns_bytes.append(name);
  ns_ends.push_back(static_cast<uint32_t>(ns_bytes.size()));
}

PdnsMiner::PdnsMiner(MiningConfig config, MinerOptions options)
    : config_(config), options_(options) {
  GOVDNS_CHECK(config.first_year <= config.last_year);
}

bool PdnsMiner::LooksDisposable(const dns::Name& name) {
  if (name.IsRoot()) return false;
  const std::string_view label = name.Label(0);
  // Machine-generated pattern: "...-xxxxxx" with a hex tail.
  if (label.size() < 8) return false;
  if (label[label.size() - 7] != '-') return false;
  for (size_t i = label.size() - 6; i < label.size(); ++i) {
    char c = label[i];
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

namespace {

// The one predicate deciding which NS sightings enter the global intern
// table: stable NS entries whose interval touches the studied year range
// [years_first, years_last]. The intern pre-pass collects exactly these
// rdata strings and the shard pass resolves exactly these through the
// table, so one shared function is what guarantees every collected name is
// used and every used name was collected (the renumber pass CHECKs it).
// Years are contiguous, so overlapping the whole range == overlapping some
// year.
bool InternEligible(const MiningConfig& config, util::CivilDay years_first,
                    util::CivilDay years_last,
                    const pdns::PdnsEntryView& entry) {
  return entry.type == dns::RRType::kNS &&
         entry.seen.last - entry.seen.first >= config.stability_days &&
         entry.seen.last >= years_first && entry.seen.first <= years_last;
}

// The global NS-name intern table, built once, up front, in parallel: every
// unique stable NS rdata in plain byte-sorted order, with a two-byte-prefix
// bucket index so a lookup binary-searches a short run instead of the whole
// table (~5 string compares instead of ~log2(n) at world scale). Entries
// are string_views into the snapshot's rdata blob, immutable for the
// duration of the pass, so building and probing the table never copies a
// string. Ids are positions in sorted order; the fold's renumber pass
// converts them to first-seen order at the end (DESIGN.md §6j).
class NsNameTable {
 public:
  // Merges per-worker sorted, deduplicated view lists into the table.
  void Build(std::vector<std::vector<std::string_view>> worker_tables) {
    std::vector<std::string_view> merged;
    for (std::vector<std::string_view>& t : worker_tables) {
      if (t.empty()) continue;
      if (merged.empty()) {
        merged = std::move(t);
        continue;
      }
      std::vector<std::string_view> tmp;
      tmp.reserve(merged.size() + t.size());
      std::merge(merged.begin(), merged.end(), t.begin(), t.end(),
                 std::back_inserter(tmp));
      tmp.erase(std::unique(tmp.begin(), tmp.end()), tmp.end());
      merged.swap(tmp);
    }
    sorted_ = std::move(merged);
    GOVDNS_CHECK(sorted_.size() <=
                 static_cast<size_t>(std::numeric_limits<int32_t>::max()));
    bucket_lo_.assign(kBucketCount + 1, 0);
    for (std::string_view s : sorted_) ++bucket_lo_[Bucket(s) + 1];
    for (size_t b = 1; b <= kBucketCount; ++b) {
      bucket_lo_[b] += bucket_lo_[b - 1];
    }
  }

  // Sorted id of `ns`, or -1 when absent. Read-only and data-race free:
  // every mining worker probes the same immutable table.
  int32_t Find(std::string_view ns) const {
    const uint32_t b = Bucket(ns);
    const auto first = sorted_.begin() + bucket_lo_[b];
    const auto last = sorted_.begin() + bucket_lo_[b + 1];
    const auto it = std::lower_bound(first, last, ns);
    if (it == last || *it != ns) return -1;
    return static_cast<int32_t>(it - sorted_.begin());
  }

  size_t size() const { return sorted_.size(); }
  std::string_view name(size_t id) const { return sorted_[id]; }

 private:
  // First two bytes of the string. Monotonic w.r.t. byte order because
  // hostname rdata never contains '\0', so a short string's implicit zero
  // padding sorts it before every longer string sharing its prefix.
  static constexpr size_t kBucketCount = 1 << 16;
  static uint32_t Bucket(std::string_view s) {
    const uint32_t b0 = s.empty() ? 0 : static_cast<unsigned char>(s[0]);
    const uint32_t b1 = s.size() < 2 ? 0 : static_cast<unsigned char>(s[1]);
    return (b0 << 8) | b1;
  }

  std::vector<std::string_view> sorted_;
  std::vector<uint32_t> bucket_lo_;  // kBucketCount + 1 fenceposts
};

// Per-worker reusable scratch, arena-backed: one bump allocator is Reset()
// at the top of every seed and all per-seed transients — the Fig. 5 mode
// sweep's +1/-1 deltas, the aggregated (count -> days) histogram, the
// pre-pass's per-seed rdata views — are ArenaVecs carved from it. After the
// first seed sizes the arena, a worker's whole load runs without touching
// the heap (the per-seed vector churn the 10x worldgen sweep exposed).
// `seen_mark` is the first-use detector for the renumber pass: stamped per
// seed (epoch trick) so it never needs clearing between seeds.
struct SweepScratch {
  util::BumpArena arena;
  std::vector<uint32_t> seen_mark;  // table-sized; value == stamp -> seen
  uint32_t stamp = 0;

  explicit SweepScratch(size_t table_size) : seen_mark(table_size, 0) {}

  void BeginSeed() {
    arena.Reset();
    if (++stamp == 0) {  // wrapped: invalidate stale marks the hard way
      std::fill(seen_mark.begin(), seen_mark.end(), 0u);
      stamp = 1;
    }
  }
};

// Output of mining one seed, in the dataset's column layout: one row per
// (domain, year), each row's ids ending at its `id_ends` entry. ns ids are
// global sorted-table ids; `first_use` records them in first-use order so
// the fold's renumber pass can replay seed-order first appearances without
// re-hashing a single string.
struct SeedShard {
  std::vector<MinedDomain> domains;
  std::vector<int32_t> modes;      // one per row
  std::vector<uint32_t> id_ends;   // one per row, offsets into `ids`
  std::vector<int32_t> ids;        // each row's distinct ids, ascending
  std::vector<int32_t> first_use;  // sorted-table ids, first-use order
  MiningStats stats;               // partial sums (seeds field unused)
};

// The yearly statistic over the aggregated, count-ascending histogram.
// Identical outcomes to the old std::map walk: ties pick the smaller count.
template <typename Hist>  // any range of (count, day_total) pairs
int YearlyValue(YearlyStatistic statistic, const Hist& days_at_count) {
  int value = 0;
  switch (statistic) {
    case YearlyStatistic::kMode: {
      int64_t best_days = 0;
      for (const auto& [count, day_total] : days_at_count) {
        if (day_total > best_days) {  // ties -> smaller (ascending order)
          best_days = day_total;
          value = count;
        }
      }
      break;
    }
    case YearlyStatistic::kMin:
      if (!days_at_count.empty()) value = days_at_count.front().first;
      break;
    case YearlyStatistic::kMax:
      if (!days_at_count.empty()) value = days_at_count.back().first;
      break;
    case YearlyStatistic::kMean: {
      int64_t days = 0, weighted = 0;
      for (const auto& [count, day_total] : days_at_count) {
        days += day_total;
        weighted += count * day_total;
      }
      if (days > 0) {
        value = static_cast<int>(std::lround(double(weighted) / double(days)));
      }
      break;
    }
  }
  return value;
}

// Mines one seed against the snapshot. Reads only shared immutable state
// and writes only `shard`/`scratch`, so any worker may run any seed.
void MineSeed(const MiningConfig& config, const pdns::PdnsSnapshot& snapshot,
              const NsNameTable& table, const SeedDomain& seed, int seed_index,
              const std::vector<util::CivilDay>& year_start,
              const std::vector<util::CivilDay>& year_end, SeedShard& shard,
              SweepScratch& scratch) {
  const int years = config.year_count();
  const util::CivilDay years_first = year_start.front();
  const util::CivilDay years_last = year_end.back();

  // §III-C stability predicate: the first-to-last-seen *gap* must reach the
  // threshold. Deliberately not LengthDays(), which is one day longer (see
  // mining.h).
  auto stable = [&config](const auto& entry) {
    return entry.seen.last - entry.seen.first >= config.stability_days;
  };
  auto is_ns = [](const auto& entry) {
    return entry.type == dns::RRType::kNS;
  };

  scratch.BeginSeed();
  util::ArenaVec<std::pair<util::CivilDay, int>> delta(&scratch.arena);
  util::ArenaVec<std::pair<int, int64_t>> days_at_count(&scratch.arena);
  // One domain's (year offset, sorted-table id) sightings; sorted and
  // deduplicated, they are the domain's rows of ids in year order.
  util::ArenaVec<std::pair<int32_t, int32_t>> year_ids(&scratch.arena);

  // Resolves an intern-eligible rdata to its global sorted id (the pre-pass
  // collected every such string, so a miss is a broken invariant, not a
  // data condition) and records the seed's first use of each id — the raw
  // material of the fold's renumber pass.
  auto resolve_ns = [&](std::string_view ns) -> int32_t {
    const int32_t gid = table.Find(ns);
    GOVDNS_CHECK(gid >= 0);
    if (scratch.seen_mark[gid] != scratch.stamp) {
      scratch.seen_mark[gid] = scratch.stamp;
      shard.first_use.push_back(gid);
    }
    return gid;
  };

  // One zero-copy owner walk over the subtree; entries of an owner are a
  // contiguous run of views into the image (no per-seed result vector). All
  // NS entries are considered (unfiltered: the active-window check uses raw
  // sightings, as the paper's FQDN extraction did).
  const auto [name_lo, name_hi] = snapshot.WildcardNameRange(seed.d_gov);
  for (size_t n = name_lo; n < name_hi; ++n) {
    const auto entries = snapshot.entries(n);
    if (std::none_of(entries.begin(), entries.end(), is_ns)) continue;

    MinedDomain domain;
    domain.name = snapshot.name(n);
    domain.country = seed.country;
    domain.seed_index = seed_index;
    domain.disposable = PdnsMiner::LooksDisposable(domain.name);

    year_ids.clear();
    for (const auto& entry : entries) {
      if (!is_ns(entry)) continue;
      ++shard.stats.entries_scanned;
      const bool is_stable = stable(entry);
      if (!is_stable) ++shard.stats.entries_unstable;
      if (entry.seen.Overlaps(config.active_window) &&
          (is_stable || !config.require_stable_for_active)) {
        domain.in_active_window = true;
      }
      if (!is_stable) continue;
      if (entry.seen.last < years_first || entry.seen.first > years_last) {
        continue;  // outside every studied year; was never interned
      }
      // One table probe per sighting (the old per-shard map looked the
      // string up once per overlapping year, building a std::string key
      // each time).
      const int32_t gid = resolve_ns(entry.rdata);
      for (int y = 0; y < years; ++y) {
        if (entry.seen.last < year_start[y] || entry.seen.first > year_end[y])
          continue;
        year_ids.emplace_back(y, gid);
      }
    }
    // Dedupe by sorted-table id within each year; the fold's renumber pass
    // re-sorts each row after converting to first-seen ids.
    std::sort(year_ids.begin(), year_ids.end());
    year_ids.resize_down(static_cast<size_t>(
        std::unique(year_ids.begin(), year_ids.end()) - year_ids.begin()));

    // Mode of daily counts, per year (paper Fig. 5). A sweep over the
    // +1/-1 deltas of each stable entry's in-year interval.
    size_t next = 0;  // the domain's first sighting of year y in year_ids
    for (int y = 0; y < years; ++y) {
      const size_t first = next;
      while (next < year_ids.size() && year_ids[next].first == y) ++next;
      if (next == first) {  // no stable records that year
        shard.modes.push_back(0);
        shard.id_ends.push_back(static_cast<uint32_t>(shard.ids.size()));
        continue;
      }
      delta.clear();
      for (const auto& entry : entries) {
        if (!is_ns(entry) || !stable(entry)) continue;
        util::CivilDay from = std::max(entry.seen.first, year_start[y]);
        util::CivilDay to = std::min(entry.seen.last, year_end[y]);
        if (from > to) continue;
        delta.emplace_back(from, 1);
        delta.emplace_back(to + 1, -1);
      }
      std::sort(delta.begin(), delta.end());

      // Walk the sweep, collecting (count, days) runs; then aggregate equal
      // counts so the histogram is count-ascending with unique keys.
      days_at_count.clear();
      int current = 0;
      util::CivilDay prev = year_start[y];
      size_t p = 0;
      while (p < delta.size()) {
        const util::CivilDay day = delta[p].first;
        int d = 0;
        while (p < delta.size() && delta[p].first == day) {
          d += delta[p].second;
          ++p;
        }
        if (current > 0) days_at_count.emplace_back(current, day - prev);
        current += d;
        prev = day;
      }
      std::sort(days_at_count.begin(), days_at_count.end());
      size_t w = 0;
      for (size_t r = 0; r < days_at_count.size(); ++r) {
        if (w > 0 && days_at_count[w - 1].first == days_at_count[r].first) {
          days_at_count[w - 1].second += days_at_count[r].second;
        } else {
          days_at_count[w++] = days_at_count[r];
        }
      }
      days_at_count.resize_down(w);

      shard.modes.push_back(YearlyValue(config.statistic, days_at_count));
      for (size_t i = first; i < next; ++i) {
        shard.ids.push_back(year_ids[i].second);
      }
      shard.id_ends.push_back(static_cast<uint32_t>(shard.ids.size()));
    }

    ++shard.stats.domains;
    if (domain.disposable) ++shard.stats.domains_disposable;
    if (domain.in_active_window) ++shard.stats.domains_in_active_window;
    shard.domains.push_back(std::move(domain));
  }
}

// The intern pre-pass body of one worker: collect the unique intern-eligible
// rdata views of whole seeds (deduped per seed through arena scratch, then
// once more per worker), leaving `acc` sorted and unique. The final k-way
// merge across workers happens serially in Mine — it is the only serial
// string work left in the pipeline.
void CollectInternViews(const MiningConfig& config,
                        const pdns::PdnsSnapshot& snapshot,
                        const std::vector<SeedDomain>& seeds,
                        std::atomic<size_t>& next,
                        std::vector<std::string_view>& acc) {
  const util::CivilDay years_first = util::YearStart(config.first_year);
  const util::CivilDay years_last = util::YearEnd(config.last_year);
  util::BumpArena arena;
  for (;;) {
    const size_t s = next.fetch_add(1, std::memory_order_relaxed);
    if (s >= seeds.size()) break;
    const auto [lo, hi] = snapshot.WildcardNameRange(seeds[s].d_gov);
    arena.Reset();
    util::ArenaVec<std::string_view> local(&arena);
    for (const pdns::PdnsEntryView entry :
         snapshot.EntriesInNameRange(lo, hi)) {
      if (InternEligible(config, years_first, years_last, entry)) {
        local.push_back(entry.rdata);
      }
    }
    std::sort(local.begin(), local.end());
    std::string_view* unique_end = std::unique(local.begin(), local.end());
    acc.insert(acc.end(), local.begin(), unique_end);
  }
  std::sort(acc.begin(), acc.end());
  acc.erase(std::unique(acc.begin(), acc.end()), acc.end());
}

}  // namespace

MinedDataset PdnsMiner::Mine(const pdns::PdnsSnapshot& snapshot,
                             const std::vector<SeedDomain>& seeds) {
  // --- Phase 1: attach ("mining.freeze"). The snapshot is already flat and
  // immutable, so this costs nothing; the row stays so the exported profile
  // keeps its schema (see MinerOptions::profiler).
  if (options_.profiler != nullptr) {
    obs::PhaseProfiler::Scope scope(options_.profiler, "mining.freeze");
    scope.set_items(static_cast<int64_t>(snapshot.entry_count()));
  }

  MinedDataset out;
  out.config = config_;
  out.stats.seeds = static_cast<int64_t>(seeds.size());
  const int years = config_.year_count();

  // Precomputed year boundaries (shared, immutable).
  std::vector<util::CivilDay> year_start(years), year_end(years);
  for (int y = 0; y < years; ++y) {
    year_start[y] = util::YearStart(config_.first_year + y);
    year_end[y] = util::YearEnd(config_.first_year + y);
  }

  const int workers = util::PoolWorkers(options_.workers, seeds.size());

  // --- Phase 2: intern pre-pass ("mining.fold.intern"). The global NS-name
  // table is built once, up front, in parallel: each worker sweeps whole
  // seeds collecting unique stable rdata views, and one serial k-way merge
  // ("mining.fold.intern.merge") canonicalizes them into the byte-sorted
  // table every mining shard then probes read-only. This is the piece that
  // used to run as the serial fold's hash replay after the shards finished;
  // hoisting it in front of the shard phase is what removed the serial
  // chokepoint (DESIGN.md §6j). Dispensers and per-worker accumulators sit
  // on their own cache lines so 8+ workers don't false-share hot state.
  NsNameTable table;
  {
    std::optional<obs::PhaseProfiler::Scope> scope;
    if (options_.profiler != nullptr) {
      scope.emplace(options_.profiler, "mining.fold.intern");
    }
    std::vector<util::CacheAligned<std::vector<std::string_view>>> acc(
        static_cast<size_t>(workers));
    util::CacheAligned<std::atomic<size_t>> next;
    util::RunOnPool(workers, [&](int w) {
      CollectInternViews(config_, snapshot, seeds, next.value,
                         acc[static_cast<size_t>(w)].value);
    });
    {
      std::optional<obs::PhaseProfiler::Scope> merge_scope;
      if (options_.profiler != nullptr) {
        merge_scope.emplace(options_.profiler, "mining.fold.intern.merge");
      }
      std::vector<std::vector<std::string_view>> worker_tables;
      worker_tables.reserve(acc.size());
      for (auto& a : acc) worker_tables.push_back(std::move(a.value));
      table.Build(std::move(worker_tables));
      if (merge_scope) {
        merge_scope->set_items(static_cast<int64_t>(table.size()));
      }
    }
    if (scope) scope->set_items(static_cast<int64_t>(table.size()));
  }

  // --- Phase 3: shard. An atomic dispenser (cache-line padded) hands whole
  // seeds to workers; each seed's output lands in its own slot with global
  // sorted-table ns ids, so which worker mined it cannot leave a trace in
  // the data.
  std::vector<SeedShard> shards(seeds.size());
  {
    std::optional<obs::PhaseProfiler::Scope> scope;
    if (options_.profiler != nullptr) {
      scope.emplace(options_.profiler, "mining.shard");
      scope->set_items(static_cast<int64_t>(seeds.size()));
    }
    util::CacheAligned<std::atomic<size_t>> next;
    util::RunOnPool(workers, [&](int) {
      SweepScratch scratch(table.size());
      for (;;) {
        const size_t s = next.value.fetch_add(1, std::memory_order_relaxed);
        if (s >= seeds.size()) break;
        MineSeed(config_, snapshot, table, seeds[s], static_cast<int>(s),
                 year_start, year_end, shards[s], scratch);
      }
    });
  }

  // --- Phase 4: fold. With interning hoisted into the pre-pass, the fold
  // is three cheap steps: a serial O(unique) renumber that restores the
  // first-seen seed-order ids a serial entry-major traversal would have
  // assigned (so exports stay byte-identical to the pre-pool miner at any
  // worker count), a parallel per-seed id rewrite + re-sort, and a parallel
  // concat with a commutative stats merge. Nothing in here hashes a string
  // or copies one more than once.
  {
    std::optional<obs::PhaseProfiler::Scope> scope;
    if (options_.profiler != nullptr) {
      scope.emplace(options_.profiler, "mining.fold");
    }

    // 4a ("mining.fold.renumber"): replay per-seed first-use lists in seed
    // order; the first seed to use a name names it. Pure integer work — the
    // strings were interned long ago.
    std::vector<int32_t> perm(table.size(), -1);
    {
      std::optional<obs::PhaseProfiler::Scope> sub;
      if (options_.profiler != nullptr) {
        sub.emplace(options_.profiler, "mining.fold.renumber");
        sub->set_items(static_cast<int64_t>(table.size()));
      }
      int32_t next_id = 0;
      for (const SeedShard& shard : shards) {
        for (const int32_t gid : shard.first_use) {
          if (perm[gid] < 0) perm[gid] = next_id++;
        }
      }
      // Every collected name must have been used (InternEligible is the
      // single predicate on both sides), so the permutation is total.
      GOVDNS_CHECK(static_cast<size_t>(next_id) == table.size());
      std::vector<int32_t> by_new_id(table.size());
      size_t bytes = 0;
      for (size_t i = 0; i < table.size(); ++i) {
        by_new_id[static_cast<size_t>(perm[i])] = static_cast<int32_t>(i);
        bytes += table.name(i).size();
      }
      out.ns_bytes.reserve(bytes);
      out.ns_ends.reserve(table.size());
      for (const int32_t i : by_new_id) {
        out.AppendNsName(table.name(static_cast<size_t>(i)));
      }
    }

    // 4b ("mining.fold.sort"): rewrite sorted-table ids to first-seen ids
    // and restore each row's sorted order. Independent per seed, so the pool
    // is reused; the result is canonical regardless of scheduling.
    {
      std::optional<obs::PhaseProfiler::Scope> sub;
      if (options_.profiler != nullptr) {
        sub.emplace(options_.profiler, "mining.fold.sort");
      }
      std::vector<util::CacheAligned<int64_t>> resorted(
          static_cast<size_t>(workers));
      util::CacheAligned<std::atomic<size_t>> next;
      util::RunOnPool(workers, [&](int w) {
        int64_t local = 0;
        for (;;) {
          const size_t s = next.value.fetch_add(1, std::memory_order_relaxed);
          if (s >= shards.size()) break;
          SeedShard& shard = shards[s];
          for (int32_t& id : shard.ids) id = perm[id];
          uint32_t begin = 0;
          for (const uint32_t end : shard.id_ends) {
            const auto first = shard.ids.begin() + begin;
            const auto last = shard.ids.begin() + end;
            // Monotonic rewrites (common: a seed whose names were first
            // seen in sorted order) leave the row sorted; skip then.
            if (!std::is_sorted(first, last)) {
              std::sort(first, last);
              ++local;
            }
            begin = end;
          }
        }
        resorted[static_cast<size_t>(w)].value = local;
      });
      if (sub) {
        int64_t total = 0;
        for (const auto& r : resorted) total += r.value;
        sub->set_items(total);  // deterministic: perm and rows are fixed
      }
    }

    // 4c ("mining.fold.concat"): copy every seed's columns to its
    // prefix-summed row and id offsets — a parallel copy, not a serial
    // append — freeing each shard once it is placed, and fold the
    // commutative stats sums.
    {
      std::optional<obs::PhaseProfiler::Scope> sub;
      if (options_.profiler != nullptr) {
        sub.emplace(options_.profiler, "mining.fold.concat");
      }
      std::vector<size_t> domain_offset(shards.size() + 1, 0);
      std::vector<size_t> id_offset(shards.size() + 1, 0);
      for (size_t s = 0; s < shards.size(); ++s) {
        const SeedShard& shard = shards[s];
        domain_offset[s + 1] = domain_offset[s] + shard.domains.size();
        id_offset[s + 1] = id_offset[s] + shard.ids.size();
        out.stats.entries_scanned += shard.stats.entries_scanned;
        out.stats.entries_unstable += shard.stats.entries_unstable;
        out.stats.domains += shard.stats.domains;
        out.stats.domains_disposable += shard.stats.domains_disposable;
        out.stats.domains_in_active_window +=
            shard.stats.domains_in_active_window;
      }
      GOVDNS_CHECK(id_offset.back() <= std::numeric_limits<uint32_t>::max());
      const size_t rows = domain_offset.back() * static_cast<size_t>(years);
      out.domains.resize(domain_offset.back());
      out.modes.resize(rows);
      out.ids_begin.resize(rows + 1);  // ids_begin[0] stays 0
      out.ns_ids.resize(id_offset.back());
      util::CacheAligned<std::atomic<size_t>> next;
      util::RunOnPool(workers, [&](int) {
        for (;;) {
          const size_t s = next.value.fetch_add(1, std::memory_order_relaxed);
          if (s >= shards.size()) break;
          SeedShard& shard = shards[s];
          std::move(shard.domains.begin(), shard.domains.end(),
                    out.domains.begin() + domain_offset[s]);
          const size_t row = domain_offset[s] * static_cast<size_t>(years);
          std::copy(shard.modes.begin(), shard.modes.end(),
                    out.modes.begin() + row);
          const uint32_t base = static_cast<uint32_t>(id_offset[s]);
          for (size_t r = 0; r < shard.id_ends.size(); ++r) {
            out.ids_begin[row + r + 1] = base + shard.id_ends[r];
          }
          std::copy(shard.ids.begin(), shard.ids.end(),
                    out.ns_ids.begin() + id_offset[s]);
          shard = SeedShard();
        }
      });
      if (sub) sub->set_items(static_cast<int64_t>(out.domains.size()));
    }
    if (scope) scope->set_items(static_cast<int64_t>(out.ns_count()));
  }
  return out;
}

std::vector<dns::Name> PdnsMiner::ActiveQueryList(const MinedDataset& dataset) {
  std::vector<dns::Name> out;
  for (const MinedDomain& domain : dataset.domains) {
    if (!domain.in_active_window) continue;
    if (dataset.config.filter_disposable && domain.disposable) continue;
    out.push_back(domain.name);
  }
  return out;
}

std::vector<int> PdnsMiner::ActiveQueryCountries(const MinedDataset& dataset) {
  std::vector<int> out;
  for (const MinedDomain& domain : dataset.domains) {
    if (!domain.in_active_window) continue;
    if (dataset.config.filter_disposable && domain.disposable) continue;
    out.push_back(domain.country);
  }
  return out;
}

std::vector<YearlyCounts> CountPerYear(const MinedDataset& dataset) {
  const size_t years = static_cast<size_t>(dataset.config.year_count());
  std::vector<YearlyCounts> out(years);
  for (size_t y = 0; y < years; ++y) {
    out[y].year = dataset.config.first_year + static_cast<int>(y);
  }
  // Dense presence marks, one byte per (key, year): a country or NS id is
  // counted the first time it is marked in a year. Country rows are offset
  // by one so the SeedDomain default -1 has a row, and grow on demand; NS
  // rows are indexed by interned id.
  std::vector<uint8_t> country_marks;
  std::vector<uint8_t> ns_marks(dataset.ns_count() * years);
  auto mark = [](uint8_t& slot) -> int64_t {
    const int64_t fresh = slot == 0;
    slot = 1;
    return fresh;
  };
  for (size_t d = 0; d < dataset.domains.size(); ++d) {
    const int country = dataset.domains[d].country;
    GOVDNS_CHECK(country >= -1);
    const size_t country_row = static_cast<size_t>(country + 1) * years;
    if (country_marks.size() < country_row + years) {
      country_marks.resize(country_row + years);
    }
    for (size_t y = 0; y < years; ++y) {
      if (!dataset.HasData(d, static_cast<int>(y))) continue;
      YearlyCounts& row = out[y];
      ++row.domains;
      row.countries += mark(country_marks[country_row + y]);
      for (int32_t id : dataset.NsIds(d, static_cast<int>(y))) {
        row.nameservers += mark(ns_marks[static_cast<size_t>(id) * years + y]);
      }
    }
  }
  return out;
}

std::vector<D1nsChurnRow> D1nsChurn(const MinedDataset& dataset) {
  const int years = dataset.config.year_count();
  // Per year: d_1NS domains, those also d_1NS in the first year, those new
  // against the year before, and first-year d_1NS domains without data.
  // Each domain's years are walked in order, so the only state a domain
  // needs is its own first-year and previous-year d_1NS marks.
  std::vector<int64_t> d1ns(years, 0), overlap_first(years, 0);
  std::vector<int64_t> fresh(years, 0), first_gone(years, 0);
  for (size_t d = 0; d < dataset.domains.size(); ++d) {
    const bool first_d1ns = years > 0 && dataset.Mode(d, 0) == 1;
    bool prev_d1ns = false;
    for (int y = 0; y < years; ++y) {
      const bool is_d1ns = dataset.Mode(d, y) == 1;
      if (is_d1ns) {
        ++d1ns[y];
        if (first_d1ns) ++overlap_first[y];
        if (!prev_d1ns) ++fresh[y];
      }
      if (first_d1ns && !dataset.HasData(d, y)) ++first_gone[y];
      prev_d1ns = is_d1ns;
    }
  }
  std::vector<D1nsChurnRow> out;
  for (int y = 0; y < years; ++y) {
    D1nsChurnRow row;
    row.year = dataset.config.first_year + y;
    row.d1ns_total = d1ns[y];
    if (y > 0 && d1ns[y] > 0) {
      row.pct_overlap_2011 = double(overlap_first[y]) / double(d1ns[y]);
      row.pct_new_vs_prev = double(fresh[y]) / double(d1ns[y]);
    }
    if (y > 0 && d1ns[0] > 0) {
      row.pct_2011_cohort_gone = double(first_gone[y]) / double(d1ns[0]);
    }
    out.push_back(row);
  }
  return out;
}

std::vector<PrivateShareRow> PrivateShare(
    const MinedDataset& dataset, const std::vector<SeedDomain>& seeds) {
  const int years = dataset.config.year_count();
  std::vector<int64_t> d1ns_total(years, 0), d1ns_private(years, 0);
  std::vector<int64_t> all_total(years, 0), all_private(years, 0);

  // Parse each interned hostname once; every (domain, year) referencing the
  // id then reuses the parsed Name for its subdomain check. nullopt marks a
  // hostname that failed to parse (never inside any d_gov).
  std::vector<std::optional<dns::Name>> parsed(dataset.ns_count());
  std::vector<bool> parse_tried(dataset.ns_count(), false);
  auto parsed_ns = [&](int32_t id) -> const std::optional<dns::Name>& {
    auto& slot = parsed[static_cast<size_t>(id)];
    if (!parse_tried[static_cast<size_t>(id)]) {
      parse_tried[static_cast<size_t>(id)] = true;
      auto ns = dns::Name::Parse(dataset.NsName(id));
      if (ns.ok()) slot = *std::move(ns);
    }
    return slot;
  };
  for (size_t d = 0; d < dataset.domains.size(); ++d) {
    const dns::Name& d_gov = seeds[dataset.domains[d].seed_index].d_gov;
    for (int y = 0; y < years; ++y) {
      if (!dataset.HasData(d, y)) continue;
      bool all_inside = true;
      for (int32_t id : dataset.NsIds(d, y)) {
        const std::optional<dns::Name>& ns = parsed_ns(id);
        if (!ns.has_value() || !ns->IsSubdomainOf(d_gov)) {
          all_inside = false;
          break;
        }
      }
      ++all_total[y];
      if (all_inside) ++all_private[y];
      if (dataset.Mode(d, y) == 1) {
        ++d1ns_total[y];
        if (all_inside) ++d1ns_private[y];
      }
    }
  }
  std::vector<PrivateShareRow> out;
  for (int y = 0; y < years; ++y) {
    PrivateShareRow row;
    row.year = dataset.config.first_year + y;
    if (d1ns_total[y] > 0) {
      row.pct_d1ns_private = double(d1ns_private[y]) / double(d1ns_total[y]);
    }
    if (all_total[y] > 0) {
      row.pct_all_private = double(all_private[y]) / double(all_total[y]);
    }
    out.push_back(row);
  }
  return out;
}

}  // namespace govdns::core
