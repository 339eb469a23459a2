// Fold-equivalence oracle for the parallel miner (DESIGN.md §6j).
//
// The miner's contract is that the pre-pass/binary-search/renumber pipeline
// is a pure optimization: its MinedDataset must be byte-identical to what a
// serial, entry-major traversal with a single grow-as-you-go intern table
// produces. ReferenceMine below IS that traversal — a from-scratch
// reimplementation of the pre-pool algorithm (hash-map interning in
// first-appearance order, std::map-based mode computation), sharing no code
// with the production miner beyond the public types. It keeps its own
// nested per-domain, per-year lists, so it shares no layout with the
// dataset's columns either, and is compared with the miner row by row.
// Every production configuration — {1, 2, 4, 8} workers × {in-memory,
// mapped} stores — is pinned against it, along with the renumber pass's
// first-seen id order and full-report byte identity across worker counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ckpt/snapshot_file.h"
#include "core/export.h"
#include "core/mining.h"
#include "core/report.h"
#include "core/study.h"
#include "pdns/db.h"
#include "tests/mined_datasets.h"
#include "util/civil_time.h"
#include "worldgen/adapter.h"

namespace govdns {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kFingerprint = 0x666f6c64746573ull;

// The reference miner's own output layout: one list of years per domain,
// one list of ids per year.
struct ReferenceYear {
  int mode = 0;
  std::vector<int32_t> ns_ids;
};

struct ReferenceDomain {
  dns::Name name;
  int country = -1;
  int seed_index = -1;
  std::vector<ReferenceYear> years;
  bool disposable = false;
  bool in_active_window = false;
};

struct ReferenceDataset {
  core::MiningConfig config;
  std::vector<ReferenceDomain> domains;
  std::vector<std::string> ns_names;
  core::MiningStats stats;
};

// The pre-pool mining algorithm, reimplemented as plainly as possible: one
// serial pass over the seeds in order, interning NS hostnames into the
// global table at first use. Mode computation goes through std::maps — the
// shape the original code had before the flat-vector sweep — so the oracle
// does not share the production histogram path either. Supports the default
// statistic only (kMode), which is all these tests use.
ReferenceDataset ReferenceMine(const pdns::PdnsSnapshot& snapshot,
                               const std::vector<core::SeedDomain>& seeds,
                               const core::MiningConfig& config) {
  GOVDNS_CHECK(config.statistic == core::YearlyStatistic::kMode);
  ReferenceDataset out;
  out.config = config;
  out.stats.seeds = static_cast<int64_t>(seeds.size());
  const int years = config.year_count();

  std::vector<util::CivilDay> year_start(years), year_end(years);
  for (int y = 0; y < years; ++y) {
    year_start[y] = util::YearStart(config.first_year + y);
    year_end[y] = util::YearEnd(config.first_year + y);
  }

  std::unordered_map<std::string, int32_t> intern;
  auto intern_ns = [&](std::string_view ns) -> int32_t {
    auto [it, inserted] = intern.emplace(
        std::string(ns), static_cast<int32_t>(out.ns_names.size()));
    if (inserted) out.ns_names.emplace_back(ns);
    return it->second;
  };

  for (size_t s = 0; s < seeds.size(); ++s) {
    const auto [name_lo, name_hi] = snapshot.WildcardNameRange(seeds[s].d_gov);
    for (size_t n = name_lo; n < name_hi; ++n) {
      const auto entries = snapshot.entries(n);
      bool any_ns = false;
      for (const auto& entry : entries) {
        any_ns |= entry.type == dns::RRType::kNS;
      }
      if (!any_ns) continue;

      ReferenceDomain domain;
      domain.name = snapshot.name(n);
      domain.country = seeds[s].country;
      domain.seed_index = static_cast<int>(s);
      domain.disposable = core::PdnsMiner::LooksDisposable(domain.name);
      domain.years.resize(years);

      for (const auto& entry : entries) {
        if (entry.type != dns::RRType::kNS) continue;
        ++out.stats.entries_scanned;
        const bool stable =
            entry.seen.last - entry.seen.first >= config.stability_days;
        if (!stable) ++out.stats.entries_unstable;
        if (entry.seen.Overlaps(config.active_window) &&
            (stable || !config.require_stable_for_active)) {
          domain.in_active_window = true;
        }
        if (!stable) continue;
        for (int y = 0; y < years; ++y) {
          if (entry.seen.last < year_start[y] ||
              entry.seen.first > year_end[y]) {
            continue;
          }
          domain.years[y].ns_ids.push_back(intern_ns(entry.rdata));
        }
      }

      for (int y = 0; y < years; ++y) {
        if (domain.years[y].ns_ids.empty()) continue;
        std::map<util::CivilDay, int> delta;
        for (const auto& entry : entries) {
          if (entry.type != dns::RRType::kNS) continue;
          if (entry.seen.last - entry.seen.first < config.stability_days) {
            continue;
          }
          util::CivilDay from = std::max(entry.seen.first, year_start[y]);
          util::CivilDay to = std::min(entry.seen.last, year_end[y]);
          if (from > to) continue;
          delta[from] += 1;
          delta[to + 1] -= 1;
        }
        std::map<int, int64_t> days_at_count;
        int current = 0;
        util::CivilDay prev = year_start[y];
        for (const auto& [day, d] : delta) {
          if (current > 0) days_at_count[current] += day - prev;
          current += d;
          prev = day;
        }
        int mode = 0;
        int64_t best_days = 0;
        for (const auto& [count, day_total] : days_at_count) {
          if (day_total > best_days) {  // ties -> smaller (ascending walk)
            best_days = day_total;
            mode = count;
          }
        }
        domain.years[y].mode = mode;
        auto& ids = domain.years[y].ns_ids;
        std::sort(ids.begin(), ids.end());
        ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      }

      ++out.stats.domains;
      if (domain.disposable) ++out.stats.domains_disposable;
      if (domain.in_active_window) ++out.stats.domains_in_active_window;
      out.domains.push_back(std::move(domain));
    }
  }
  return out;
}

// Row by row: every domain's identity and flags, each year's mode and
// ids, the NS-name table and the stats, plus the column invariants (one
// row per domain and year, fenceposts closing over every id).
::testing::AssertionResult MatchesReference(const core::MinedDataset& mined,
                                            const ReferenceDataset& ref) {
  if (!(mined.config == ref.config)) {
    return ::testing::AssertionFailure() << "config differs";
  }
  if (testing::NsNames(mined) != ref.ns_names) {
    return ::testing::AssertionFailure() << "ns names differ";
  }
  if (!(mined.stats == ref.stats)) {
    return ::testing::AssertionFailure() << "stats differ";
  }
  if (mined.domains.size() != ref.domains.size()) {
    return ::testing::AssertionFailure()
           << mined.domains.size() << " domains, reference "
           << ref.domains.size();
  }
  const int years = mined.config.year_count();
  const size_t rows = mined.domains.size() * static_cast<size_t>(years);
  if (mined.modes.size() != rows || mined.ids_begin.size() != rows + 1 ||
      mined.ids_begin.front() != 0 ||
      mined.ids_begin.back() != mined.ns_ids.size()) {
    return ::testing::AssertionFailure() << "columns out of shape";
  }
  for (size_t d = 0; d < ref.domains.size(); ++d) {
    const core::MinedDomain& got = mined.domains[d];
    const ReferenceDomain& want = ref.domains[d];
    if (got.name != want.name || got.country != want.country ||
        got.seed_index != want.seed_index ||
        got.disposable != want.disposable ||
        got.in_active_window != want.in_active_window) {
      return ::testing::AssertionFailure()
             << "domain " << d << " (" << want.name.ToString() << ") differs";
    }
    for (int y = 0; y < years; ++y) {
      const ReferenceYear& year = want.years[static_cast<size_t>(y)];
      const auto ids = mined.NsIds(d, y);
      if (mined.Mode(d, y) != year.mode ||
          !std::equal(ids.begin(), ids.end(), year.ns_ids.begin(),
                      year.ns_ids.end())) {
        return ::testing::AssertionFailure()
               << "domain " << d << " (" << want.name.ToString()
               << ") year " << y << " differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

struct OracleFixture {
  std::unique_ptr<worldgen::World> world;
  worldgen::BoundStudy bound;
  ReferenceDataset reference;

  static OracleFixture Make() {
    OracleFixture f;
    worldgen::WorldConfig config;
    config.scale = 0.02;
    f.world = worldgen::BuildWorld(config);
    f.bound = worldgen::MakeStudy(*f.world);
    f.bound.study->RunSelection();
    f.reference = ReferenceMine(f.store(), f.bound.study->seeds(),
                                f.bound.study->inputs().mining);
    return f;
  }

  core::MinedDataset Mine(int workers) {
    core::MinerOptions options;
    options.workers = workers;
    core::PdnsMiner miner(f_config(), options);
    return miner.Mine(store(), bound.study->seeds());
  }

  const pdns::PdnsSnapshot& store() { return *bound.study->inputs().pdns; }
  const core::MiningConfig& f_config() {
    return bound.study->inputs().mining;
  }
};

TEST(MiningFoldTest, MatchesSerialReferenceAcrossWorkersAndSubstrates) {
  OracleFixture f = OracleFixture::Make();

  // The oracle must exercise real volume: many seeds, a real intern table.
  ASSERT_GT(f.bound.study->seeds().size(), 10u);
  ASSERT_GT(f.reference.domains.size(), 100u);
  ASSERT_GT(f.reference.ns_names.size(), 50u);

  // Publish the world's store as a file so the mapped store probes the
  // exact production load path.
  const std::string dir =
      (fs::temp_directory_path() / "govdns_mining_fold").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = dir + "/pdns.gvsn";
  ASSERT_TRUE(
      pdns::WritePdnsSnapshotFile(f.store(), kFingerprint, dir, path).ok());
  auto mapped = pdns::PdnsSnapshot::Open(path, kFingerprint,
                                         ckpt::SnapshotValidation::kFull);
  ASSERT_TRUE(mapped.ok());

  const std::vector<core::SeedDomain>& seeds = f.bound.study->seeds();
  for (int workers : {1, 2, 4, 8}) {
    core::MinerOptions options;
    options.workers = workers;
    core::PdnsMiner miner(f.f_config(), options);

    const core::MinedDataset in_memory = miner.Mine(f.store(), seeds);
    // Field-by-field first for readable failures...
    EXPECT_EQ(testing::NsNames(in_memory), f.reference.ns_names)
        << "w=" << workers;
    EXPECT_EQ(in_memory.stats, f.reference.stats) << "w=" << workers;
    ASSERT_EQ(in_memory.domains.size(), f.reference.domains.size());
    // ...then the whole dataset row by row, from either store.
    EXPECT_TRUE(MatchesReference(in_memory, f.reference))
        << "in-memory w=" << workers;
    EXPECT_TRUE(MatchesReference(miner.Mine(*mapped, seeds), f.reference))
        << "mapped w=" << workers;
  }
  fs::remove_all(dir);
}

TEST(MiningFoldTest, RenumberRestoresFirstSeenSeedOrderIds) {
  OracleFixture f = OracleFixture::Make();
  const core::MinedDataset mined = f.Mine(8);

  // The renumber pass's whole job: ns ids numbered by first appearance in
  // the serial entry-major traversal — the oracle's intern order.
  EXPECT_EQ(testing::NsNames(mined), f.reference.ns_names);

  // Structural restatement, independent of the oracle: walking domains in
  // order, the first sighting of each id must arrive in ascending id order
  // with no gaps.
  int32_t next_unseen = 0;
  std::vector<bool> seen(mined.ns_count(), false);
  for (size_t d = 0; d < mined.domains.size(); ++d) {
    for (int y = 0; y < mined.config.year_count(); ++y) {
      for (int32_t id : mined.NsIds(d, y)) {
        if (seen[static_cast<size_t>(id)]) continue;
        EXPECT_EQ(id, next_unseen) << "id assigned out of first-seen order";
        seen[static_cast<size_t>(id)] = true;
        ++next_unseen;
      }
    }
  }
  EXPECT_EQ(static_cast<size_t>(next_unseen), mined.ns_count());

  // Thread scheduling differs run to run; the bytes must not.
  EXPECT_TRUE(f.Mine(8) == mined);
}

TEST(MiningFoldTest, ReportJsonIsByteIdenticalAcrossMineWorkerCounts) {
  auto run = [](int mine_workers) {
    worldgen::WorldConfig config;
    config.scale = 0.02;
    auto world = worldgen::BuildWorld(config);
    auto bound = worldgen::MakeStudy(*world);
    bound.study->RunSelection();
    core::MinerOptions mopts;
    mopts.workers = mine_workers;
    bound.study->RunMining(mopts);
    core::MeasurerOptions aopts;
    aopts.workers = 1;
    bound.study->RunActiveMeasurement(aopts);
    return core::ExportReportJson(
        core::BuildReport(*bound.study, {"cn", "br"}));
  };
  // The report embeds the profiler's sub-phase rows (items, logical time),
  // so this also pins that every new fold sub-phase reports
  // schedule-independent items.
  EXPECT_EQ(run(1), run(8));
}

}  // namespace
}  // namespace govdns
