// Study-level checkpoint/resume over the ckpt journal (DESIGN.md §6f).
//
// One StudyCheckpoint owns the journal of one study run. The chains:
//
//   selection.ck  (parent 0)
//     -> mining.ck
//       -> active_000000.ck -> active_000001.ck -> ...   (batched results)
//            -> quarantine.ck -> report.ck   (chained to the last batch)
//       -> cutcache_000000.ck -> cutcache_000001.ck -> ...
//            (advisory warm start: one cut-cache delta per batch, its own
//             chain rooted at mining)
//
// Phase snapshots carry the phase's outputs *and* the PhaseProfiler records
// it produced, so a resumed run replays the profile rows and the exported
// report JSON stays byte-identical to an uninterrupted run. The cut-cache
// deltas are purely advisory — positives and tombstones only, never
// required for correctness — because per-domain measurement is hermetic: a
// cold cache is recomputed to identical content, and negatives are
// deliberately NOT saved: a shared negative lives for one measurement pass,
// so a resumed run earns its own dead-subtree verdicts and never replays one
// from disk. Each delta holds only what the batch before it changed
// (SharedCutCache::TakeChanges), so a commit costs what is new since the
// last one, not the whole cache.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/journal.h"
#include "core/cut_cache.h"
#include "core/measure.h"
#include "core/mining.h"
#include "core/selection.h"
#include "core/types.h"
#include "obs/profile.h"

namespace govdns::core {

struct VantageSummary;  // core/vantage.h

struct StudyCheckpointOptions {
  // Measurement results are journaled every `batch_size` domains; a kill
  // mid-round loses at most one batch of work.
  size_t batch_size = 1024;
  // false: fresh-run semantics — existing frames are wiped at Bind time.
  // true: resume — phases load from the journal where the chain validates.
  bool resume = false;
};

// Resume/recovery bookkeeping, beyond the journal's own frame stats.
struct StudyCheckpointStats {
  int64_t phases_loaded = 0;  // selection/mining restored from the journal
  int64_t phases_saved = 0;
  int64_t batches_loaded = 0;
  int64_t batches_saved = 0;
  int64_t results_loaded = 0;  // measured domains restored
  int64_t cache_entries_restored = 0;
  int64_t decode_rejects = 0;  // frame valid but payload failed to decode
};

class StudyCheckpoint {
 public:
  // `config_fingerprint` identifies the world/config the journal belongs to
  // (the harness mixes in world seed, scale, and years); Bind() later mixes
  // in the study's own config identity. A journal written under a different
  // fingerprint is rejected wholesale on load.
  StudyCheckpoint(std::string dir, uint64_t config_fingerprint,
                  StudyCheckpointOptions options = StudyCheckpointOptions());

  // Called by Study::AttachCheckpoint before any journal IO: finalizes the
  // fingerprint and applies fresh-run wiping when resume is off.
  void Bind(uint64_t study_fingerprint);

  void set_fault_plan(const ckpt::CkptFaultPlan& plan);

  // --- Phase snapshots -----------------------------------------------------
  struct SelectionSnapshot {
    std::vector<SeedDomain> seeds;
    SelectionStats stats;
    std::vector<obs::PhaseRecord> profile;
  };
  std::optional<SelectionSnapshot> TryLoadSelection();
  void SaveSelection(const SelectionSnapshot& snap);

  struct MiningSnapshot {
    MinedDataset dataset;
    std::vector<obs::PhaseRecord> profile;
  };
  // `expected_config` guards against a stale journal whose fingerprint
  // happens to collide: the deserialized dataset must carry it verbatim.
  std::optional<MiningSnapshot> TryLoadMining(const MiningConfig& expected_config);
  // Serializes the study's own dataset in place; nothing is copied.
  void SaveMining(const MinedDataset& dataset,
                  const std::vector<obs::PhaseRecord>& profile);

  // --- Intra-phase journal for active measurement --------------------------
  // Loads the longest valid prefix of batch frames; the returned results
  // cover query-list indices [0, size) contiguously. Stops (cleanly) at the
  // first missing/invalid/discontiguous frame. The vector comes back with
  // capacity for `expected_total`, so the caller can append the rest in
  // place. Also restarts the cut-cache delta chain at index 0;
  // RestoreCutCache moves it past what it loads.
  std::vector<MeasurementResult> LoadActiveBatches(size_t expected_total);
  // Journals one completed batch starting at `begin_index`.
  void AppendActiveBatch(size_t begin_index,
                         const std::vector<MeasurementResult>& results);

  // Journals the cache's changes since the previous delta
  // (SharedCutCache::TakeChanges) as the next cutcache_NNNNNN frame. Called
  // after every batch, so each delta is that batch's share of the cache.
  void AppendCutCacheDelta(SharedCutCache& cache);
  // Folds the longest valid prefix of deltas in order (a later entry wins, a
  // tombstone removes the cut) and restores the result: after deltas 0..k
  // that is the reachable part of the cache as it stood at delta k. Loading
  // stops cleanly at the first missing/invalid frame, and the next delta
  // continues the chain after the loaded prefix. Returns the count restored.
  size_t RestoreCutCache(SharedCutCache* cache);

  // Degradation summary of the measurement phase (DESIGN.md §6g): journaled
  // as its own frame after the last batch so a resumed run carries the
  // quarantine verdicts forward without re-deriving them. Chained into the
  // batch chain (the report frame then chains after it).
  struct QuarantineSnapshot {
    uint64_t total = 0;  // quarantined domains
    uint64_t hang = 0;
    uint64_t blackhole = 0;
    uint64_t budget_exceeded = 0;
    uint64_t watchdog_cancelled = 0;
    uint64_t vantage_lost = 0;

    friend bool operator==(const QuarantineSnapshot&,
                           const QuarantineSnapshot&) = default;
  };
  std::optional<QuarantineSnapshot> TryLoadQuarantine();
  void SaveQuarantine(const QuarantineSnapshot& snap);

  void SaveReportJson(const std::string& json);
  std::optional<std::string> TryLoadReportJson();

  // Vantage-shard summary (DESIGN.md §6k): the frame a shard commits last,
  // carrying its identity and per-country health for the parent's merge.
  // Self-contained (parent CRC 0) so the supervisor can load it with a bare
  // ckpt::Journal — no chain state crosses the process boundary; integrity
  // rides on the frame CRC and the journal fingerprint. Committed through
  // this journal, so fault plans count it as a write point like any other.
  void SaveVantage(const VantageSummary& summary);

  const StudyCheckpointOptions& options() const { return options_; }
  const ckpt::JournalStats& journal_stats() const { return journal_.stats(); }
  const StudyCheckpointStats& stats() const { return stats_; }
  // One-line JSON stats document (journal + resume counters) for the CLI.
  std::string StatsJson() const;

 private:
  ckpt::Journal journal_;
  StudyCheckpointOptions options_;
  StudyCheckpointStats stats_;
  uint64_t base_fingerprint_;
  bool bound_ = false;
  // Chain state: CRCs of the last accepted/committed frame per phase.
  bool have_selection_ = false;
  bool have_mining_ = false;
  uint32_t selection_crc_ = 0;
  uint32_t mining_crc_ = 0;
  uint32_t chain_crc_ = 0;  // last batch (or mining, before any batch)
  size_t next_batch_ = 0;
  size_t results_journaled_ = 0;
  // Cut-cache delta chain: last delta (or mining, before any delta).
  uint32_t delta_crc_ = 0;
  size_t next_delta_ = 0;
};

// The mining frame's payload, apart from the journal that commits it and
// checks its CRC and chain. SaveMining commits EncodeMiningPayload's bytes;
// TryLoadMining decodes the loaded payload and then compares the config.
// Per domain the frame holds Size(year_count) and then, per (domain, year)
// row, I32(mode), Size(n) and n x I32(id): the bytes the nested
// per-domain layout wrote, so the columns changed nothing on disk and
// kFrameVersion stays. The decoder accepts any row, ids on rows whose mode
// is 0 included, and keeps it as written.
std::string EncodeMiningPayload(const MinedDataset& dataset,
                                const std::vector<obs::PhaseRecord>& profile);
// Decodes `payload` into `snap`'s columns; false when it is malformed.
// What is reserved before the elements are read is bounded by the bytes
// left (DESIGN.md §6o).
bool DecodeMiningPayload(std::string_view payload,
                         StudyCheckpoint::MiningSnapshot* snap);

}  // namespace govdns::core
