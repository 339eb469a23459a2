#include "core/study.h"

#include <algorithm>
#include <map>
#include <span>

#include "core/study_ckpt.h"

namespace govdns::core {

Study::Study(StudyInputs inputs)
    : inputs_(std::move(inputs)),
      resolver_(inputs_.transport, inputs_.root_hints) {
  GOVDNS_CHECK(inputs_.transport != nullptr);
  GOVDNS_CHECK(inputs_.pdns != nullptr);
  GOVDNS_CHECK(inputs_.psl != nullptr);
  GOVDNS_CHECK(inputs_.policy != nullptr);
}

uint64_t StudyInputsFingerprint(const StudyInputs& inputs) {
  uint64_t fp = MiningConfigFingerprint(inputs.mining);
  fp = ckpt::MixFingerprint(fp, inputs.knowledge_base.size());
  fp = ckpt::MixFingerprint(fp, inputs.countries.size());
  fp = ckpt::MixFingerprint(fp, inputs.root_hints.size());
  return fp;
}

void Study::AttachCheckpoint(StudyCheckpoint* ckpt) {
  GOVDNS_CHECK(seeds_.empty() && mined_ == nullptr && active_ == nullptr);
  ckpt_ = ckpt;
  if (ckpt_ == nullptr) return;
  // The study-side identity the journal must match: the mining config plus
  // the shape of the research inputs. The world/config side (seed, scale) is
  // mixed in by the harness when it constructs the StudyCheckpoint.
  ckpt_->Bind(StudyInputsFingerprint(inputs_));
}

void Study::CheckInterrupt(const char* phase) const {
  if (interrupt_flag_ != nullptr &&
      interrupt_flag_->load(std::memory_order_relaxed)) {
    throw PipelineError(phase, "interrupted");
  }
}

const std::vector<SeedDomain>& Study::RunSelection() {
  if (ckpt_ != nullptr) {
    if (auto snap = ckpt_->TryLoadSelection()) {
      seeds_ = std::move(snap->seeds);
      selection_stats_ = snap->stats;
      // Replay the journaled profile rows so a resumed run exports the same
      // profile[] as the uninterrupted one (wall_ms rides along but is never
      // exported; logical_ms could not be recomputed without re-running).
      for (const obs::PhaseRecord& r : snap->profile) profiler_.Record(r);
      return seeds_;
    }
  }
  CheckInterrupt("selection");
  const size_t profile_mark = profiler_.records().size();
  {
    obs::PhaseProfiler::Scope phase(&profiler_, "selection");
    const uint64_t t0 = inputs_.transport->now_ms();
    SeedSelector selector(&resolver_, inputs_.psl, inputs_.policy);
    seeds_ = selector.Select(inputs_.knowledge_base, &selection_stats_);
    phase.set_logical_ms(inputs_.transport->now_ms() - t0);
    phase.set_items(static_cast<int64_t>(seeds_.size()));
  }
  if (ckpt_ != nullptr) {
    StudyCheckpoint::SelectionSnapshot snap;
    snap.seeds = seeds_;
    snap.stats = selection_stats_;
    const std::vector<obs::PhaseRecord> records = profiler_.records();
    snap.profile.assign(records.begin() + profile_mark, records.end());
    ckpt_->SaveSelection(snap);
  }
  return seeds_;
}

void Study::FoldMiningObs() const {
  if (obs_ == nullptr) return;
  // Mining is a pure function of (snapshot, seeds, config) — the worker
  // count may not change a byte of it — so its stats are kStable and land
  // as registry-level counters (no worker shards here).
  obs::MetricsRegistry& m = obs_->metrics();
  const MiningStats& s = mined_->stats;
  m.Add(m.DeclareCounter("mining.seeds"), s.seeds);
  m.Add(m.DeclareCounter("mining.entries_scanned"), s.entries_scanned);
  m.Add(m.DeclareCounter("mining.entries_unstable"), s.entries_unstable);
  m.Add(m.DeclareCounter("mining.domains"), s.domains);
  m.Add(m.DeclareCounter("mining.domains_disposable"), s.domains_disposable);
  m.Add(m.DeclareCounter("mining.domains_in_active_window"),
        s.domains_in_active_window);
  m.Add(m.DeclareCounter("mining.ns_names"),
        static_cast<int64_t>(mined_->ns_count()));
}

const MinedDataset& Study::RunMining(MinerOptions options) {
  GOVDNS_CHECK(!seeds_.empty());
  if (ckpt_ != nullptr) {
    if (auto snap = ckpt_->TryLoadMining(inputs_.mining)) {
      mined_ = std::make_unique<MinedDataset>(std::move(snap->dataset));
      for (const obs::PhaseRecord& r : snap->profile) profiler_.Record(r);
      FoldMiningObs();
      return *mined_;
    }
  }
  CheckInterrupt("mining");
  const size_t profile_mark = profiler_.records().size();
  {
    obs::PhaseProfiler::Scope phase(&profiler_, "mining");
    if (options.profiler == nullptr) options.profiler = &profiler_;
    PdnsMiner miner(inputs_.mining, options);
    mined_ = std::make_unique<MinedDataset>(miner.Mine(*inputs_.pdns, seeds_));
    phase.set_items(mined_->stats.domains);
  }
  if (ckpt_ != nullptr) {
    const std::vector<obs::PhaseRecord> records = profiler_.records();
    ckpt_->SaveMining(*mined_, std::vector<obs::PhaseRecord>(
                                   records.begin() + profile_mark,
                                   records.end()));
  }
  FoldMiningObs();
  return *mined_;
}

const ActiveDataset& Study::RunActiveMeasurement(MeasurerOptions options) {
  GOVDNS_CHECK(mined_ != nullptr);
  obs::PhaseProfiler::Scope phase(&profiler_, "measurement");
  if (options.obs == nullptr) options.obs = obs_;
  std::vector<dns::Name> query_list = PdnsMiner::ActiveQueryList(*mined_);
  ActiveMeasurer measurer(inputs_.transport, inputs_.root_hints,
                          ResolverOptions(), options);

  // Study-level budget accounting (DESIGN.md §6g). Enforcement is
  // batch-granular: a batch's verdicts read only the accumulators of the
  // batches before it, so they are a pure function of (query list, results,
  // batch size) — identical for any worker count, and a resumed run replays
  // its restored prefix through the same accounting below.
  const bool budgets_armed = options.max_logical_ms_per_country > 0 ||
                             options.phase_deadline_logical_ms > 0;
  std::vector<int> countries;
  if (budgets_armed) countries = PdnsMiner::ActiveQueryCountries(*mined_);
  uint64_t phase_logical = 0;
  std::map<int, uint64_t> country_logical;
  auto account = [&](size_t begin,
                     const std::vector<MeasurementResult>& part) {
    for (size_t k = 0; k < part.size(); ++k) {
      phase_logical += part[k].logical_ms;
      if (budgets_armed) {
        country_logical[countries[begin + k]] += part[k].logical_ms;
      }
    }
  };

  // Measures query-list indices [begin, begin+count), pre-quarantining the
  // domains the study-level budgets already exclude.
  auto measure_batch = [&](size_t begin, size_t count) {
    // Unbudgeted, nothing is pre-quarantined: the batch is measured in place,
    // with no copy of its names, and MeasureAll's vector is its results.
    if (!budgets_armed) {
      return measurer.MeasureAll(
          std::span<const dns::Name>(query_list).subspan(begin, count));
    }
    const bool phase_over = options.phase_deadline_logical_ms > 0 &&
                            phase_logical >= options.phase_deadline_logical_ms;
    std::vector<dns::Name> live;
    std::vector<size_t> live_at;  // batch-local offsets of `live` entries
    std::vector<MeasurementResult> part(count);
    for (size_t k = 0; k < count; ++k) {
      const size_t i = begin + k;
      bool over = phase_over;
      if (!over && options.max_logical_ms_per_country > 0) {
        auto it = country_logical.find(countries[i]);
        over = it != country_logical.end() &&
               it->second >= options.max_logical_ms_per_country;
      }
      if (over) {
        // Placeholder: the domain was never queried. Every other field stays
        // empty/zero so the quarantine is visible (and journal-roundtrips)
        // without inventing measurement data.
        part[k].domain = query_list[i];
        part[k].degraded = true;
        part[k].quarantine_reason = QuarantineReason::kBudgetExceeded;
      } else {
        live.push_back(query_list[i]);
        live_at.push_back(k);
      }
    }
    if (!live.empty()) {
      std::vector<MeasurementResult> measured = measurer.MeasureAll(live);
      for (size_t j = 0; j < live.size(); ++j) {
        part[live_at[j]] = std::move(measured[j]);
      }
    }
    account(begin, part);
    return part;
  };

  // One batch loop. Without a checkpoint or a country/phase budget the whole
  // query list is one batch; otherwise batches are the journaling and
  // budget-enforcement granularity.
  size_t batch_size = query_list.size();
  if (ckpt_ != nullptr || budgets_armed) {
    batch_size = options.budget_batch_size;
    if (batch_size == 0) {
      batch_size = ckpt_ != nullptr ? ckpt_->options().batch_size : size_t{64};
    }
  }
  std::vector<MeasurementResult> results;
  if (ckpt_ != nullptr) {
    results = ckpt_->LoadActiveBatches(query_list.size());
    // Replay the restored prefix through the budget accumulators so the
    // resumed run's cutoff decisions match the uninterrupted run's.
    account(0, results);
    if (!results.empty() && results.size() < query_list.size()) {
      // Warm start: skip re-deriving infrastructure the finished batches
      // already paid for. Purely advisory — per-domain results are hermetic
      // either way — and positives-only, so no stale negative can replay.
      ckpt_->RestoreCutCache(measurer.shared_cache());
    }
  }
  while (results.size() < query_list.size()) {
    CheckInterrupt("measurement");
    const size_t begin = results.size();
    const size_t count = std::min(batch_size, query_list.size() - begin);
    std::vector<MeasurementResult> part = measure_batch(begin, count);
    if (ckpt_ != nullptr) {
      ckpt_->AppendActiveBatch(begin, part);
      ckpt_->AppendCutCacheDelta(*measurer.shared_cache());
    }
    if (part.size() == query_list.size()) {
      // The whole list in one batch: its vector becomes the results, so
      // no second array of results is ever held.
      results = std::move(part);
    } else {
      // Appended, never replaced: a journaled run keeps the one reservation
      // LoadActiveBatches made.
      for (MeasurementResult& r : part) results.push_back(std::move(r));
    }
  }
  if (ckpt_ != nullptr) {
    // Journal the phase's degradation summary (DESIGN.md §6g) so a resumed
    // run carries the quarantine verdicts without re-deriving them. One
    // frame per journal: a resume that restored the full prefix reuses the
    // journaled frame (and must agree with it — the summary is a pure
    // function of the results) instead of appending a duplicate.
    StudyCheckpoint::QuarantineSnapshot qsnap;
    for (const MeasurementResult& r : results) {
      switch (r.quarantine_reason) {
        case QuarantineReason::kNone:
          break;
        case QuarantineReason::kHang:
          ++qsnap.total;
          ++qsnap.hang;
          break;
        case QuarantineReason::kBlackhole:
          ++qsnap.total;
          ++qsnap.blackhole;
          break;
        case QuarantineReason::kBudgetExceeded:
          ++qsnap.total;
          ++qsnap.budget_exceeded;
          break;
        case QuarantineReason::kWatchdogCancelled:
          ++qsnap.total;
          ++qsnap.watchdog_cancelled;
          break;
        case QuarantineReason::kVantageLost:
          ++qsnap.total;
          ++qsnap.vantage_lost;
          break;
      }
    }
    if (auto loaded = ckpt_->TryLoadQuarantine()) {
      GOVDNS_CHECK(*loaded == qsnap);
    } else {
      ckpt_->SaveQuarantine(qsnap);
    }
  }
  measurement_cache_stats_ = measurer.shared_cache()->stats();
  // Counters and logical time are sums over the per-domain results, so they
  // cover restored batches too. Logical time is the sum of per-domain scope
  // clocks, not the global clock — domain scopes run on context-local
  // clocks, and the sum is the quantity that stays deterministic across
  // worker counts (and across resumes).
  measurement_counters_ = ResolverCounters{};
  uint64_t logical = 0;
  for (const MeasurementResult& r : results) {
    measurement_counters_ += r.query_stats;
    logical += r.logical_ms;
  }
  phase.set_logical_ms(logical);
  phase.set_items(static_cast<int64_t>(results.size()));
  active_ = std::make_unique<ActiveDataset>(
      ActiveDataset::Build(std::move(results), seeds_, inputs_.countries));
  PublishCheckpointGauges();
  return *active_;
}

void Study::PublishCheckpointGauges() const {
  if (ckpt_ == nullptr || obs_ == nullptr) return;
  // Diagnostic by nature: how much was recovered depends on where the
  // previous run died, so none of this may feed a deterministic export.
  obs::MetricsRegistry& m = obs_->metrics();
  const StudyCheckpointStats& s = ckpt_->stats();
  const ckpt::JournalStats& js = ckpt_->journal_stats();
  m.SetGauge("ckpt.phases_loaded", s.phases_loaded);
  m.SetGauge("ckpt.batches_loaded", s.batches_loaded);
  m.SetGauge("ckpt.results_loaded", s.results_loaded);
  m.SetGauge("ckpt.cache_entries_restored", s.cache_entries_restored);
  m.SetGauge("ckpt.decode_rejects", s.decode_rejects);
  m.SetGauge("ckpt.commits", static_cast<int64_t>(js.commits));
  m.SetGauge("ckpt.bytes_written", static_cast<int64_t>(js.bytes_written));
  m.SetGauge("ckpt.frame_rejections", static_cast<int64_t>(js.Rejections()));
}

void Study::RunAll() {
  RunSelection();
  RunMining();
  RunActiveMeasurement();
}

}  // namespace govdns::core
