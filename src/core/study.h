// End-to-end study orchestration: selection -> PDNS mining -> active
// measurement -> analyses. This is the top-level public API a user of the
// library drives (see examples/quickstart.cc); each stage can also be run
// independently for partial studies.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/cut_cache.h"
#include "core/measure.h"
#include "core/mining.h"
#include "core/providers.h"
#include "core/resolver.h"
#include "core/selection.h"
#include "core/types.h"
#include "obs/obs.h"

namespace govdns::core {

class StudyCheckpoint;

// A pipeline stage failed (or was interrupted) in a way the study cannot
// recover from internally. Carries which phase died and why, so the CLI can
// exit non-zero with a structured {phase, cause} diagnostic instead of an
// anonymous what() string.
class PipelineError : public std::runtime_error {
 public:
  PipelineError(std::string phase, std::string cause)
      : std::runtime_error(phase + ": " + cause),
        phase_(std::move(phase)),
        cause_(std::move(cause)) {}

  const std::string& phase() const { return phase_; }
  const std::string& cause() const { return cause_; }

 private:
  std::string phase_;
  std::string cause_;
};

struct StudyInputs {
  // Substrates (a simulated world, or the real Internet via sockets).
  dns::QueryTransport* transport = nullptr;
  std::vector<geo::IPv4> root_hints;
  // The passive-DNS store: the world's in-memory image or a mapped
  // snapshot file (--map-snapshot; DESIGN.md §6i). The mined dataset is
  // byte-identical either way, so the checkpoint identity does not depend
  // on which one served mining.
  const pdns::PdnsSnapshot* pdns = nullptr;
  const geo::AsnDatabase* asn_db = nullptr;
  const registrar::RegistrarClient* registrar = nullptr;
  const registrar::PublicSuffixList* psl = nullptr;
  const RegistryPolicyLookup* policy = nullptr;

  // Research inputs.
  std::vector<KnowledgeBaseRecord> knowledge_base;
  std::vector<CountryMeta> countries;

  MiningConfig mining;
};

// The study-side checkpoint identity: the mining-config digest mixed with
// the shape of the research inputs. Study::AttachCheckpoint binds the
// journal with it; the vantage supervisor recomputes it out-of-process to
// open a finished shard's journal for the merge.
uint64_t StudyInputsFingerprint(const StudyInputs& inputs);

class Study {
 public:
  explicit Study(StudyInputs inputs);

  // §III-A. Must run first.
  const std::vector<SeedDomain>& RunSelection();
  // §III-B/C (requires selection). Runs the sharded miner: options.workers
  // threads (0 = all cores) over the PDNS snapshot; the MinedDataset is
  // byte-identical for any worker count. The study's phase profiler is
  // wired in as the default sub-phase sink.
  const MinedDataset& RunMining(MinerOptions options = MinerOptions());
  // Fig. 1 measurements over the mined query list (requires mining). Runs
  // the sharded pool measurer: options.workers threads (0 = all cores), a
  // shared zone-cut cache, results and per-domain stats independent of the
  // worker count.
  const ActiveDataset& RunActiveMeasurement(
      MeasurerOptions options = MeasurerOptions());

  // Runs all three stages.
  void RunAll();

  // Attaches an observability context (not owned; caller keeps it alive for
  // the study's lifetime; may be null to detach). Mining folds its
  // MiningStats into obs->metrics(); active measurement additionally samples
  // query traces and logs shared-cut publishes. Independent of the study's
  // own phase profiler, which always runs.
  void AttachObservability(obs::Observability* obs) { obs_ = obs; }

  // Attaches a checkpoint (not owned; caller keeps it alive for the study's
  // lifetime; may be null to detach). Binds the checkpoint to this study's
  // config identity (mining-config digest + input shape), then each phase
  // commits a snapshot on completion and, when the checkpoint is in resume
  // mode, loads from the journal instead of recomputing. Active measurement
  // runs in journaled batches of options().batch_size domains. Must be
  // attached before the first Run* call.
  void AttachCheckpoint(StudyCheckpoint* ckpt);

  // Cooperative interruption (not owned; may be null). Checked between
  // phases and between measurement batches: when *flag becomes true the
  // current batch finishes, its checkpoint commits, and the pipeline throws
  // PipelineError(phase, "interrupted") — the signal-flush path of the CLI.
  void set_interrupt_flag(const std::atomic<bool>* flag) {
    interrupt_flag_ = flag;
  }

  // Per-phase profile of every stage run so far (selection, mining,
  // measurement). logical_ms is deterministic SimClock time; wall_ms is
  // diagnostic only and never folded into deterministic outputs.
  const obs::PhaseProfiler& profiler() const { return profiler_; }

  // --- Results ------------------------------------------------------------
  const std::vector<SeedDomain>& seeds() const { return seeds_; }
  const SelectionStats& selection_stats() const { return selection_stats_; }
  const MinedDataset& mined() const { return *mined_; }
  const ActiveDataset& active() const { return *active_; }
  bool has_mined() const { return mined_ != nullptr; }
  bool has_active() const { return active_ != nullptr; }

  const StudyInputs& inputs() const { return inputs_; }

  // Aggregate query effort of the last RunActiveMeasurement: the sum of the
  // per-domain query_stats (surface queries only), restored batches
  // included.
  const ResolverCounters& measurement_counters() const {
    return measurement_counters_;
  }
  uint64_t measurement_queries_sent() const {
    return measurement_counters_.queries;
  }
  // Shared-cut-cache statistics of the last RunActiveMeasurement.
  const CutCacheStats& measurement_cache_stats() const {
    return measurement_cache_stats_;
  }

 private:
  // Throws PipelineError(phase, "interrupted") when the interrupt flag is up.
  void CheckInterrupt(const char* phase) const;
  // Folds mining stats into the attached observability registry (runs for
  // both computed and checkpoint-restored datasets).
  void FoldMiningObs() const;
  // Diagnostic ckpt.* gauges on the attached registry (no-op without obs).
  void PublishCheckpointGauges() const;

  StudyInputs inputs_;
  IterativeResolver resolver_;
  std::vector<SeedDomain> seeds_;
  SelectionStats selection_stats_;
  std::unique_ptr<MinedDataset> mined_;
  std::unique_ptr<ActiveDataset> active_;
  ResolverCounters measurement_counters_;
  CutCacheStats measurement_cache_stats_;
  obs::Observability* obs_ = nullptr;
  obs::PhaseProfiler profiler_;
  StudyCheckpoint* ckpt_ = nullptr;
  const std::atomic<bool>* interrupt_flag_ = nullptr;
};

}  // namespace govdns::core
