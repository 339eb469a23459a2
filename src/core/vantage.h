// Multi-vantage measurement: supervised vantage shards, journal-coordinated
// crash recovery, and a deterministic cross-vantage disagreement merge
// (DESIGN.md §6k).
//
// Ownership split: each vantage shard is a forked child process that
// applies its own network view and then runs RunVantageShard: the whole
// study (Study::Run) journaled into its own per-vantage ckpt::Journal
// subdirectory, finished by a self-contained `vantage` frame (kind 7) that
// summarizes what that vantage saw. The parent VantageSupervisor — the
// PhaseWatchdog idea promoted from threads to processes — waitpid-monitors
// the shards on the wall clock, restarts a crashed shard from its own
// journal (resume machinery: a kill at any write point loses at most one
// batch), SIGKILLs a straggler that outlives its per-attempt deadline, and
// declares a shard lost once its restart budget is spent. CollectVantages
// then loads the surviving frames and folds them through
// MergeVantageSummaries: a pure function of the set of summaries (sorted by
// vantage name), so the merged report is byte-identical whatever order
// shards finished in, how often they crashed, or which attempt finally
// completed. The journal layout, its fingerprint and the rule for a lost
// shard live here only; callers bring the overlay and their fault hooks.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "ckpt/fault.h"
#include "core/analysis.h"
#include "core/study.h"
#include "core/study_ckpt.h"

namespace govdns::ckpt {
class Reader;
class Writer;
}  // namespace govdns::ckpt

namespace govdns::core {

// The `vantage` frame's payload kind tag and on-disk frame name. Kept here
// (not in study_ckpt.cc) because the parent-side loader decodes the frame
// without a StudyCheckpoint.
inline constexpr uint8_t kVantageFrameKind = 7;
inline constexpr char kVantageFrameName[] = "vantage";

// Per-country ADNS health as seen from one vantage.
struct VantageCountryHealth {
  std::string code;
  int64_t domains = 0;        // measured domains attributed to the country
  int64_t responsive = 0;     // parent zone responded
  int64_t authoritative = 0;  // >=1 child NS answered authoritatively
  int64_t lame = 0;           // parent has records but no child authority
  int64_t unreachable = 0;    // no parent response at all
  int64_t quarantined = 0;

  friend bool operator==(const VantageCountryHealth&,
                         const VantageCountryHealth&) = default;
};

// What one vantage shard journals about itself: identity plus the funnel
// and per-country health rows the merge needs. `report_crc` pins the full
// single-vantage report JSON without carrying its bytes.
struct VantageSummary {
  std::string name;
  uint64_t fingerprint = 0;  // the shard journal's full fingerprint
  int64_t domains = 0;
  int64_t responsive = 0;
  int64_t authoritative = 0;
  int64_t quarantined = 0;
  uint32_t report_crc = 0;
  std::vector<VantageCountryHealth> countries;  // metas order, rows with data

  friend bool operator==(const VantageSummary&,
                         const VantageSummary&) = default;
};

// Frame codec, shared by StudyCheckpoint::SaveVantage (child side) and
// LoadVantageSummary (parent side).
void EncodeVantageSummary(ckpt::Writer& w, const VantageSummary& summary);
bool DecodeVantageSummary(ckpt::Reader& r, VantageSummary* out);

// Parent-side load of a finished shard's summary straight from its journal
// directory. `fingerprint` must be the shard journal's full fingerprint
// (VantageJournalFingerprint). Returns nullopt when the frame is missing,
// invalid, or summarizes a different vantage.
std::optional<VantageSummary> LoadVantageSummary(const std::string& dir,
                                                 uint64_t fingerprint);

// The per-vantage journal directory under the supervisor's checkpoint root.
std::string VantageJournalDir(const std::string& ckpt_root,
                              const std::string& name);
// A shard journal's full fingerprint: the world/config identity mixed with
// the vantage name, then with the study identity (StudyInputsFingerprint)
// as StudyCheckpoint::Bind mixes it. Mixing the name in means one shard's
// journal can never satisfy another shard's resume. An overlay leaves the
// study identity unchanged, so the parent's pre-overlay value matches what
// every shard computes after its overlay.
uint64_t VantageJournalFingerprint(uint64_t world_fingerprint,
                                   const std::string& name,
                                   uint64_t study_fingerprint);

// One attempt of one shard: the body a VantageSupervisor child runs once
// its vantage overlay is applied. Builds a Study over `inputs` (with `obs`
// attached when set), journals it into VantageJournalDir(ckpt_root, name),
// runs Study::Run(options), which commits the report frame, and commits the
// vantage frame last. Every attempt after the first resumes from that
// journal whatever `ckpt_options.resume` says: a restart is a resume.
// `fault_plan` is armed on the journal (the callers' crash hooks; the
// default plan never fires). Throws what Study::Run throws.
void RunVantageShard(const std::string& name, int attempt,
                     const std::string& ckpt_root, uint64_t world_fingerprint,
                     StudyInputs inputs, StudyCheckpointOptions ckpt_options,
                     const PipelineOptions& options,
                     const ckpt::CkptFaultPlan& fault_plan = {},
                     obs::Observability* obs = nullptr);

// --- Supervision -----------------------------------------------------------

struct VantageSupervisorOptions {
  // Wall-clock budget per attempt; a child still running after this long is
  // SIGKILLed and the kill is treated as a crash (restart from journal).
  // 0 = no deadline.
  uint64_t deadline_ms = 0;
  // Crash/deadline restarts allowed per vantage before it is declared lost.
  int max_restarts = 2;
  // waitpid poll cadence.
  uint32_t poll_ms = 20;

  // Test hook: SIGKILL the named vantage once, `after_ms` after its first
  // attempt started — a real mid-phase murder, not an injected exception.
  struct KillOnce {
    std::string name;
    uint64_t after_ms = 0;
  };
  std::optional<KillOnce> kill_once;
};

// Terminal state of one vantage after supervision. Everything except
// `name`/`lost` is wall-clock-dependent bookkeeping — diagnostic only, and
// deliberately excluded from merged (deterministic) outputs.
struct VantageOutcome {
  std::string name;
  bool lost = false;       // restart budget exhausted; excluded from merge
  int attempts = 1;        // 1 = finished first try
  int deadline_kills = 0;  // attempts that died to the deadline
  int last_exit_code = 0;  // 0 after a clean finish
  int last_signal = 0;     // terminating signal of the last attempt, if any
};

class VantageSupervisor {
 public:
  // `fn(name, attempt)` runs inside the forked child and returns its exit
  // code; attempt 0 is the first try, >0 are restarts (which should resume
  // from the shard's journal). The child never returns to the caller's
  // code: the supervisor `_exit`s with fn's result.
  using ChildFn = std::function<int(const std::string& name, int attempt)>;

  VantageSupervisor(std::vector<std::string> names,
                    VantageSupervisorOptions options);

  // Forks one child per vantage (all concurrently), supervises them to
  // completion, and returns one outcome per vantage in the input order.
  // Serial with respect to the calling thread; spawns no threads of its
  // own, so it is fork-safe to call from a single-threaded parent.
  std::vector<VantageOutcome> Run(const ChildFn& fn);

 private:
  std::vector<std::string> names_;
  VantageSupervisorOptions options_;
};

// --- Deterministic merge ---------------------------------------------------

// One country's cross-vantage disagreement row. `health` holds the
// authoritative share per vantage, aligned with MultiVantageReport::order;
// `verdicts` classifies each share (healthy >= 0.9 > degraded >= 0.5 >
// lame > 0.0 == dark). A row is emitted only when at least two vantages
// measured the country; it counts as a disagreement when the verdicts are
// not all equal.
struct DisagreementRow {
  std::string code;
  std::vector<int64_t> domains;        // per vantage
  std::vector<int64_t> authoritative;  // per vantage
  std::vector<std::string> verdicts;   // per vantage
  double spread = 0.0;                 // max - min authoritative share
  bool disagrees = false;

  friend bool operator==(const DisagreementRow&,
                         const DisagreementRow&) = default;
};

struct MultiVantageReport {
  std::vector<std::string> order;  // surviving vantage names, sorted
  std::vector<std::string> lost;   // lost vantage names, sorted
  std::vector<VantageSummary> vantages;  // in `order`
  std::vector<DisagreementRow> rows;     // code order, >=2 vantages each
  int64_t countries_compared = 0;
  int64_t countries_disagreeing = 0;

  friend bool operator==(const MultiVantageReport&,
                         const MultiVantageReport&) = default;
};

// Folds surviving summaries into the disagreement analysis. Sorts by
// vantage name first, so the result — and its JSON/text renderings — is
// independent of completion order, restart history, and the order the
// caller collected the summaries in.
MultiVantageReport MergeVantageSummaries(std::vector<VantageSummary> summaries,
                                         std::vector<std::string> lost);

// The parent side of the protocol: loads the vantage frame of every shard
// the supervisor did not lose, from VantageJournalDir(ckpt_root, name) under
// VantageJournalFingerprint, and merges them. A shard that exited cleanly
// but left no readable frame counts as lost, never as a partial view.
// `study_fingerprint` is StudyInputsFingerprint of the shards' inputs.
MultiVantageReport CollectVantages(const std::vector<VantageOutcome>& outcomes,
                                   const std::string& ckpt_root,
                                   uint64_t world_fingerprint,
                                   uint64_t study_fingerprint);

// Byte-stable JSON document for the merged report (diagnostic outcome
// fields excluded by construction — they never enter the merge).
std::string ExportMultiVantageJson(const MultiVantageReport& report);

// Renders the "-- cross-vantage disagreement --" section.
void PrintMultiVantageReport(const MultiVantageReport& report,
                             std::ostream& os);

}  // namespace govdns::core
