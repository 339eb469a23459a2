// Active measurement of a domain's authoritative-DNS deployment — the
// paper's Fig. 1 procedure:
//
//   (1) locate the authoritative servers of the domain's parent zone and
//       query them for the domain's NS records;
//   (2) on a referral (or authoritative answer), collect the parent-side
//       NS set P;
//   (3) query the domain's own authoritative servers for its NS records;
//   (4) combine the child-side NS set C with P;
//   (5) resolve every nameserver hostname in P ∪ C to IPv4 addresses and
//       query each address for the domain's NS records, recording per-host
//       response status.
//
// A second round re-queries domains whose parent returned NS records but
// whose child servers never answered, to rule out transient loss (§III-B).
//
// One measurer: MeasureAll shards the domain list over a worker pool; each
// worker owns a private IterativeResolver but all share one thread-safe
// zone-cut + negative cache owned by the measurer, and every domain is
// measured inside a hermetic per-domain chaos scope, so no breaker verdict
// or jitter draw carries over from one domain to the next. Results land in
// input order and per-domain query_stats are byte-identical for any worker
// count, so the downstream analyses and the resilience report do not depend
// on parallelism. A fresh measurer starts with a fresh cache.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/resolver.h"
#include "dns/rr.h"
#include "obs/obs.h"

namespace govdns::core {

// Condition of one nameserver hostname with respect to one domain.
enum class NsHostStatus {
  kAuthoritative,   // answered the domain's NS query with AA
  kNonAuthoritative,// responded, but without authority (or empty)
  kRefused,         // responded REFUSED/SERVFAIL
  kNoResponse,      // resolved, but no address ever replied
  kUnresolvable,    // hostname has no A records / cannot be resolved
};

struct NsHostResult {
  dns::Name host;
  std::vector<geo::IPv4> addresses;
  NsHostStatus status = NsHostStatus::kUnresolvable;
  bool in_parent_set = false;
  bool in_child_set = false;

  friend bool operator==(const NsHostResult&, const NsHostResult&) = default;
};

// Why a measured domain was quarantined (DESIGN.md §6g). The taxonomy is a
// client-side heuristic over the resolver's counters — the measurement
// vantage point cannot see inside a server that never answers, so "hang" vs
// "blackhole" is inferred from the shape of the failure: a domain whose
// every datagram timed out against a live parent looks hung end to end,
// while a mix of delivered-then-dark exchanges looks blackholed.
enum class QuarantineReason : uint8_t {
  kNone = 0,              // not quarantined
  kHang = 1,              // deadline hit; every query timed out
  kBlackhole = 2,         // deadline hit; some traffic delivered, then dark
  kBudgetExceeded = 3,    // country/phase budget pre-empted the domain
  kWatchdogCancelled = 4, // a stalled worker's in-flight domain was cancelled
  kVantageLost = 5,       // the vantage shard measuring it died for good
};

// The highest QuarantineReason value; codecs bounds-check against it.
inline constexpr uint8_t kMaxQuarantineReason =
    static_cast<uint8_t>(QuarantineReason::kVantageLost);

const char* QuarantineReasonName(QuarantineReason reason);

struct MeasurementResult {
  dns::Name domain;

  // Step 1: the parent zone.
  bool parent_located = false;    // found + reached the parent zone servers
  dns::Name parent_zone;
  bool parent_responded = false;  // >=1 parent server answered the NS query
  bool parent_has_records = false;  // the answer/referral named this domain
  // True when the parent's servers answered authoritatively for the domain
  // itself (parent and child hosted on the same servers).
  bool parent_answered_authoritatively = false;

  std::vector<dns::Name> parent_ns;  // P
  std::vector<dns::Name> child_ns;   // C (union over authoritative answers)
  bool child_any_authoritative = false;

  std::vector<NsHostResult> hosts;  // per hostname in P ∪ C

  std::optional<dns::SoaRdata> soa;  // from an authoritative child server
  int rounds = 1;

  // Resilience bookkeeping: the query effort this domain cost (diffed from
  // the resolver's counters), and whether the per-domain budget cut the
  // measurement short — a degraded result may under-report live servers.
  ResolverCounters query_stats;
  bool degraded = false;
  // Logical (transport-clock) time this measurement consumed. In engine
  // mode a pure function of (world seed, domain), like query_stats.
  uint64_t logical_ms = 0;
  // Degradation verdict: kNone for a healthy measurement, otherwise the
  // reason this domain was cut short and must be read as partial coverage.
  QuarantineReason quarantine_reason = QuarantineReason::kNone;

  // All distinct addresses of the domain's nameservers (for Table I).
  std::vector<geo::IPv4> NsAddresses() const;
  // Convenience: the union P ∪ C.
  std::vector<dns::Name> AllNs() const;

  // Full-field equality: used by the checkpoint tests to prove a journaled
  // result decodes back bit-for-bit.
  friend bool operator==(const MeasurementResult&,
                         const MeasurementResult&) = default;
};

struct MeasurerOptions {
  bool second_round = true;  // re-query silent children (§III-B)
  bool collect_soa = true;
  // Hard cap on datagrams per measured domain (0 = unlimited). When spent,
  // remaining queries fail fast and the result is flagged `degraded`.
  uint64_t max_queries_per_domain = 250;
  // --- Deadline-budget hierarchy (DESIGN.md §6g), all 0 = disabled --------
  // Logical (transport-clock) ms one domain may consume before it is
  // quarantined.
  uint64_t max_logical_ms_per_domain = 0;
  // Logical ms all of one country's domains together may consume; once a
  // country is over budget (as of a batch boundary) its remaining domains
  // are pre-quarantined without traffic. Enforced by Study.
  uint64_t max_logical_ms_per_country = 0;
  // Logical ms the whole measurement phase may consume; past it, remaining
  // batches are pre-quarantined. Enforced by Study at batch granularity so
  // the cutoff is deterministic and worker-count independent.
  uint64_t phase_deadline_logical_ms = 0;
  // Granularity (domains) of study-level budget enforcement and checkpoint
  // journaling when a checkpoint or a country/phase budget is armed (else
  // the whole query list is one batch). 0 = the checkpoint's batch_size
  // when one is attached, else 64. Changing it may move which
  // domains fall past a budget cutoff (each batch's verdicts read only the
  // accumulators of the batches before it), but never changes healthy runs.
  size_t budget_batch_size = 0;
  // Wall-clock watchdog (PhaseWatchdog): a worker that makes no progress
  // heartbeat within this many real ms has its in-flight domain cancelled
  // and requeued once. 0 = no watchdog. Never fires in pure simulation
  // (exchanges always return), so it cannot perturb deterministic runs.
  uint32_t watchdog_stall_ms = 0;
  uint32_t watchdog_poll_ms = 20;
  // Worker threads used by MeasureAll; 0 picks
  // std::thread::hardware_concurrency(). Over a transport that multiplexes
  // I/O (netio::QueryEngine, DESIGN.md §6h) a worker parked in Exchange
  // costs a parked thread, not a socket round-trip, so the count can far
  // exceed the core count to keep the engine's in-flight window full
  // (ZDNS-style lanes). Every domain is measured hermetically, so any
  // count yields the same byte stream.
  int workers = 0;
  // Observability sink (not owned; may be null). When set, the measurer
  // folds per-worker metric shards into obs->metrics(), samples per-domain
  // traces into obs->traces() (folded in input order, so the retained set
  // is worker-count independent), and wires the shared cut cache's publish
  // log to obs->cut_log().
  obs::Observability* obs = nullptr;
};

class ActiveMeasurer {
 public:
  using Options = MeasurerOptions;

  // MeasureAll runs a worker pool over `transport`; workers share one
  // zone-cut cache owned by the measurer. `resolver_options` configures
  // every worker's resolver (its retry policy, say).
  ActiveMeasurer(dns::QueryTransport* transport,
                 std::vector<geo::IPv4> root_hints,
                 ResolverOptions resolver_options = ResolverOptions(),
                 MeasurerOptions options = MeasurerOptions());
  ~ActiveMeasurer();

  MeasurementResult Measure(const dns::Name& domain);

  // Runs Measure over a list (the paper's 147k-domain query list). Results
  // are returned in input order regardless of how work was sharded. The
  // query effort is each result's query_stats (surface queries only — shared
  // cut computation is accounted on the cache itself).
  std::vector<MeasurementResult> MeasureAll(
      std::span<const dns::Name> domains);

  // The workers' shared zone-cut cache. The mutable overload exists for
  // checkpoint warm-start (SharedCutCache::Restore before MeasureAll).
  const SharedCutCache* shared_cache() const { return shared_cache_.get(); }
  SharedCutCache* shared_cache() { return shared_cache_.get(); }

 private:
  // Well-known metric ids, declared once per run on the attached registry.
  struct MetricIds;

  // `trace_slot`, when non-null, receives this domain's event log; the
  // caller owns folding it into the ring (in input order).
  MeasurementResult MeasureWith(IterativeResolver& resolver,
                                const dns::Name& domain,
                                std::optional<obs::DomainTrace>* trace_slot);
  void MeasureInternal(IterativeResolver& resolver, MeasurementResult& result,
                       obs::DomainTrace* trace);
  void QueryChildServers(IterativeResolver& resolver,
                         MeasurementResult& result);
  // True when obs is attached and this domain falls in the trace sample.
  bool WantTrace(const dns::Name& domain) const;
  // Post-run bookkeeping: cut-cache gauges on the attached registry.
  void PublishCacheGauges();

  dns::QueryTransport* transport_;
  std::vector<geo::IPv4> roots_;
  ResolverOptions resolver_options_;
  std::unique_ptr<SharedCutCache> shared_cache_;
  Options options_;
};

}  // namespace govdns::core
