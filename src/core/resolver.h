// Iterative DNS resolution over a QueryTransport.
//
// The measurement client needs three capabilities the paper's setup (Fig. 1)
// assumes: locating a domain's parent-zone authoritative servers, resolving
// arbitrary hostnames to IPv4 addresses, and issuing direct queries to
// specific server addresses. All three are built on one iterative walk from
// the root, with a per-resolver zone-cut cache so measuring 150k domains
// does not re-resolve gov.cn's servers 30k times.
//
// Resilience: every server query runs under a RetryPolicy (fresh transaction
// id per attempt, exponential backoff with deterministic jitter charged to
// the transport clock), per-server health tracking opens a circuit breaker
// on repeatedly dead servers, and unreachable zone cuts are negatively
// cached with expiry so one dead subtree cannot eat the whole query budget.
#pragma once

#include <atomic>
#include <map>
#include <optional>
#include <vector>

#include "dns/message.h"
#include "dns/transport.h"
#include "geo/ipv4.h"
#include "obs/trace.h"
#include "util/status.h"

namespace govdns::core {

class SharedCutCache;

// How a single server responded to a single query.
enum class QueryOutcome {
  kAuthAnswer,     // authoritative answer with records for the question
  kAuthNegative,   // authoritative NXDOMAIN / NODATA
  kReferral,       // delegation toward the question
  kNonAuthAnswer,  // records but no AA bit
  kRefused,        // REFUSED/SERVFAIL/NOTIMP rcode
  kTimeout,        // no reply
  kUnreachable,    // nothing at that address
  kMalformed,      // undecodable / spoofed / truncated reply
};

struct ServerReply {
  geo::IPv4 server;
  QueryOutcome outcome = QueryOutcome::kTimeout;
  std::optional<dns::Message> message;
};

// Per-server-query retry schedule. Attempt k (0-based) that fails waits
// backoff = min(max_backoff_ms, initial_backoff_ms * multiplier^k), shrunk
// by up to jitter_fraction via a deterministic draw, before attempt k+1.
// The wait is charged to the transport's logical clock — nothing sleeps.
struct RetryPolicy {
  int max_attempts = 3;            // total attempts per server query
  uint32_t initial_backoff_ms = 200;
  double backoff_multiplier = 2.0;
  uint32_t max_backoff_ms = 3000;
  double jitter_fraction = 0.25;   // deterministic jitter, shrinks the wait

  // Per-server circuit breaker: after this many consecutive timeouts or
  // unreachables the server is skipped (reported kUnreachable without
  // traffic) until cooldown_ms of transport time passes. 0 disables.
  int breaker_threshold = 3;
  uint32_t breaker_cooldown_ms = 60000;

  // The naive pre-retry-engine behaviour: one attempt, no backoff, no
  // breaker. The chaos ablation's "armor off" arm.
  static RetryPolicy Disabled() {
    RetryPolicy p;
    p.max_attempts = 1;
    p.breaker_threshold = 0;
    return p;
  }
};

// Cumulative per-outcome counters. Snapshot-diffable: the measurer charges
// each domain with `after - before` to attribute query effort per domain.
struct ResolverCounters {
  uint64_t queries = 0;        // datagrams actually sent
  uint64_t retries = 0;        // attempts beyond the first
  uint64_t timeouts = 0;
  uint64_t unreachable = 0;
  uint64_t refused = 0;        // REFUSED/SERVFAIL/NOTIMP replies
  uint64_t malformed = 0;      // undecodable datagrams
  uint64_t wrong_id = 0;       // id/question mismatch (discarded)
  uint64_t truncated = 0;      // TC-bit replies (unusable over UDP)
  uint64_t backoff_ms = 0;     // logical time spent backing off
  uint64_t breaker_skips = 0;  // queries suppressed by an open circuit
  uint64_t negative_cache_hits = 0;  // walks cut short by a cached-dead zone
  uint64_t budget_denied = 0;  // queries suppressed by the domain budget
  uint64_t deadline_denied = 0;  // queries suppressed by the domain deadline

  ResolverCounters operator-(const ResolverCounters& rhs) const;
  ResolverCounters& operator+=(const ResolverCounters& rhs);
  friend bool operator==(const ResolverCounters&,
                         const ResolverCounters&) = default;
};

struct ResolverOptions {
  int max_referrals = 24;  // delegation-chain depth bound
  int max_cname_chain = 4;
  RetryPolicy retry;       // per-server-query retry/backoff/health policy
  // How long a zone cut discovered to be unreachable stays negatively
  // cached in the private cut cache (transport-clock ms) before the
  // resolver will try it again. Every private negative carries an explicit
  // expiry derived from the transport's logical clock at discovery time —
  // never a wall clock, and never persisted across runs (checkpoint restore
  // drops negatives, DESIGN.md §6f). The private cache (the standalone
  // resolver's: seed selection, govdns_dig) runs on one clock, so its expiry
  // means time; the shared cache (the measurement workers', below) runs on
  // per-domain hermetic clocks and has no TTL.
  uint32_t negative_cache_ttl_ms = 120000;
  // Bound on negative entries the private cut cache retains. Past the bound
  // CacheUnreachable evicts expired negatives first, then the
  // earliest-expiring live one, so a long or resumed run cannot accumulate
  // stale dead-subtree verdicts without limit. 0 disables the bound.
  size_t max_negative_cuts = 512;

  // The measurement workers' cache: when set, zone cuts are resolved
  // through this shared thread-safe cache instead of the resolver's private
  // one, every cut computation runs in its own hermetic chaos context (keyed
  // by the parent zone, so racing workers compute identical entries), and
  // the query effort it costs is charged to the cache's infrastructure
  // counters rather than to this resolver's — per-domain query_stats then
  // depend only on the world seed and the domain, never on which worker
  // warmed the cache. The caller must keep the cache alive for the
  // resolver's lifetime. With a shared cache the armed query budget caps
  // only the caller-attributed (surface) queries; shared-cut computation is
  // bounded by the cache itself. A shared negative stops every later walk
  // through it for the rest of the pass; negative_cache_ttl_ms and
  // max_negative_cuts do not apply to it.
  SharedCutCache* shared_cache = nullptr;
};

class IterativeResolver {
 public:
  using Options = ResolverOptions;

  IterativeResolver(dns::QueryTransport* transport,
                    std::vector<geo::IPv4> root_hints,
                    ResolverOptions options = ResolverOptions());

  // One query to one server, run under the retry policy. Never throws;
  // outcome explains failures. A malformed / spoofed / truncated datagram
  // counts like loss and consumes a retry; kMalformed is reported only once
  // attempts are exhausted.
  ServerReply QueryServer(geo::IPv4 server, const dns::Name& name,
                          dns::RRType type);

  // Full iterative resolution. Returns the answer records (possibly empty
  // for authoritative NODATA); an unreachable chain yields a non-OK status.
  util::StatusOr<std::vector<dns::ResourceRecord>> Resolve(
      const dns::Name& name, dns::RRType type);

  // Resolve to IPv4 addresses, following CNAMEs.
  util::StatusOr<std::vector<geo::IPv4>> ResolveAddresses(
      const dns::Name& host);

  // The servers of the most specific zone *properly containing* `name` the
  // resolver can reach — i.e. the parent zone's ADNS if `name` is a zone
  // apex. Walks from the root without ever querying `name`'s own servers.
  struct ZoneServers {
    dns::Name zone;                      // zone origin
    std::vector<dns::Name> ns_names;     // its NS set as seen from above
    std::vector<geo::IPv4> addresses;    // resolved server addresses
  };
  util::StatusOr<ZoneServers> FindEnclosingZoneServers(const dns::Name& name);

  // --- Query budget --------------------------------------------------------
  // Hard cap on datagrams sent until DisarmQueryBudget; once spent, further
  // QueryServer calls report kTimeout without traffic and the exhausted
  // flag latches. The measurer arms this per domain.
  void ArmQueryBudget(uint64_t max_queries);
  void DisarmQueryBudget();
  bool BudgetExhausted() const { return budget_exhausted_; }

  // --- Logical deadline (DESIGN.md §6g) ------------------------------------
  // Hard cap on transport-clock time: once now_ms() reaches the armed
  // deadline, further QueryServer calls report kTimeout without traffic and
  // the exceeded flag latches. The measurer arms this per domain; shared-cut
  // computation (InfraScope) runs outside the deadline, like the budget, so
  // infrastructure cost is never charged against a single domain's clock.
  void ArmDeadline(uint64_t budget_ms);
  void DisarmDeadline();
  bool DeadlineExceeded() const { return deadline_exceeded_; }

  // --- Watchdog cancellation -----------------------------------------------
  // While `flag` (owned by the caller) reads true, QueryServer fails fast
  // with kTimeout and the cancelled latch sets. Wall-clock-driven and
  // therefore *not* part of ResolverCounters: it must never influence the
  // deterministic per-domain byte stream. nullptr detaches.
  void set_cancel_flag(const std::atomic<bool>* flag) { cancel_flag_ = flag; }
  bool WatchdogCancelled() const { return watchdog_cancelled_; }
  void ClearCancelLatch() { watchdog_cancelled_ = false; }

  // --- Per-domain hermetic scope (measurement workers) ---------------------
  // Brackets one unit of attributable work (one measured domain): pushes a
  // chaos context derived from `domain` onto the transport and resets the
  // per-domain resolver state (breaker map, backoff jitter stream) to a
  // deterministic function of the domain. Inside the scope, every outcome is
  // a pure function of (world seed, domain, shared-cache semantics) — the
  // foundation of worker-count-independent measurement results.
  void BeginDomainScope(const dns::Name& domain);
  void EndDomainScope();

  // --- Structured tracing --------------------------------------------------
  // While set, every resolver-level decision (attempt, backoff, breaker
  // verdict, negative-cache hit, budget denial, outcome) appends one event,
  // timestamped with the transport's logical clock. Inside a hermetic domain
  // scope the whole event stream is a pure function of (world seed, domain).
  // Shared-cut computation is never traced: InfraScope suppresses the
  // pointer for its extent, because infra interleaving is
  // scheduling-dependent. Caller keeps the trace alive; nullptr disables.
  void set_trace(obs::DomainTrace* trace) { trace_ = trace; }

  // The transport's logical clock (for caller-recorded trace events).
  uint64_t now_ms() const { return transport_->now_ms(); }

  // Statistics for the harness.
  const ResolverCounters& counters() const { return counters_; }
  size_t cache_size() const { return cut_cache_.size(); }
  // Health-tracking introspection: servers currently behind an open breaker.
  size_t open_circuits() const;
  void ClearCache() { cut_cache_.clear(); }
  const Options& options() const { return options_; }

 private:
  struct CachedCut {
    std::vector<dns::Name> ns_names;
    std::vector<geo::IPv4> addresses;
    bool reachable = true;   // false: remembering a dead subtree
    uint64_t expires_ms = 0; // unreachable entries only: retry-after time
  };

  struct ServerHealth {
    int consecutive_failures = 0;
    uint64_t open_until_ms = 0;  // breaker open while now < open_until_ms
  };

  // Walks the delegation chain toward `name`. Returns the deepest zone at
  // or above `name` whose servers could be found, stopping *before*
  // descending into a zone whose apex is `name` itself when
  // `stop_above` is true.
  util::StatusOr<ZoneServers> WalkToZone(const dns::Name& name,
                                         bool stop_above, int depth_budget);

  // Shared-cache walk: same contract as WalkToZone but resolved through the
  // shared cache. Each referral-resolution hop runs inside a hermetic
  // InfraScope keyed by the zone being queried, so the hop's outcome — and
  // the entry it publishes — depends only on (world seed, zone, parent entry
  // content), never on which worker or in which order hops were computed.
  util::StatusOr<ZoneServers> WalkToZoneShared(const dns::Name& name,
                                               bool stop_above,
                                               int depth_budget);

  // RAII bracket for one shared-cache computation step. On entry: pushes a
  // zone-keyed chaos context on the transport and swaps in fresh per-step
  // resolver state (empty breaker map, zone-seeded jitter stream, no armed
  // budget). On exit: charges the step's query effort to the shared cache's
  // infrastructure counters, restores the caller's state, pops the context.
  class InfraScope {
   public:
    InfraScope(IterativeResolver& r, const dns::Name& zone);
    ~InfraScope();
    InfraScope(const InfraScope&) = delete;
    InfraScope& operator=(const InfraScope&) = delete;

   private:
    IterativeResolver& r_;
    ResolverCounters saved_counters_;
    uint64_t saved_jitter_state_;
    std::optional<uint64_t> saved_budget_remaining_;
    bool saved_budget_exhausted_;
    std::optional<uint64_t> saved_deadline_at_ms_;
    bool saved_deadline_exceeded_;
    std::map<geo::IPv4, ServerHealth> saved_health_;
    obs::DomainTrace* saved_trace_;
  };

  // Extracts a referral's target cut and NS records from a message.
  static std::optional<dns::Name> ReferralCut(const dns::Message& msg);

  util::StatusOr<std::vector<geo::IPv4>> AddressesForNs(
      const std::vector<dns::Name>& ns_names,
      const std::vector<dns::ResourceRecord>& glue, int depth_budget);

  // Budgeted internals: the budget bounds mutual recursion through
  // glueless-delegation resolution.
  util::StatusOr<std::vector<dns::ResourceRecord>> ResolveInternal(
      const dns::Name& name, dns::RRType type, int depth_budget);
  util::StatusOr<std::vector<geo::IPv4>> ResolveAddressesInternal(
      const dns::Name& host, int depth_budget);

  // QueryServer body; the public wrapper appends the kOutcome trace event.
  ServerReply QueryServerImpl(geo::IPv4 server, const dns::Name& name,
                              dns::RRType type);

  // Appends a trace event when tracing is active (no-op otherwise).
  void Trace(obs::TraceEventKind kind, uint32_t server = 0, uint8_t aux = 0);

  // Retry/health plumbing.
  bool CircuitOpen(geo::IPv4 server) const;
  void RecordFailure(geo::IPv4 server);   // timeout/unreachable only
  void RecordSuccess(geo::IPv4 server);
  void Backoff(int attempt);              // charges the transport clock
  void CacheUnreachable(const dns::Name& cut, std::vector<dns::Name> ns_names);

  dns::QueryTransport* transport_;
  std::vector<geo::IPv4> roots_;
  Options options_;
  uint16_t next_id_ = 1;
  uint64_t jitter_state_ = 0x6a7e9cb1d2f30e45ull;
  ResolverCounters counters_;
  std::optional<uint64_t> budget_remaining_;
  bool budget_exhausted_ = false;
  std::optional<uint64_t> deadline_at_ms_;
  bool deadline_exceeded_ = false;
  const std::atomic<bool>* cancel_flag_ = nullptr;
  bool watchdog_cancelled_ = false;
  std::map<dns::Name, CachedCut> cut_cache_;
  std::map<geo::IPv4, ServerHealth> health_;
  bool domain_scope_active_ = false;
  obs::DomainTrace* trace_ = nullptr;
};

}  // namespace govdns::core
