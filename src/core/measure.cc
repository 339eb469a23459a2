#include "core/measure.h"

#include <algorithm>
#include <atomic>
#include <set>

#include "core/cut_cache.h"
#include "core/watchdog.h"
#include "util/pool.h"

namespace govdns::core {

const char* QuarantineReasonName(QuarantineReason reason) {
  switch (reason) {
    case QuarantineReason::kNone: return "none";
    case QuarantineReason::kHang: return "hang";
    case QuarantineReason::kBlackhole: return "blackhole";
    case QuarantineReason::kBudgetExceeded: return "budget_exceeded";
    case QuarantineReason::kWatchdogCancelled: return "watchdog_cancelled";
    case QuarantineReason::kVantageLost: return "vantage_lost";
  }
  return "unknown";
}

std::vector<geo::IPv4> MeasurementResult::NsAddresses() const {
  std::vector<geo::IPv4> out;
  for (const NsHostResult& h : hosts) {
    out.insert(out.end(), h.addresses.begin(), h.addresses.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<dns::Name> MeasurementResult::AllNs() const {
  std::set<dns::Name> names(parent_ns.begin(), parent_ns.end());
  names.insert(child_ns.begin(), child_ns.end());
  return {names.begin(), names.end()};
}

ActiveMeasurer::ActiveMeasurer(dns::QueryTransport* transport,
                               std::vector<geo::IPv4> root_hints,
                               ResolverOptions resolver_options,
                               MeasurerOptions options)
    : transport_(transport),
      roots_(std::move(root_hints)),
      resolver_options_(resolver_options),
      shared_cache_(std::make_unique<SharedCutCache>()),
      options_(options) {
  GOVDNS_CHECK(transport != nullptr);
  GOVDNS_CHECK(!roots_.empty());
  resolver_options_.shared_cache = shared_cache_.get();
  if (options_.obs != nullptr) {
    shared_cache_->set_trace_log(&options_.obs->cut_log());
  }
}

ActiveMeasurer::~ActiveMeasurer() = default;

// Well-known measurement metrics. Everything here is kStable: per-domain
// query_stats and logical_ms are pure functions of (world seed, domain), so
// their sums and histograms are worker-count independent by construction.
struct ActiveMeasurer::MetricIds {
  int domains;
  int degraded;
  int second_rounds;
  int queries;
  int retries;
  int timeouts;
  int backoff_ms;
  int breaker_skips;
  int negative_cache_hits;
  int budget_denied;
  int deadline_denied;
  int quarantined;
  int quarantined_hang;
  int quarantined_blackhole;
  int quarantined_budget;
  int quarantined_watchdog;
  int quarantined_vantage_lost;
  int h_queries;
  int h_logical;

  static MetricIds Declare(obs::MetricsRegistry& m) {
    MetricIds ids;
    ids.domains = m.DeclareCounter("measure.domains");
    ids.degraded = m.DeclareCounter("measure.degraded_domains");
    ids.second_rounds = m.DeclareCounter("measure.second_rounds");
    ids.queries = m.DeclareCounter("measure.queries");
    ids.retries = m.DeclareCounter("measure.retries");
    ids.timeouts = m.DeclareCounter("measure.timeouts");
    ids.backoff_ms = m.DeclareCounter("measure.backoff_ms");
    ids.breaker_skips = m.DeclareCounter("measure.breaker_skips");
    ids.negative_cache_hits = m.DeclareCounter("measure.negative_cache_hits");
    ids.budget_denied = m.DeclareCounter("measure.budget_denied");
    ids.deadline_denied = m.DeclareCounter("measure.deadline_denied");
    ids.quarantined = m.DeclareCounter("measure.quarantined_domains");
    ids.quarantined_hang = m.DeclareCounter("measure.quarantined_hang");
    ids.quarantined_blackhole =
        m.DeclareCounter("measure.quarantined_blackhole");
    ids.quarantined_budget =
        m.DeclareCounter("measure.quarantined_budget_exceeded");
    // Watchdog cancellations are wall-clock-driven, hence diagnostic.
    ids.quarantined_watchdog = m.DeclareCounter(
        "measure.quarantined_watchdog", obs::Determinism::kDiagnostic);
    // Only the supervisor's merge ever assigns kVantageLost; a live
    // measurer observing one means a journaled placeholder was replayed.
    ids.quarantined_vantage_lost =
        m.DeclareCounter("measure.quarantined_vantage_lost");
    ids.h_queries = m.DeclareHistogram("measure.queries_per_domain");
    ids.h_logical = m.DeclareHistogram("measure.logical_ms_per_domain");
    return ids;
  }

  void Observe(obs::MetricsShard& shard, const MeasurementResult& r) const {
    shard.Add(domains, 1);
    if (r.degraded) shard.Add(degraded, 1);
    if (r.rounds > 1) shard.Add(second_rounds, 1);
    shard.Add(queries, r.query_stats.queries);
    shard.Add(retries, r.query_stats.retries);
    shard.Add(timeouts, r.query_stats.timeouts);
    shard.Add(backoff_ms, r.query_stats.backoff_ms);
    shard.Add(breaker_skips, r.query_stats.breaker_skips);
    shard.Add(negative_cache_hits, r.query_stats.negative_cache_hits);
    shard.Add(budget_denied, r.query_stats.budget_denied);
    shard.Add(deadline_denied, r.query_stats.deadline_denied);
    switch (r.quarantine_reason) {
      case QuarantineReason::kNone:
        break;
      case QuarantineReason::kHang:
        shard.Add(quarantined, 1);
        shard.Add(quarantined_hang, 1);
        break;
      case QuarantineReason::kBlackhole:
        shard.Add(quarantined, 1);
        shard.Add(quarantined_blackhole, 1);
        break;
      case QuarantineReason::kBudgetExceeded:
        shard.Add(quarantined, 1);
        shard.Add(quarantined_budget, 1);
        break;
      case QuarantineReason::kWatchdogCancelled:
        shard.Add(quarantined, 1);
        shard.Add(quarantined_watchdog, 1);
        break;
      case QuarantineReason::kVantageLost:
        shard.Add(quarantined, 1);
        shard.Add(quarantined_vantage_lost, 1);
        break;
    }
    shard.Observe(h_queries, r.query_stats.queries);
    shard.Observe(h_logical, r.logical_ms);
  }
};

bool ActiveMeasurer::WantTrace(const dns::Name& domain) const {
  return options_.obs != nullptr &&
         options_.obs->traces().Sampled(domain.ToString());
}

void ActiveMeasurer::PublishCacheGauges() {
  if (options_.obs == nullptr) return;
  obs::MetricsRegistry& m = options_.obs->metrics();
  const CutCacheStats cs = shared_cache_->stats();
  // All diagnostic: hit/miss splits and infra effort depend on which worker
  // warmed the cache first (DESIGN.md §6c).
  using obs::Determinism;
  m.SetGauge("cutcache.size", static_cast<int64_t>(shared_cache_->size()),
             Determinism::kDiagnostic);
  m.SetGauge("cutcache.hits", static_cast<int64_t>(cs.hits),
             Determinism::kDiagnostic);
  m.SetGauge("cutcache.misses", static_cast<int64_t>(cs.misses),
             Determinism::kDiagnostic);
  m.SetGauge("cutcache.negative_hits", static_cast<int64_t>(cs.negative_hits),
             Determinism::kDiagnostic);
  m.SetGauge("cutcache.publishes", static_cast<int64_t>(cs.publishes),
             Determinism::kDiagnostic);
  m.SetGauge("cutcache.negative_publishes",
             static_cast<int64_t>(cs.negative_publishes),
             Determinism::kDiagnostic);
  // Shared negatives hold for the pass, so eviction by the per-stripe bound
  // is the only way one gets re-earned.
  m.SetGauge("cutcache.negative_evictions",
             static_cast<int64_t>(cs.negative_evictions),
             Determinism::kDiagnostic);
  m.SetGauge("cutcache.infra_queries", static_cast<int64_t>(cs.infra.queries),
             Determinism::kDiagnostic);
}

MeasurementResult ActiveMeasurer::Measure(const dns::Name& domain) {
  std::optional<obs::DomainTrace> slot;
  std::optional<obs::DomainTrace>* slot_ptr = WantTrace(domain) ? &slot : nullptr;
  IterativeResolver resolver(transport_, roots_, resolver_options_);
  MeasurementResult result = MeasureWith(resolver, domain, slot_ptr);
  if (slot.has_value()) options_.obs->traces().Fold(std::move(*slot));
  return result;
}

MeasurementResult ActiveMeasurer::MeasureWith(
    IterativeResolver& resolver, const dns::Name& domain,
    std::optional<obs::DomainTrace>* trace_slot) {
  MeasurementResult result;
  result.domain = domain;
  // The scope makes everything below a pure function of (world seed, domain).
  resolver.BeginDomainScope(domain);
  obs::DomainTrace* trace = nullptr;
  if (trace_slot != nullptr) {
    trace_slot->emplace(domain.ToString(),
                        options_.obs->traces().config().max_events_per_domain);
    trace = &trace_slot->value();
    resolver.set_trace(trace);
  }
  // Timed on the domain-scope clock of the transport, so the timing is
  // deterministic like everything else in scope.
  const uint64_t t0 = resolver.now_ms();
  // Charge everything this domain costs — including resolution detours —
  // against one hard budget, and attribute the per-outcome counters to it.
  const ResolverCounters before = resolver.counters();
  resolver.ClearCancelLatch();
  resolver.ArmQueryBudget(options_.max_queries_per_domain);
  // Logical deadline (§6g), armed against the domain-scope clock, so whether
  // it trips is a pure function of (world seed, domain).
  resolver.ArmDeadline(options_.max_logical_ms_per_domain);
  MeasureInternal(resolver, result, trace);
  result.degraded = resolver.BudgetExhausted() || resolver.DeadlineExceeded() ||
                    resolver.WatchdogCancelled();
  result.query_stats = resolver.counters() - before;
  result.logical_ms = resolver.now_ms() - t0;
  // Quarantine classification, from most to least definitive signal. The
  // hang/blackhole split is a client-side heuristic: a domain whose every
  // datagram timed out looks hung end to end, while a mix of delivered and
  // dark exchanges looks blackholed (delivered, then dropped).
  if (resolver.WatchdogCancelled()) {
    result.quarantine_reason = QuarantineReason::kWatchdogCancelled;
  } else if (resolver.DeadlineExceeded()) {
    result.quarantine_reason =
        (result.query_stats.queries > 0 &&
         result.query_stats.timeouts >= result.query_stats.queries)
            ? QuarantineReason::kHang
            : QuarantineReason::kBlackhole;
  } else if (resolver.BudgetExhausted()) {
    result.quarantine_reason = QuarantineReason::kBudgetExceeded;
  }
  if (trace != nullptr &&
      result.quarantine_reason != QuarantineReason::kNone) {
    trace->Record(obs::TraceEventKind::kQuarantined, resolver.now_ms(), 0,
                  static_cast<uint8_t>(result.quarantine_reason));
  }
  resolver.DisarmQueryBudget();
  resolver.DisarmDeadline();
  if (trace != nullptr) resolver.set_trace(nullptr);
  resolver.EndDomainScope();
  return result;
}

void ActiveMeasurer::MeasureInternal(IterativeResolver& resolver,
                                     MeasurementResult& result,
                                     obs::DomainTrace* trace) {
  const dns::Name& domain = result.domain;

  // --- Step 1: find and query the parent zone's servers. ------------------
  auto parent = resolver.FindEnclosingZoneServers(domain);
  if (!parent.ok()) return;  // parent unreachable / unresolvable
  result.parent_located = true;
  result.parent_zone = parent->zone;

  std::set<dns::Name> parent_set;
  std::vector<dns::ResourceRecord> parent_glue;
  for (geo::IPv4 server : parent->addresses) {
    ServerReply reply = resolver.QueryServer(server, domain, dns::RRType::kNS);
    switch (reply.outcome) {
      case QueryOutcome::kTimeout:
      case QueryOutcome::kUnreachable:
      case QueryOutcome::kMalformed:
        continue;
      default:
        result.parent_responded = true;
        break;
    }
    const dns::Message& m = *reply.message;
    if (reply.outcome == QueryOutcome::kReferral) {
      std::set<dns::Name> referral_targets;
      for (const dns::ResourceRecord& rr : m.authority) {
        if (rr.type() == dns::RRType::kNS && rr.name == domain) {
          const dns::Name& target = std::get<dns::NsRdata>(rr.rdata).nameserver;
          parent_set.insert(target);
          referral_targets.insert(target);
        }
      }
      // Bailiwick check: only additional-section A records whose owner is a
      // target of *this* referral's delegation count as glue. Anything else
      // in the additional section (stale data, a misconfigured or hostile
      // server padding unrelated addresses) must not become a nameserver
      // address we measure — or worse, credit to the domain's deployment.
      for (const dns::ResourceRecord& rr : m.additional) {
        if (rr.type() != dns::RRType::kA) continue;
        const uint32_t bits = std::get<dns::ARdata>(rr.rdata).address.bits();
        if (referral_targets.contains(rr.name)) {
          parent_glue.push_back(rr);
          if (trace != nullptr) {
            trace->Record(obs::TraceEventKind::kGlueAccepted,
                          resolver.now_ms(), bits);
          }
        } else if (trace != nullptr) {
          trace->Record(obs::TraceEventKind::kGlueRejected, resolver.now_ms(),
                        bits);
        }
      }
    } else if (reply.outcome == QueryOutcome::kAuthAnswer) {
      // Parent and child on the same servers: the "parent view" is already
      // the child's authoritative data (§IV-D cannot distinguish them).
      result.parent_answered_authoritatively = true;
      for (const dns::ResourceRecord& rr : m.answers) {
        if (rr.type() == dns::RRType::kNS && rr.name == domain) {
          parent_set.insert(std::get<dns::NsRdata>(rr.rdata).nameserver);
        }
      }
    }
    // kAuthNegative / kRefused / kNonAuthAnswer contribute no records.
  }
  result.parent_ns.assign(parent_set.begin(), parent_set.end());
  result.parent_has_records = !result.parent_ns.empty();
  if (!result.parent_has_records) return;

  // Stash referral glue into the resolver-independent host map later; keep
  // a local index for address resolution.
  std::map<dns::Name, std::vector<geo::IPv4>> glue_index;
  for (const dns::ResourceRecord& rr : parent_glue) {
    glue_index[rr.name].push_back(std::get<dns::ARdata>(rr.rdata).address);
  }

  // --- Steps 3-5: query the domain's own servers. --------------------------
  std::set<dns::Name> seen_hosts;
  for (const dns::Name& ns : result.parent_ns) {
    NsHostResult host;
    host.host = ns;
    host.in_parent_set = true;
    if (auto it = glue_index.find(ns); it != glue_index.end()) {
      host.addresses = it->second;
    }
    result.hosts.push_back(std::move(host));
    seen_hosts.insert(ns);
  }

  QueryChildServers(resolver, result);

  // Newly discovered child-side NS hostnames get queried too (step 4). An
  // authoritative answer from one of *those* hosts can itself name servers
  // unseen so far (child servers disagreeing about the NS set), so the
  // expansion iterates until no new hostname appears — bounded, so a
  // misconfigured ring of zones each pointing at fresh names cannot spin.
  auto add_new_child_hosts = [&]() {
    bool added = false;
    for (const dns::Name& ns : result.child_ns) {
      if (seen_hosts.insert(ns).second) {
        NsHostResult host;
        host.host = ns;
        host.in_child_set = true;
        result.hosts.push_back(std::move(host));
        added = true;
      }
    }
    return added;
  };
  auto mark_child_set = [&]() {
    for (NsHostResult& host : result.hosts) {
      if (std::find(result.child_ns.begin(), result.child_ns.end(),
                    host.host) != result.child_ns.end()) {
        host.in_child_set = true;
      }
    }
  };
  constexpr int kMaxExpansions = 3;
  for (int expansion = 0; expansion < kMaxExpansions; ++expansion) {
    if (!add_new_child_hosts()) break;
    QueryChildServers(resolver, result);
  }
  mark_child_set();

  // --- Round 2 (§III-B): parent had records but no child ever answered. ---
  if (options_.second_round && !result.child_any_authoritative) {
    result.rounds = 2;
    if (trace != nullptr) {
      trace->Record(obs::TraceEventKind::kRound2, resolver.now_ms());
    }
    QueryChildServers(resolver, result);
  }
}

void ActiveMeasurer::QueryChildServers(IterativeResolver& resolver,
                                       MeasurementResult& result) {
  for (NsHostResult& host : result.hosts) {
    if (host.status == NsHostStatus::kAuthoritative) continue;

    if (host.addresses.empty()) {
      auto addrs = resolver.ResolveAddresses(host.host);
      if (addrs.ok()) host.addresses = *addrs;
    }
    if (host.addresses.empty()) {
      host.status = NsHostStatus::kUnresolvable;
      continue;
    }

    NsHostStatus best = NsHostStatus::kNoResponse;
    auto better = [](NsHostStatus a, NsHostStatus b) {
      auto rank = [](NsHostStatus s) {
        switch (s) {
          case NsHostStatus::kAuthoritative: return 4;
          case NsHostStatus::kNonAuthoritative: return 3;
          case NsHostStatus::kRefused: return 2;
          case NsHostStatus::kNoResponse: return 1;
          case NsHostStatus::kUnresolvable: return 0;
        }
        return 0;
      };
      return rank(a) > rank(b) ? a : b;
    };

    for (geo::IPv4 addr : host.addresses) {
      ServerReply reply =
          resolver.QueryServer(addr, result.domain, dns::RRType::kNS);
      switch (reply.outcome) {
        case QueryOutcome::kAuthAnswer: {
          best = NsHostStatus::kAuthoritative;
          result.child_any_authoritative = true;
          for (const dns::ResourceRecord& rr : reply.message->answers) {
            if (rr.type() == dns::RRType::kNS && rr.name == result.domain) {
              const dns::Name& target =
                  std::get<dns::NsRdata>(rr.rdata).nameserver;
              if (std::find(result.child_ns.begin(), result.child_ns.end(),
                            target) == result.child_ns.end()) {
                result.child_ns.push_back(target);
              }
            }
          }
          if (options_.collect_soa && !result.soa.has_value()) {
            ServerReply soa_reply =
                resolver.QueryServer(addr, result.domain, dns::RRType::kSOA);
            if (soa_reply.outcome == QueryOutcome::kAuthAnswer) {
              for (const dns::ResourceRecord& rr : soa_reply.message->answers) {
                if (rr.type() == dns::RRType::kSOA) {
                  result.soa = std::get<dns::SoaRdata>(rr.rdata);
                  break;
                }
              }
            }
          }
          break;
        }
        case QueryOutcome::kAuthNegative:
        case QueryOutcome::kNonAuthAnswer:
        case QueryOutcome::kReferral:
          best = better(best, NsHostStatus::kNonAuthoritative);
          break;
        case QueryOutcome::kRefused:
          best = better(best, NsHostStatus::kRefused);
          break;
        case QueryOutcome::kTimeout:
        case QueryOutcome::kUnreachable:
        case QueryOutcome::kMalformed:
          best = better(best, NsHostStatus::kNoResponse);
          break;
      }
      if (best == NsHostStatus::kAuthoritative) break;
    }
    host.status = best;
  }
}

std::vector<MeasurementResult> ActiveMeasurer::MeasureAll(
    std::span<const dns::Name> domains) {
  obs::Observability* obs = options_.obs;
  // Shard over workers with an atomic dispenser. Every domain is measured
  // hermetically, so which worker picks it up cannot change its result —
  // writing into out[i] by input index makes the whole vector byte-identical
  // to a serial run.
  const int workers = util::PoolWorkers(options_.workers, domains.size());

  // Observability mirrors the worker ownership split: each worker updates a
  // private metrics shard (commutative sums, absorbed post-join) and writes
  // each sampled domain's trace into its input-index slot, folded into the
  // ring post-join in input order — both therefore worker-count independent.
  std::optional<MetricIds> ids;
  if (obs != nullptr) ids = MetricIds::Declare(obs->metrics());
  std::vector<std::optional<obs::DomainTrace>> trace_slots(
      obs != nullptr ? domains.size() : 0);
  std::vector<std::unique_ptr<obs::MetricsShard>> worker_shards(workers);

  std::vector<MeasurementResult> out(domains.size());
  std::atomic<size_t> next{0};

  // Wall-clock liveness net (§6g). In pure simulation exchanges always
  // return promptly, so the watchdog never fires and attaching one cannot
  // change the deterministic byte stream; against a genuinely blocking
  // transport it cancels the stalled worker's in-flight domain.
  std::unique_ptr<PhaseWatchdog> watchdog;
  if (options_.watchdog_stall_ms > 0) {
    PhaseWatchdog::Options wd_options;
    wd_options.stall_timeout_ms = options_.watchdog_stall_ms;
    wd_options.poll_interval_ms = options_.watchdog_poll_ms;
    watchdog = std::make_unique<PhaseWatchdog>(workers, wd_options);
  }
  std::vector<std::vector<size_t>> worker_cancelled(workers);

  auto run = [&](int w) {
    IterativeResolver resolver(transport_, roots_, resolver_options_);
    if (watchdog != nullptr) {
      resolver.set_cancel_flag(watchdog->cancel_flag(w));
    }
    std::unique_ptr<obs::MetricsShard> shard =
        ids.has_value() ? obs->metrics().NewShard() : nullptr;
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= domains.size()) break;
      if (watchdog != nullptr) watchdog->Heartbeat(w);
      std::optional<obs::DomainTrace>* slot =
          WantTrace(domains[i]) ? &trace_slots[i] : nullptr;
      out[i] = MeasureWith(resolver, domains[i], slot);
      if (watchdog != nullptr &&
          out[i].quarantine_reason == QuarantineReason::kWatchdogCancelled) {
        // Abandoned mid-flight: remember for the post-join requeue pass and
        // re-arm this worker. Metrics wait until the final verdict.
        worker_cancelled[w].push_back(i);
        watchdog->AckCancel(w);
        continue;
      }
      if (shard != nullptr) ids->Observe(*shard, out[i]);
    }
    worker_shards[w] = std::move(shard);
  };
  util::RunOnPool(workers, run);

  if (watchdog != nullptr) {
    // Requeue every cancelled domain exactly once, serially: the stall that
    // cancelled it may have been another worker's contention, so one retry
    // under a fresh heartbeat is cheap insurance. A domain cancelled twice
    // stays quarantined as kWatchdogCancelled.
    std::vector<size_t> cancelled;
    for (const auto& per_worker : worker_cancelled) {
      cancelled.insert(cancelled.end(), per_worker.begin(), per_worker.end());
    }
    std::sort(cancelled.begin(), cancelled.end());
    if (!cancelled.empty()) {
      IterativeResolver requeue_resolver(transport_, roots_,
                                         resolver_options_);
      requeue_resolver.set_cancel_flag(watchdog->cancel_flag(0));
      std::unique_ptr<obs::MetricsShard> requeue_shard =
          ids.has_value() ? obs->metrics().NewShard() : nullptr;
      for (size_t i : cancelled) {
        watchdog->AckCancel(0);
        std::optional<obs::DomainTrace>* slot =
            WantTrace(domains[i]) ? &trace_slots[i] : nullptr;
        out[i] = MeasureWith(requeue_resolver, domains[i], slot);
        if (requeue_shard != nullptr) ids->Observe(*requeue_shard, out[i]);
      }
      if (requeue_shard != nullptr) obs->metrics().Absorb(*requeue_shard);
    }
    watchdog->Stop();
    if (obs != nullptr) {
      obs->metrics().SetGauge(
          "measure.watchdog_cancels",
          static_cast<int64_t>(watchdog->total_cancels()),
          obs::Determinism::kDiagnostic);
    }
  }

  if (obs != nullptr) {
    for (auto& shard : worker_shards) {
      if (shard != nullptr) obs->metrics().Absorb(*shard);
    }
    for (std::optional<obs::DomainTrace>& slot : trace_slots) {
      if (slot.has_value()) obs->traces().Fold(std::move(*slot));
    }
    PublishCacheGauges();
  }
  return out;
}

}  // namespace govdns::core
