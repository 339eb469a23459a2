#include "core/resolver.h"

#include <algorithm>

#include "core/cut_cache.h"
#include "util/rng.h"

namespace govdns::core {

namespace {
// Salts separating the four deterministic streams engine mode derives from
// names: chaos-context tags and backoff-jitter seeds, each keyed either by a
// zone (shared-cut computation) or by a measured domain (surface queries).
constexpr uint64_t kCutTagSalt = 0x63757454616753ull;      // "cutTagS"
constexpr uint64_t kCutJitterSalt = 0x63757453656564ull;   // "cutSeed"
constexpr uint64_t kDomainTagSalt = 0x646f6d54616753ull;   // "domTagS"
constexpr uint64_t kDomainJitterSalt = 0x646f6d53656564ull; // "domSeed"
}  // namespace

ResolverCounters ResolverCounters::operator-(
    const ResolverCounters& rhs) const {
  ResolverCounters d;
  d.queries = queries - rhs.queries;
  d.retries = retries - rhs.retries;
  d.timeouts = timeouts - rhs.timeouts;
  d.unreachable = unreachable - rhs.unreachable;
  d.refused = refused - rhs.refused;
  d.malformed = malformed - rhs.malformed;
  d.wrong_id = wrong_id - rhs.wrong_id;
  d.truncated = truncated - rhs.truncated;
  d.backoff_ms = backoff_ms - rhs.backoff_ms;
  d.breaker_skips = breaker_skips - rhs.breaker_skips;
  d.negative_cache_hits = negative_cache_hits - rhs.negative_cache_hits;
  d.budget_denied = budget_denied - rhs.budget_denied;
  d.deadline_denied = deadline_denied - rhs.deadline_denied;
  return d;
}

ResolverCounters& ResolverCounters::operator+=(const ResolverCounters& rhs) {
  queries += rhs.queries;
  retries += rhs.retries;
  timeouts += rhs.timeouts;
  unreachable += rhs.unreachable;
  refused += rhs.refused;
  malformed += rhs.malformed;
  wrong_id += rhs.wrong_id;
  truncated += rhs.truncated;
  backoff_ms += rhs.backoff_ms;
  breaker_skips += rhs.breaker_skips;
  negative_cache_hits += rhs.negative_cache_hits;
  budget_denied += rhs.budget_denied;
  deadline_denied += rhs.deadline_denied;
  return *this;
}

IterativeResolver::IterativeResolver(dns::QueryTransport* transport,
                                     std::vector<geo::IPv4> root_hints,
                                     ResolverOptions options)
    : transport_(transport), roots_(std::move(root_hints)), options_(options) {
  GOVDNS_CHECK(transport != nullptr);
  GOVDNS_CHECK(!roots_.empty());
}

void IterativeResolver::ArmQueryBudget(uint64_t max_queries) {
  if (max_queries == 0) {
    budget_remaining_.reset();
  } else {
    budget_remaining_ = max_queries;
  }
  budget_exhausted_ = false;
}

void IterativeResolver::DisarmQueryBudget() { budget_remaining_.reset(); }

void IterativeResolver::ArmDeadline(uint64_t budget_ms) {
  if (budget_ms == 0) {
    deadline_at_ms_.reset();
  } else {
    deadline_at_ms_ = transport_->now_ms() + budget_ms;
  }
  deadline_exceeded_ = false;
}

void IterativeResolver::DisarmDeadline() { deadline_at_ms_.reset(); }

size_t IterativeResolver::open_circuits() const {
  const uint64_t now = transport_->now_ms();
  size_t open = 0;
  for (const auto& [server, health] : health_) {
    if (now < health.open_until_ms) ++open;
  }
  return open;
}

bool IterativeResolver::CircuitOpen(geo::IPv4 server) const {
  if (options_.retry.breaker_threshold <= 0) return false;
  auto it = health_.find(server);
  return it != health_.end() && transport_->now_ms() < it->second.open_until_ms;
}

void IterativeResolver::RecordFailure(geo::IPv4 server) {
  if (options_.retry.breaker_threshold <= 0) return;
  ServerHealth& h = health_[server];
  if (++h.consecutive_failures >= options_.retry.breaker_threshold) {
    h.open_until_ms =
        transport_->now_ms() + options_.retry.breaker_cooldown_ms;
    h.consecutive_failures = 0;  // half-open after cooldown: start fresh
    Trace(obs::TraceEventKind::kBreakerOpen, server.bits());
  }
}

void IterativeResolver::Trace(obs::TraceEventKind kind, uint32_t server,
                              uint8_t aux) {
  if (trace_ != nullptr) {
    trace_->Record(kind, transport_->now_ms(), server, aux);
  }
}

void IterativeResolver::RecordSuccess(geo::IPv4 server) {
  if (options_.retry.breaker_threshold <= 0) return;
  auto it = health_.find(server);
  if (it != health_.end()) health_.erase(it);
}

void IterativeResolver::Backoff(int attempt) {
  const RetryPolicy& p = options_.retry;
  double delay = double(p.initial_backoff_ms);
  for (int i = 1; i < attempt; ++i) delay *= p.backoff_multiplier;
  delay = std::min(delay, double(p.max_backoff_ms));
  if (p.jitter_fraction > 0.0) {
    // Deterministic jitter: shrink the wait by up to jitter_fraction so a
    // retry fleet never synchronizes, without ever waiting longer than the
    // schedule promises.
    double u = double(util::SplitMix64(jitter_state_) >> 11) /
               double(uint64_t{1} << 53);
    delay *= 1.0 - p.jitter_fraction * u;
  }
  uint32_t ms = static_cast<uint32_t>(delay);
  counters_.backoff_ms += ms;
  transport_->Delay(ms);
  Trace(obs::TraceEventKind::kBackoff, 0, static_cast<uint8_t>(attempt));
}

ServerReply IterativeResolver::QueryServer(geo::IPv4 server,
                                           const dns::Name& name,
                                           dns::RRType type) {
  ServerReply reply = QueryServerImpl(server, name, type);
  Trace(obs::TraceEventKind::kOutcome, server.bits(),
        static_cast<uint8_t>(reply.outcome));
  return reply;
}

ServerReply IterativeResolver::QueryServerImpl(geo::IPv4 server,
                                               const dns::Name& name,
                                               dns::RRType type) {
  ServerReply reply;
  reply.server = server;

  // Watchdog cancellation: a wall-clock supervisor asked this worker to
  // abandon its in-flight domain. Checked first and untraced/uncounted in
  // the deterministic stream — it must never change the bytes of a run in
  // which it does not fire.
  if (cancel_flag_ != nullptr &&
      cancel_flag_->load(std::memory_order_relaxed)) {
    watchdog_cancelled_ = true;
    reply.outcome = QueryOutcome::kTimeout;
    return reply;
  }
  if (budget_remaining_ && *budget_remaining_ == 0) {
    budget_exhausted_ = true;
    ++counters_.budget_denied;
    Trace(obs::TraceEventKind::kBudgetDenied, server.bits());
    reply.outcome = QueryOutcome::kTimeout;
    return reply;
  }
  if (deadline_at_ms_ && transport_->now_ms() >= *deadline_at_ms_) {
    deadline_exceeded_ = true;
    ++counters_.deadline_denied;
    Trace(obs::TraceEventKind::kDeadlineDenied, server.bits());
    reply.outcome = QueryOutcome::kTimeout;
    return reply;
  }
  if (CircuitOpen(server)) {
    // A server known-dead within the cooldown window: skip without traffic.
    ++counters_.breaker_skips;
    Trace(obs::TraceEventKind::kBreakerSkip, server.bits());
    reply.outcome = QueryOutcome::kUnreachable;
    return reply;
  }

  const int attempts = std::max(1, options_.retry.max_attempts);
  QueryOutcome failure = QueryOutcome::kTimeout;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (cancel_flag_ != nullptr &&
        cancel_flag_->load(std::memory_order_relaxed)) {
      watchdog_cancelled_ = true;
      break;
    }
    if (budget_remaining_ && *budget_remaining_ == 0) {
      budget_exhausted_ = true;
      ++counters_.budget_denied;
      Trace(obs::TraceEventKind::kBudgetDenied, server.bits());
      break;
    }
    if (deadline_at_ms_ && transport_->now_ms() >= *deadline_at_ms_) {
      deadline_exceeded_ = true;
      ++counters_.deadline_denied;
      Trace(obs::TraceEventKind::kDeadlineDenied, server.bits());
      break;
    }
    if (attempt > 0) {
      ++counters_.retries;
      Backoff(attempt);
    }
    // A fresh transaction id per attempt: a delayed reply to attempt N-1
    // can never validate attempt N.
    dns::Message query = dns::MakeQuery(next_id_++, name, type);
    ++counters_.queries;
    Trace(obs::TraceEventKind::kQuery, server.bits(),
          static_cast<uint8_t>(attempt));
    if (budget_remaining_) --*budget_remaining_;

    auto raw = transport_->Exchange(server, query.Encode());
    if (!raw.ok()) {
      if (raw.status().code() == util::ErrorCode::kUnavailable) {
        // Promptly unreachable (ICMP-style): retrying cannot help.
        ++counters_.unreachable;
        RecordFailure(server);
        reply.outcome = QueryOutcome::kUnreachable;
        return reply;
      }
      ++counters_.timeouts;
      RecordFailure(server);
      failure = QueryOutcome::kTimeout;
      continue;
    }
    auto msg = dns::Message::Decode(*raw);
    if (!msg.ok()) {
      // Garbage datagram: counts like loss and consumes a retry. The
      // endpoint did emit bytes, so the reachability breaker is untouched.
      ++counters_.malformed;
      failure = QueryOutcome::kMalformed;
      continue;
    }
    if (msg->header.id != query.header.id ||
        (!msg->questions.empty() && msg->questions[0] != query.questions[0])) {
      // Off-path spoof / NAT rewrite: discard like a real resolver would
      // and keep waiting (here: retry).
      ++counters_.wrong_id;
      failure = QueryOutcome::kMalformed;
      continue;
    }
    if (msg->header.tc) {
      // Truncated over UDP with no TCP fallback in the measurement path:
      // the payload is unusable, treat like loss.
      ++counters_.truncated;
      failure = QueryOutcome::kMalformed;
      continue;
    }

    RecordSuccess(server);
    reply.message = *std::move(msg);
    const dns::Message& m = *reply.message;
    switch (m.header.rcode) {
      case dns::Rcode::kNoError:
        if (!m.answers.empty()) {
          reply.outcome = m.header.aa ? QueryOutcome::kAuthAnswer
                                      : QueryOutcome::kNonAuthAnswer;
        } else if (m.IsReferral()) {
          reply.outcome = QueryOutcome::kReferral;
        } else {
          reply.outcome = m.header.aa ? QueryOutcome::kAuthNegative
                                      : QueryOutcome::kNonAuthAnswer;
        }
        return reply;
      case dns::Rcode::kNxDomain:
        reply.outcome = QueryOutcome::kAuthNegative;
        return reply;
      default:
        ++counters_.refused;
        reply.outcome = QueryOutcome::kRefused;
        return reply;
    }
  }
  reply.outcome = failure;  // exhausted attempts: kTimeout or kMalformed
  reply.message.reset();
  return reply;
}

std::optional<dns::Name> IterativeResolver::ReferralCut(
    const dns::Message& msg) {
  for (const dns::ResourceRecord& rr : msg.authority) {
    if (rr.type() == dns::RRType::kNS) return rr.name;
  }
  return std::nullopt;
}

util::StatusOr<std::vector<geo::IPv4>> IterativeResolver::AddressesForNs(
    const std::vector<dns::Name>& ns_names,
    const std::vector<dns::ResourceRecord>& glue, int depth_budget) {
  std::vector<geo::IPv4> out;
  std::vector<dns::Name> need_lookup;
  for (const dns::Name& ns : ns_names) {
    bool found_glue = false;
    for (const dns::ResourceRecord& rr : glue) {
      if (rr.type() == dns::RRType::kA && rr.name == ns) {
        out.push_back(std::get<dns::ARdata>(rr.rdata).address);
        found_glue = true;
      }
    }
    if (!found_glue) need_lookup.push_back(ns);
  }
  // Glueless targets: full resolution, bounded by depth.
  if (depth_budget > 0) {
    for (const dns::Name& ns : need_lookup) {
      if (!out.empty() && out.size() >= 13) break;
      auto addrs = ResolveAddressesInternal(ns, depth_budget - 1);
      if (addrs.ok()) {
        out.insert(out.end(), addrs->begin(), addrs->end());
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  if (out.empty()) return util::NotFoundError("no addresses for NS set");
  return out;
}

void IterativeResolver::CacheUnreachable(const dns::Name& cut,
                                         std::vector<dns::Name> ns_names) {
  const uint64_t now = transport_->now_ms();
  if (options_.max_negative_cuts > 0 && cut_cache_.count(cut) == 0) {
    size_t negatives = 0;
    for (const auto& [name, cached] : cut_cache_) {
      if (!cached.reachable) ++negatives;
    }
    // Evict expired negatives first; if every negative is still live, drop
    // the earliest-expiring one. Map order makes the tie-break (first in
    // name order) deterministic.
    while (negatives >= options_.max_negative_cuts) {
      auto victim = cut_cache_.end();
      for (auto it = cut_cache_.begin(); it != cut_cache_.end(); ++it) {
        if (it->second.reachable) continue;
        if (it->second.expires_ms <= now) {
          victim = it;
          break;
        }
        if (victim == cut_cache_.end() ||
            it->second.expires_ms < victim->second.expires_ms) {
          victim = it;
        }
      }
      if (victim == cut_cache_.end()) break;
      cut_cache_.erase(victim);
      --negatives;
    }
  }
  CachedCut entry;
  entry.ns_names = std::move(ns_names);
  entry.reachable = false;
  entry.expires_ms = now + options_.negative_cache_ttl_ms;
  cut_cache_[cut] = std::move(entry);
}

IterativeResolver::InfraScope::InfraScope(IterativeResolver& r,
                                          const dns::Name& zone)
    : r_(r),
      saved_counters_(r.counters_),
      saved_jitter_state_(r.jitter_state_),
      saved_budget_remaining_(r.budget_remaining_),
      saved_budget_exhausted_(r.budget_exhausted_),
      saved_deadline_at_ms_(r.deadline_at_ms_),
      saved_deadline_exceeded_(r.deadline_exceeded_),
      saved_health_(std::move(r.health_)),
      saved_trace_(r.trace_) {
  // Shared-cut computation is never traced into the active domain's log:
  // whether this step runs at all depends on cache state, i.e. scheduling.
  r.trace_ = nullptr;
  r.counters_ = ResolverCounters{};
  const std::string zone_text = zone.ToString();
  r.jitter_state_ = util::HashString(zone_text, kCutJitterSalt);
  // Shared-cut probes run unbudgeted: a domain's armed budget must not leak
  // into (or be consumed by) cache computation another domain may reuse.
  r.budget_remaining_.reset();
  r.budget_exhausted_ = false;
  // Same for the deadline: the infra step has its own hermetic clock, and a
  // domain's deadline must not bound cache computation other domains reuse.
  r.deadline_at_ms_.reset();
  r.deadline_exceeded_ = false;
  r.health_.clear();
  r.transport_->PushChaosContext(util::HashString(zone_text, kCutTagSalt));
}

IterativeResolver::InfraScope::~InfraScope() {
  r_.transport_->PopChaosContext();
  r_.options_.shared_cache->ChargeInfra(r_.counters_);
  r_.counters_ = saved_counters_;
  r_.jitter_state_ = saved_jitter_state_;
  r_.budget_remaining_ = saved_budget_remaining_;
  r_.budget_exhausted_ = saved_budget_exhausted_;
  r_.deadline_at_ms_ = saved_deadline_at_ms_;
  r_.deadline_exceeded_ = saved_deadline_exceeded_;
  r_.health_ = std::move(saved_health_);
  r_.trace_ = saved_trace_;
}

void IterativeResolver::BeginDomainScope(const dns::Name& domain) {
  GOVDNS_CHECK(!domain_scope_active_);
  domain_scope_active_ = true;
  // Per-domain state is reseeded so nothing from previously measured domains
  // (breaker verdicts, jitter-stream position) can influence this one.
  // Cross-domain dead-server memory is instead delegated to the shared
  // negative cut cache.
  health_.clear();
  const std::string domain_text = domain.ToString();
  jitter_state_ = util::HashString(domain_text, kDomainJitterSalt);
  transport_->PushChaosContext(util::HashString(domain_text, kDomainTagSalt));
}

void IterativeResolver::EndDomainScope() {
  GOVDNS_CHECK(domain_scope_active_);
  domain_scope_active_ = false;
  transport_->PopChaosContext();
}

util::StatusOr<IterativeResolver::ZoneServers>
IterativeResolver::WalkToZoneShared(const dns::Name& name, bool stop_above,
                                    int depth_budget) {
  if (depth_budget <= 0) return util::InternalError("resolution depth");
  SharedCutCache& cache = *options_.shared_cache;

  ZoneServers current;
  current.zone = dns::Name::Root();
  current.addresses = roots_;

  // Start from the deepest cached ancestor. A dead subtree fails the walk
  // immediately: shared negatives hold for the whole pass, because a
  // hermetic re-probe would only reproduce the identical verdict (see
  // SharedCutCache).
  const size_t max_count = name.LabelCount() - (stop_above ? 1 : 0);
  for (size_t count = max_count; count > 0; --count) {
    auto entry = cache.Lookup(name.Suffix(count));
    if (!entry.has_value()) continue;
    if (!entry->reachable) {
      ++counters_.negative_cache_hits;
      Trace(obs::TraceEventKind::kNegativeCacheHit);
      return util::UnavailableError("cached-unreachable zone at " +
                                    name.Suffix(count).ToString());
    }
    current.zone = name.Suffix(count);
    current.ns_names = std::move(entry->ns_names);
    current.addresses = std::move(entry->addresses);
    break;
  }

  for (int hop = 0; hop < options_.max_referrals; ++hop) {
    // One referral-resolution step, computed hermetically: inside the scope
    // every draw, clock tick and breaker verdict is a pure function of
    // (world seed, current zone, the cut being descended into) — so racing
    // workers that probe the same cut publish byte-identical entries, and
    // the step's cost lands on the cache's infra counters, not this domain.
    bool dead = false, direct = false, lame = false, stop_here = false;
    bool cut_unresolvable = false;
    dns::Name cut;
    std::vector<dns::Name> ns_names;
    std::vector<geo::IPv4> addrs;
    {
      InfraScope scope(*this, current.zone);
      ServerReply usable;
      bool have_usable = false;
      for (geo::IPv4 server : current.addresses) {
        ServerReply r = QueryServer(server, name, dns::RRType::kNS);
        if (r.outcome == QueryOutcome::kReferral ||
            r.outcome == QueryOutcome::kAuthAnswer ||
            r.outcome == QueryOutcome::kAuthNegative ||
            r.outcome == QueryOutcome::kNonAuthAnswer) {
          usable = std::move(r);
          have_usable = true;
          break;
        }
      }
      if (!have_usable) {
        dead = true;
      } else if (usable.outcome != QueryOutcome::kReferral) {
        direct = true;
      } else {
        auto c = ReferralCut(*usable.message);
        if (!c || !name.IsSubdomainOf(*c) ||
            !c->IsProperSubdomainOf(current.zone)) {
          lame = true;
        } else if (stop_above && *c == name) {
          stop_here = true;
        } else {
          cut = *c;
          for (const dns::ResourceRecord& rr : usable.message->authority) {
            if (rr.type() == dns::RRType::kNS && rr.name == cut) {
              ns_names.push_back(std::get<dns::NsRdata>(rr.rdata).nameserver);
            }
          }
          auto a = AddressesForNs(ns_names, usable.message->additional,
                                  depth_budget - 1);
          if (!a.ok()) {
            cut_unresolvable = true;
          } else {
            addrs = *std::move(a);
          }
        }
      }
    }
    if (dead) {
      if (watchdog_cancelled_) {
        // Abandoned by the wall-clock watchdog, not refused by the zone:
        // "dead" is a scheduling artifact here. Publishing it would poison
        // the shared cache for every worker for the rest of the pass — and
        // turn the requeue-once retry into an instant negative-cache hit.
        // Fail this walk verdict-free and uncounted, like every other
        // cancellation effect.
        return util::UnavailableError("walk cancelled under " +
                                      current.zone.ToString());
      }
      // Never negatively cache the root: a transiently dark root would
      // poison every later walk, for every worker, for the whole pass.
      if (!current.zone.IsRoot()) {
        cache.PublishUnreachable(current.zone, current.ns_names);
      }
      // Uniform accounting: the domain whose walk probed the dead subtree
      // and the domains that later hit the cached negative each record
      // exactly one negative_cache_hit, so per-domain stats do not depend
      // on which worker got there first.
      ++counters_.negative_cache_hits;
      Trace(obs::TraceEventKind::kNegativeCacheHit);
      return util::UnavailableError("servers of " + current.zone.ToString() +
                                    " unresponsive");
    }
    if (direct) return current;
    if (lame) {
      return util::ParseError("lame referral from " + current.zone.ToString());
    }
    if (stop_here) {
      // The next zone down *is* the name: current servers are its parent's.
      // Not published — the entry is created on demand by walks that need
      // to descend *through* this cut rather than stop at it.
      return current;
    }
    if (cut_unresolvable) {
      if (watchdog_cancelled_) {
        return util::UnavailableError("walk cancelled under " +
                                      cut.ToString());
      }
      cache.PublishUnreachable(cut, ns_names);
      ++counters_.negative_cache_hits;
      Trace(obs::TraceEventKind::kNegativeCacheHit);
      return util::UnavailableError("unresolvable delegation at " +
                                    cut.ToString());
    }
    SharedCutCache::Entry entry;
    entry.ns_names = ns_names;
    entry.addresses = addrs;
    cache.Publish(cut, std::move(entry));
    current.zone = std::move(cut);
    current.ns_names = std::move(ns_names);
    current.addresses = std::move(addrs);
  }
  return util::InternalError("referral chain too long for " + name.ToString());
}

util::StatusOr<IterativeResolver::ZoneServers> IterativeResolver::WalkToZone(
    const dns::Name& name, bool stop_above, int depth_budget) {
  if (options_.shared_cache != nullptr) {
    return WalkToZoneShared(name, stop_above, depth_budget);
  }
  if (depth_budget <= 0) return util::InternalError("resolution depth");

  ZoneServers current;
  current.zone = dns::Name::Root();
  current.addresses = roots_;

  // Start from the deepest cached ancestor zone (proper ancestor when the
  // caller wants to stop above the name itself). A cached-unreachable
  // ancestor that has not expired fails the walk immediately: the dead
  // subtree was already paid for once.
  const size_t max_count = name.LabelCount() - (stop_above ? 1 : 0);
  for (size_t count = max_count; count > 0; --count) {
    auto it = cut_cache_.find(name.Suffix(count));
    if (it == cut_cache_.end()) continue;
    if (it->second.reachable) {
      current.zone = name.Suffix(count);
      current.ns_names = it->second.ns_names;
      current.addresses = it->second.addresses;
      break;
    }
    if (transport_->now_ms() < it->second.expires_ms) {
      ++counters_.negative_cache_hits;
      Trace(obs::TraceEventKind::kNegativeCacheHit);
      return util::UnavailableError("cached-unreachable zone at " +
                                    it->first.ToString());
    }
    cut_cache_.erase(it);  // negative entry expired: try the subtree again
  }

  for (int hop = 0; hop < options_.max_referrals; ++hop) {
    ServerReply usable;
    bool have_usable = false;
    for (geo::IPv4 server : current.addresses) {
      ServerReply r = QueryServer(server, name, dns::RRType::kNS);
      if (r.outcome == QueryOutcome::kReferral ||
          r.outcome == QueryOutcome::kAuthAnswer ||
          r.outcome == QueryOutcome::kAuthNegative ||
          r.outcome == QueryOutcome::kNonAuthAnswer) {
        usable = std::move(r);
        have_usable = true;
        break;
      }
    }
    if (!have_usable) {
      // Remember the dead zone (never the root: a transiently dark root
      // would poison every later walk for the whole cooldown; never a
      // verdict produced by a spent budget or a watchdog cancellation —
      // those say nothing about the zone).
      if (!current.zone.IsRoot() && !budget_exhausted_ &&
          !watchdog_cancelled_) {
        CacheUnreachable(current.zone, current.ns_names);
      }
      return util::UnavailableError("servers of " + current.zone.ToString() +
                                    " unresponsive");
    }
    if (usable.outcome != QueryOutcome::kReferral) {
      // The current zone's servers answered directly (they host the target
      // zone too, or the name does not exist): the walk ends here.
      return current;
    }

    auto cut = ReferralCut(*usable.message);
    if (!cut || !name.IsSubdomainOf(*cut) ||
        !cut->IsProperSubdomainOf(current.zone)) {
      return util::ParseError("lame referral from " + current.zone.ToString());
    }
    if (stop_above && *cut == name) {
      // The next zone down *is* the name: current servers are its parent's.
      return current;
    }
    std::vector<dns::Name> ns_names;
    for (const dns::ResourceRecord& rr : usable.message->authority) {
      if (rr.type() == dns::RRType::kNS && rr.name == *cut) {
        ns_names.push_back(std::get<dns::NsRdata>(rr.rdata).nameserver);
      }
    }
    auto addrs =
        AddressesForNs(ns_names, usable.message->additional, depth_budget - 1);
    if (!addrs.ok()) {
      if (!watchdog_cancelled_) CacheUnreachable(*cut, ns_names);
      return util::UnavailableError("unresolvable delegation at " +
                                    cut->ToString());
    }
    current.zone = *cut;
    current.ns_names = ns_names;
    current.addresses = *addrs;
    cut_cache_[*cut] = CachedCut{ns_names, *addrs, true, 0};
  }
  return util::InternalError("referral chain too long for " + name.ToString());
}

util::StatusOr<std::vector<dns::ResourceRecord>> IterativeResolver::Resolve(
    const dns::Name& name, dns::RRType type) {
  return ResolveInternal(name, type, options_.max_referrals);
}

util::StatusOr<std::vector<dns::ResourceRecord>>
IterativeResolver::ResolveInternal(const dns::Name& name, dns::RRType type,
                                   int depth_budget) {
  auto zone = WalkToZone(name, /*stop_above=*/false, depth_budget);
  if (!zone.ok()) return zone.status();
  for (geo::IPv4 server : zone->addresses) {
    ServerReply r = QueryServer(server, name, type);
    switch (r.outcome) {
      case QueryOutcome::kAuthAnswer:
      case QueryOutcome::kNonAuthAnswer:
        return r.message->answers;
      case QueryOutcome::kAuthNegative:
        return std::vector<dns::ResourceRecord>{};
      case QueryOutcome::kReferral: {
        // A referral here means WalkToZone's terminal server also serves a
        // deeper zone cut for other names; rare, treat next server.
        continue;
      }
      default:
        continue;
    }
  }
  return util::UnavailableError("no server answered for " + name.ToString());
}

util::StatusOr<std::vector<geo::IPv4>> IterativeResolver::ResolveAddresses(
    const dns::Name& host) {
  return ResolveAddressesInternal(host, options_.max_referrals);
}

util::StatusOr<std::vector<geo::IPv4>>
IterativeResolver::ResolveAddressesInternal(const dns::Name& host,
                                            int depth_budget) {
  if (depth_budget <= 0) return util::InternalError("resolution depth");
  dns::Name current = host;
  for (int hop = 0; hop <= options_.max_cname_chain; ++hop) {
    auto records = ResolveInternal(current, dns::RRType::kA, depth_budget - 1);
    if (!records.ok()) return records.status();
    std::vector<geo::IPv4> addrs;
    std::optional<dns::Name> cname;
    for (const dns::ResourceRecord& rr : *records) {
      if (rr.type() == dns::RRType::kA) {
        addrs.push_back(std::get<dns::ARdata>(rr.rdata).address);
      } else if (rr.type() == dns::RRType::kCNAME) {
        cname = std::get<dns::CnameRdata>(rr.rdata).target;
      }
    }
    if (!addrs.empty()) {
      std::sort(addrs.begin(), addrs.end());
      addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
      return addrs;
    }
    if (!cname) return util::NotFoundError("no A records for " + host.ToString());
    current = *cname;
  }
  return util::NotFoundError("CNAME chain too long for " + host.ToString());
}

util::StatusOr<IterativeResolver::ZoneServers>
IterativeResolver::FindEnclosingZoneServers(const dns::Name& name) {
  if (name.IsRoot()) return util::InvalidArgumentError("root has no parent");
  return WalkToZone(name, /*stop_above=*/true, options_.max_referrals);
}

}  // namespace govdns::core
