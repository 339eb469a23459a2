// A zone-cut + negative cache shared by a fleet of resolvers.
//
// The standalone resolver (seed selection, govdns_dig) keeps a private cut
// cache. The measurement workers each own a resolver but share this cache,
// so gov.cn's servers are resolved once per run, not once per worker.
// Entries are striped across independently-locked maps by name hash —
// lookups for unrelated zones never contend.
//
// Concurrency model: optimistic compute, last-publish-wins. There is no
// claim/wait protocol: two workers that race on a cold cut both compute it
// and both publish. Because every cut computation runs in a hermetic chaos
// context keyed by the cut's parent zone (see IterativeResolver), the racers
// draw identical network weather and publish identical entries, so the race
// costs duplicate *infrastructure* queries but can never change the cache's
// contents or any per-domain measurement outcome. Blocking single-flight was
// rejected deliberately: circular glueless NS dependencies (zone A's servers
// named under zone B and vice versa) would deadlock a claim-and-wait design.
//
// Accounting: queries spent computing shared entries ("infrastructure"
// effort) are charged here via ChargeInfra, not to the triggering domain.
// That keeps per-domain query_stats — and therefore the study's resilience
// report — a pure function of (world seed, domain), byte-identical no matter
// how many workers share the cache or which of them warmed it.
//
// Negatives are pass-lived: a dead-subtree entry holds until the cache is
// cleared or destroyed, or until the per-stripe bound evicts it. It carries
// no expiry because no clock could judge one. Every domain and every cut
// computation runs on its own hermetic chaos clock, each starting at a
// tag-derived offset up to ~17 minutes, so comparing a reader's clock with
// a stamp from the publisher's clock is a pseudo-random verdict, not time.
// Nothing is lost by holding: a re-probe runs in the cut's hermetic scope
// and reproduces the identical negative, and the domain records one
// negative_cache_hit either way (DESIGN.md §6c). The standalone resolver's
// private cache runs on one clock and keeps its TTL.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "core/resolver.h"
#include "dns/name.h"
#include "geo/ipv4.h"
#include "obs/trace.h"

namespace govdns::core {

// The lookup and publish counters, which each stripe keeps under its lock.
struct CutCacheCounts {
  uint64_t hits = 0;             // positive entries served
  uint64_t misses = 0;
  uint64_t negative_hits = 0;    // dead-subtree entries served
  uint64_t publishes = 0;
  uint64_t negative_publishes = 0;
  uint64_t negative_evictions = 0;  // negatives dropped by the per-stripe bound
};

struct CutCacheStats : CutCacheCounts {
  // Query effort spent computing shared entries (cold walks, glueless NS
  // resolution, dead-subtree probing). Reported as a diagnostic alongside —
  // never inside — the per-domain resilience totals: cold-start races make
  // it scheduling-dependent by a few duplicate walks.
  ResolverCounters infra;
};

class SharedCutCache {
 public:
  struct Entry {
    std::vector<dns::Name> ns_names;
    std::vector<geo::IPv4> addresses;
    bool reachable = true;  // false: remembering a dead subtree

    friend bool operator==(const Entry&, const Entry&) = default;
  };

  // `max_negatives_per_stripe` bounds how many dead-subtree entries a stripe
  // retains; publishing past the bound evicts the stripe's canonically
  // smallest negative. The bound keeps a very long pass from accumulating
  // negatives without limit. Eviction is outcome-neutral for per-domain
  // results: re-probing an evicted dead subtree costs infra-charged queries
  // and one negative_cache_hit per domain, exactly like a warm negative
  // (uniform accounting, DESIGN.md §6c).
  explicit SharedCutCache(size_t stripes = 16,
                          size_t max_negatives_per_stripe = 256);

  // Copies the entry out under the stripe lock; counts a hit/miss there.
  std::optional<Entry> Lookup(const dns::Name& cut) const;

  // Publishes (or overwrites) an entry. Racing publishers of the same cut
  // carry identical content by construction, so ordering is immaterial.
  void Publish(const dns::Name& cut, Entry entry);
  // Publishes a dead-subtree entry; it holds for the rest of the pass.
  void PublishUnreachable(const dns::Name& cut,
                          std::vector<dns::Name> ns_names);

  void ChargeInfra(const ResolverCounters& effort);

  // A deterministic (name-sorted) copy of every entry, negatives included.
  // The checkpoint journals TakeChanges deltas instead; Export is the
  // reference the tests fold those deltas against.
  std::vector<std::pair<dns::Name, Entry>> Export() const;

  // Checkpoint support: what changed since the previous call (or since
  // construction), name-sorted, for the journal's per-batch cut-cache delta.
  // It holds every reachable entry published since then, and a tombstone —
  // an Entry with reachable == false and no names or addresses — for every
  // cut that went from reachable to unreachable since then and is now
  // unreachable or evicted. A negative that was never reachable yields
  // nothing, and neither do entries added by Restore. For a cache that
  // started empty, folding the deltas of calls 0..k in order (a later entry
  // wins, a tombstone removes the cut) gives exactly the reachable entries
  // Export() held at call k; after a Restore, the fold also needs the
  // entries restored from. The cost is a clock compare per entry of each
  // stripe written since the last call; a publish only stamps its slot, so
  // nothing grows while no one drains.
  std::vector<std::pair<dns::Name, Entry>> TakeChanges();

  // Bulk restore into an empty-or-warm cache. Restore skips unreachable
  // entries — negatives must never outlive the run that observed them —
  // never overwrites a live entry, and returns the number of entries
  // actually inserted.
  size_t Restore(const std::vector<std::pair<dns::Name, Entry>>& entries);

  // Wires a publish log (not owned; may be null). Raw publish order and
  // multiplicity are scheduling-dependent, but entry *content* is hermetic
  // per zone, so the log's sorted/deduped snapshot is deterministic.
  void set_trace_log(obs::CutTraceLog* log) { trace_log_ = log; }

  size_t size() const;
  // A snapshot: the stripes' counters summed, and the infra effort.
  CutCacheStats stats() const;

 private:
  struct Slot {
    Entry entry;
    // The stripe's write clock at this slot's last publish; 0 for a slot
    // filled by Restore, which is never a change.
    uint64_t written = 0;
  };
  struct Stripe {
    mutable std::mutex mu;
    std::map<dns::Name, Slot> entries;
    // Keys of the unreachable entries, in canonical order: the eviction
    // victim is the first one.
    std::set<dns::Name> negatives;
    // Change tracking for TakeChanges: `clock` counts publishes, `drained`
    // is its value at the last TakeChanges, and `flipped` lists (once each)
    // the cuts that went from reachable to unreachable since then. Flips are
    // rare: a published cut turns dead only when a later walk finds all of
    // its servers unresponsive.
    uint64_t clock = 0;
    uint64_t drained = 0;
    std::vector<dns::Name> flipped;
    // Kept under `mu`, which every lookup and publish holds anyway.
    CutCacheCounts counts;
  };

  Stripe& StripeFor(const dns::Name& cut) const;
  // Under the stripe lock: make room for one more negative by dropping the
  // canonically smallest one if the stripe is full. Returns the number of
  // negatives evicted.
  size_t EvictNegativesLocked(Stripe& stripe);

  std::vector<std::unique_ptr<Stripe>> stripes_;
  size_t max_negatives_per_stripe_;
  mutable std::mutex infra_mu_;
  ResolverCounters infra_;  // guarded by infra_mu_
  obs::CutTraceLog* trace_log_ = nullptr;
};

}  // namespace govdns::core
