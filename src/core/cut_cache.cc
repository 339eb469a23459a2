#include "core/cut_cache.h"

#include <algorithm>

namespace govdns::core {

namespace {

// Every counter of CutCacheCounts, so stats() sums them as one set.
constexpr uint64_t CutCacheCounts::*kCounters[] = {
    &CutCacheCounts::hits,          &CutCacheCounts::misses,
    &CutCacheCounts::negative_hits, &CutCacheCounts::publishes,
    &CutCacheCounts::negative_publishes,
    &CutCacheCounts::negative_evictions,
};
static_assert(sizeof(kCounters) / sizeof(kCounters[0]) * sizeof(uint64_t) ==
                  sizeof(CutCacheCounts),
              "kCounters must list every CutCacheCounts counter");

// Stripe order depends on the hash layout; name order is canonical.
void SortByName(std::vector<std::pair<dns::Name, SharedCutCache::Entry>>& v) {
  std::sort(v.begin(), v.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

}  // namespace

SharedCutCache::SharedCutCache(size_t stripes, size_t max_negatives_per_stripe)
    : max_negatives_per_stripe_(std::max<size_t>(1, max_negatives_per_stripe)) {
  if (stripes == 0) stripes = 1;
  stripes_.reserve(stripes);
  for (size_t i = 0; i < stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

SharedCutCache::Stripe& SharedCutCache::StripeFor(const dns::Name& cut) const {
  return *stripes_[dns::Name::Hash{}(cut) % stripes_.size()];
}

std::optional<SharedCutCache::Entry> SharedCutCache::Lookup(
    const dns::Name& cut) const {
  Stripe& stripe = StripeFor(cut);
  std::lock_guard lock(stripe.mu);
  auto it = stripe.entries.find(cut);
  if (it == stripe.entries.end()) {
    ++stripe.counts.misses;
    return std::nullopt;
  }
  ++(it->second.entry.reachable ? stripe.counts.hits
                                : stripe.counts.negative_hits);
  return it->second.entry;
}

void SharedCutCache::Publish(const dns::Name& cut, Entry entry) {
  if (trace_log_ != nullptr) {
    trace_log_->Record(cut.ToString(), /*reachable=*/true,
                       static_cast<uint32_t>(entry.ns_names.size()),
                       static_cast<uint32_t>(entry.addresses.size()));
  }
  Stripe& stripe = StripeFor(cut);
  std::lock_guard lock(stripe.mu);
  stripe.negatives.erase(cut);  // a retried cut may have come back to life
  Slot& slot = stripe.entries[cut];
  slot.entry = std::move(entry);
  slot.written = ++stripe.clock;
  ++stripe.counts.publishes;
}

size_t SharedCutCache::EvictNegativesLocked(Stripe& stripe) {
  if (stripe.negatives.size() < max_negatives_per_stripe_) return 0;
  // The victim is the canonically smallest negative: an explicit order, not
  // publish order, so the choice does not depend on which worker published
  // first (pinned by CutCacheCkptTest.NegativeEvictionTiebreakIsStable).
  auto victim = stripe.negatives.begin();
  stripe.entries.erase(*victim);
  stripe.negatives.erase(victim);
  return 1;
}

void SharedCutCache::PublishUnreachable(const dns::Name& cut,
                                        std::vector<dns::Name> ns_names) {
  Entry entry;
  entry.ns_names = std::move(ns_names);
  entry.reachable = false;
  if (trace_log_ != nullptr) {
    trace_log_->Record(cut.ToString(), /*reachable=*/false,
                       static_cast<uint32_t>(entry.ns_names.size()),
                       /*addr_count=*/0);
  }
  Stripe& stripe = StripeFor(cut);
  std::lock_guard lock(stripe.mu);
  if (!stripe.negatives.contains(cut)) {
    stripe.counts.negative_evictions += EvictNegativesLocked(stripe);
    stripe.negatives.insert(cut);
  }
  auto [it, inserted] = stripe.entries.try_emplace(cut);
  Slot& slot = it->second;
  if (!inserted && slot.entry.reachable &&
      std::find(stripe.flipped.begin(), stripe.flipped.end(), cut) ==
          stripe.flipped.end()) {
    stripe.flipped.push_back(cut);
  }
  slot.entry = std::move(entry);
  slot.written = ++stripe.clock;
  ++stripe.counts.negative_publishes;
}

void SharedCutCache::ChargeInfra(const ResolverCounters& effort) {
  std::lock_guard lock(infra_mu_);
  infra_ += effort;
}

size_t SharedCutCache::size() const {
  size_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    total += stripe->entries.size();
  }
  return total;
}

std::vector<std::pair<dns::Name, SharedCutCache::Entry>>
SharedCutCache::Export() const {
  std::vector<std::pair<dns::Name, Entry>> out;
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    for (const auto& [cut, slot] : stripe->entries) {
      out.emplace_back(cut, slot.entry);
    }
  }
  SortByName(out);
  return out;
}

std::vector<std::pair<dns::Name, SharedCutCache::Entry>>
SharedCutCache::TakeChanges() {
  std::vector<std::pair<dns::Name, Entry>> out;
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    for (dns::Name& cut : stripe->flipped) {
      auto it = stripe->entries.find(cut);
      if (it == stripe->entries.end() || !it->second.entry.reachable) {
        Entry tombstone;
        tombstone.reachable = false;
        out.emplace_back(std::move(cut), std::move(tombstone));
      }
      // A flipped cut that is reachable again was republished since the
      // last drain, so the scan below reports it.
    }
    stripe->flipped.clear();
    if (stripe->clock == stripe->drained) continue;  // nothing published
    for (const auto& [cut, slot] : stripe->entries) {
      if (slot.written > stripe->drained && slot.entry.reachable) {
        out.emplace_back(cut, slot.entry);
      }
    }
    stripe->drained = stripe->clock;
  }
  SortByName(out);
  return out;
}

size_t SharedCutCache::Restore(
    const std::vector<std::pair<dns::Name, Entry>>& entries) {
  size_t restored = 0;
  for (const auto& [cut, entry] : entries) {
    if (!entry.reachable) continue;  // negatives never survive a restart
    Stripe& stripe = StripeFor(cut);
    std::lock_guard lock(stripe.mu);
    // Live data wins over the journal; a restored slot keeps written == 0,
    // so it is never reported as a change.
    if (stripe.entries.try_emplace(cut, Slot{entry}).second) ++restored;
  }
  return restored;
}

CutCacheStats SharedCutCache::stats() const {
  CutCacheStats total;
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    for (uint64_t CutCacheCounts::*counter : kCounters) {
      total.*counter += stripe->counts.*counter;
    }
  }
  std::lock_guard lock(infra_mu_);
  total.infra = infra_;
  return total;
}

}  // namespace govdns::core
