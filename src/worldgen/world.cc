#include "worldgen/world.h"

#include <algorithm>
#include <iterator>
#include <set>

#include "util/rng.h"
#include "worldgen/countries.h"

namespace govdns::worldgen {

namespace {

// Namespace tag mixed into the vantage seed so vantage draws can never
// collide with the builder's base-chaos or country-fault draws, which use
// the raw world seed.
constexpr uint64_t kVantageSeedTag = 0x76616e74ULL;  // "vant"

}  // namespace

const NsEpoch* DomainTruth::EpochAt(util::CivilDay day) const {
  for (const NsEpoch& epoch : epochs) {
    if (epoch.days.Contains(day)) return &epoch;
  }
  return nullptr;
}

World::World(WorldConfig config)
    : config_(config),
      network_(std::make_unique<simnet::SimNetwork>(config.seed ^ 0x6e6574ULL)),
      registrar_(config.seed ^ 0x726567ULL) {}

World::~World() = default;

void World::ApplyVantage(const VantageProfile& profile) {
  const uint64_t vseed =
      util::HashString(profile.name, config_.seed ^ kVantageSeedTag);
  if (profile.chaos.Any()) {
    // Hosts share addresses (provider farms, vanity names fronting the same
    // farm); dedupe so each endpoint is afflicted exactly once regardless of
    // how many hostnames point at it.
    std::set<geo::IPv4> seen;
    for (const NsHost& host : ns_hosts_) {
      for (geo::IPv4 ip : host.ips) {
        if (!seen.insert(ip).second) continue;
        network_->SetBehavior(
            ip, profile.chaos.Realize(vseed, ip, network_->GetBehavior(ip)));
      }
    }
  }
  for (const CountryChaos& fault : profile.country_chaos) {
    if (!fault.chaos.Any()) continue;
    int country = CountryIndexByCode(fault.code);
    if (country < 0 || country >= static_cast<int>(country_rt_.size())) {
      continue;
    }
    const dns::Name& suffix = country_rt_[country].suffix;
    std::set<geo::IPv4> seen;
    for (const NsHost& host : ns_hosts_) {
      if (!host.hostname.IsSubdomainOf(suffix)) continue;
      for (geo::IPv4 ip : host.ips) {
        if (!seen.insert(ip).second) continue;
        network_->SetBehavior(
            ip, fault.chaos.Realize(vseed, ip, network_->GetBehavior(ip)));
      }
    }
  }
}

VantageProfile MakeDefaultVantageProfile(int index) {
  VantageProfile p;
  p.name = "v" + std::to_string(index) + (index == 0 ? "-base" : "-far");
  if (index <= 0) return p;  // benign: the paper's single US vantage
  // Farther vantages: progressively noisier paths. Rates stay well below
  // the Hostile() preset so most countries still resolve and the
  // disagreement analysis has signal rather than uniform darkness.
  p.chaos.p_flapping = 0.02 * index;
  p.chaos.p_bursty = 0.03 * index;
  p.chaos.p_jittery = 0.05 * index;
  p.chaos.rtt_jitter_ms = 25;
  if (index >= 2) p.chaos.p_rate_limited = 0.015 * (index - 1);
  return p;
}

const DomainTruth* World::FindDomain(const dns::Name& name) const {
  // The last of equal names wins, as it did when the index was a map
  // assigned in creation order.
  auto it = std::upper_bound(
      domain_index_.begin(), domain_index_.end(), name,
      [this](const dns::Name& n, int id) { return n < domains_[id].name; });
  if (it == domain_index_.begin()) return nullptr;
  const DomainTruth& d = domains_[*std::prev(it)];
  return d.name == name ? &d : nullptr;
}

}  // namespace govdns::worldgen
