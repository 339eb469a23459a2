// World-generation configuration.
//
// All stochastic behaviour hangs off `seed`; all volume knobs scale with
// `scale` (1.0 = the paper's global scale, ~190k domains in the 2020 PDNS
// snapshot). Tests run small worlds (scale ~0.01); the benchmark harnesses
// default to full scale. Every rate here is a calibration target derived
// from a number the paper reports (cited inline).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simnet/network.h"

namespace govdns::worldgen {

// Per-country fault overlay (DESIGN.md §6g): every nameserver host under
// the named country's government suffix gets `chaos` layered on top of
// whatever behaviour it already has. Hosts shared with other countries
// (global provider farms) are untouched, so a fully blackholed country
// degrades only its own domains. Unknown codes are ignored.
struct CountryChaos {
  std::string code;  // ccTLD label as in Countries(), e.g. "br"
  simnet::ChaosProfile chaos;
};

// A named network view: what one measurement vantage point sees
// (DESIGN.md §6k). `chaos` is layered on every nameserver host in the
// world; `country_chaos` adds further per-country overlays through the
// same suffix-matching path as WorldConfig::country_chaos. Realization is
// seeded by the vantage *name*, never by its position in a list, so adding
// or removing one vantage cannot perturb another vantage's draws.
struct VantageProfile {
  std::string name;  // e.g. "us-east"; doubles as journal-dir suffix
  simnet::ChaosProfile chaos;
  std::vector<CountryChaos> country_chaos;
};

// The largest WorldConfig::scale a caller may ask for: far beyond any world
// that fits in memory (scale 1 peaks near 0.7 GB) and small enough that
// every count the generator derives from it fits its integer type.
inline constexpr double kMaxScale = 1000.0;

struct WorldConfig {
  uint64_t seed = 2022;

  // Volume multiplier on every per-country domain-count target, in
  // [0, kMaxScale].
  double scale = 1.0;

  // The PDNS observation window (paper: 2011..2020 inclusive).
  int first_year = 2011;
  int last_year = 2020;

  // Global total of domains with NS data in the 2020 PDNS snapshot at
  // scale 1.0 (Fig. 2: 192.6k).
  // Slightly below the paper's 192.6k: a domain that dies mid-year still
  // shows records that year, so measured yearly counts exceed the live
  // population by the annual churn (~4%).
  double total_domains_2020 = 185000;
  // And in 2011 (Fig. 2: 113.5k), via the global growth curve.
  double total_domains_2011 = 112500;

  // Annual death rate for ordinary domains; single-NS domains die faster
  // (Fig. 6: only 21% of 2011's d_1NS remain by 2020 => ~16%/yr).
  double death_rate = 0.055;
  double death_rate_1ns = 0.215;

  // Probability per year that a surviving domain re-rolls its deployment
  // (provider switch / redesign). Feeds both the provider-trend tables and
  // parent/child drift.
  double switch_rate = 0.06;

  // Probability that a newly created *private-style* domain starts with a
  // single nameserver, at the two anchor years (linear in between).
  // Calibrated so d_1NS is ~4.2% of 2011 domains and ~3.1% of 2020's.
  double p_single_ns_private_2011 = 0.125;
  double p_single_ns_private_2020 = 0.125;
  // Same for national/global styles (rare).
  double p_single_ns_other = 0.010;
  // Probability per year that a d_1NS adds a secondary.
  double upgrade_rate_1ns = 0.04;

  // Fraction of a provider-hosted domain's NS sets that also include a
  // nameserver of its own (breaks single-provider dependency, d_1P).
  double p_mixed_provider_ns = 0.07;

  // --- Measurement-time (April 2021) state --------------------------------
  // Fraction of PDNS-window domains excluded by the paper's "disposable
  // domain" filter before active queries (147k queried of ~192.6k seen).
  double disposable_fraction = 0.26;

  // Fraction of queried domains whose *parent* zone ADNS no longer respond
  // (paper: 115k of 147k had a parent response => ~22%). Realized by dead
  // intermediate zones; China's consolidation contributes the bulk.
  double dead_parent_fraction_default = 0.14;
  double dead_parent_fraction_cn = 0.45;

  // Of domains whose parent responds: fraction with the delegation removed
  // (empty/NXDOMAIN answers; paper: 96k non-empty of 115k => ~16.5%).
  double removed_fraction = 0.165;

  // Baseline probability that a live domain's delegation went fully stale
  // (child servers gone while parent records remain). Per-country
  // extra_stale_rate adds to it; single-NS domains use the *_1ns variant
  // (paper Fig. 8: 60.1% of d_1NS gave no authoritative response).
  double stale_rate = 0.012;
  double stale_rate_1ns = 0.42;

  // Probability that a multi-NS domain has one NS dead for domain-local
  // reasons (beyond the per-country shared dead-NS incidents).
  double partial_lame_rate = 0.035;

  // Probability that a (partially lame) domain's parent NS entry is a typo
  // of a real hostname (pns12cloudns.net for pns12.cloudns.net).
  double typo_ns_rate = 0.013;

  // --- Parent/child inconsistency (Fig. 13: P=C for 76.8%) ---------------
  // Probabilities for a *responsive* domain's consistency class; the
  // remainder is P=C. Third-and-lower-level domains use these; second-level
  // domains are far more consistent (93.5%), handled by the multiplier.
  double p_child_superset = 0.105;   // P ⊂ C (child added NS, parent stale)
  double p_parent_superset = 0.080;  // C ⊂ P (child dropped NS)
  double p_overlap_neither = 0.055;  // overlap but neither contains other
  double p_disjoint = 0.058;         // no common NS name
  double p_disjoint_ip_overlap = 0.35;  // of disjoint: same addresses anyway
  double second_level_inconsistency_multiplier = 0.28;
  // Probability that a child NS RRset entry lost its origin (a single-label
  // name like "ns" from a zone-file typo; a P != C flavour).
  double p_relative_name_truncation = 0.004;

  // --- Hijackable dangling records ----------------------------------------
  // Countries whose defective delegations reference nameserver domains that
  // are available to register (paper: 805 d_ns / 1,121 domains / 49
  // countries), and the aftermarket parked cases of §IV-D (13 d_ns / 26
  // domains / 7 countries; min price 300 USD).
  int available_ns_domain_countries = 49;
  int available_ns_domains = 805;
  int parked_ns_domains = 13;
  int parked_ns_customer_domains = 26;
  int parked_ns_countries = 7;

  // --- PDNS sensor artefacts ----------------------------------------------
  // Short-lived junk records per domain-year (expired/DDoS-switch records
  // the 7-day stability filter should drop).
  double transient_record_rate = 0.03;
  int transient_max_days = 5;

  // --- Network behaviour ---------------------------------------------------
  double base_loss_rate = 0.002;  // transient loss on healthy endpoints
  uint32_t rtt_ms_base = 20;

  // Endpoint-level chaos applied on top of the base behaviour when wiring
  // nameserver hosts (flapping, rate limiting, truncation, spoofed ids,
  // corruption, bursts, jitter). Default: entirely benign, so the
  // calibrated marginals above are undisturbed; the chaos sweep and
  // robustness tests use simnet::ChaosProfile::Hostile().
  simnet::ChaosProfile chaos;

  // Per-country fault overlays, applied after the world is built (see
  // CountryChaos above; kept as a nested alias for existing call sites).
  using CountryChaos = worldgen::CountryChaos;
  std::vector<CountryChaos> country_chaos;

  // Named per-vantage network views (DESIGN.md §6k). Not applied at build
  // time: each vantage shard calls World::ApplyVantage on its own copy of
  // the world (typically a forked child), overlaying the profile on the
  // base realization. An empty list means the classic single-vantage study.
  std::vector<VantageProfile> vantages;

  // Number of national hosting companies per country (scaled by country
  // volume; at least 2).
  double national_companies_per_1k_domains = 10.5;
};

}  // namespace govdns::worldgen
