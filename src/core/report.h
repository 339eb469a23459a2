// Consolidated study report: every §IV analysis over one Study, gathered
// into a single structure plus a human-readable rendering. This is the
// highest-level convenience API — examples and downstream tooling that just
// want "the numbers" use this instead of calling each analyzer.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/providers.h"
#include "core/study.h"
#include "obs/profile.h"

namespace govdns::core {

// Study-level aggregation of the resilience bookkeeping each measurement
// carries (MeasurementResult::query_stats / degraded): how much adversity
// the network dealt and how much query effort the armor spent absorbing it.
// Fully deterministic for a given world seed; ToJson() is byte-stable so
// two same-seed runs can be compared for identity.
struct ResilienceReport {
  int64_t domains = 0;
  int64_t degraded_domains = 0;   // per-domain budget cut these short
  ResolverCounters totals;        // summed per-outcome counters
  uint64_t max_queries_one_domain = 0;
  double avg_queries_per_domain = 0.0;
  // Logical (transport-clock) time: the sum and max of per-domain
  // measurement durations. Deterministic like the counters.
  uint64_t total_logical_ms = 0;
  uint64_t max_logical_ms_one_domain = 0;

  std::string ToJson() const;

  friend bool operator==(const ResilienceReport&,
                         const ResilienceReport&) = default;
};

ResilienceReport BuildResilienceReport(const ActiveDataset& dataset);

// Degradation/coverage accounting (DESIGN.md §6g): which measured domains
// were quarantined, why (QuarantineReason taxonomy), and how coverage breaks
// down per country. A healthy run has quarantined == 0 and coverage == 1.
// Deterministic for a given world seed and budget configuration.
struct QuarantineReport {
  int64_t total_domains = 0;
  int64_t quarantined = 0;
  int64_t hang = 0;
  int64_t blackhole = 0;
  int64_t budget_exceeded = 0;
  int64_t watchdog_cancelled = 0;
  int64_t vantage_lost = 0;
  // Share of the query list with a full-fidelity (non-quarantined) result.
  double coverage = 1.0;
  struct CountryRow {
    std::string code;
    int64_t domains = 0;
    int64_t quarantined = 0;

    friend bool operator==(const CountryRow&, const CountryRow&) = default;
  };
  // Countries with at least one quarantined domain, in metas order.
  std::vector<CountryRow> by_country;

  friend bool operator==(const QuarantineReport&,
                         const QuarantineReport&) = default;
};

QuarantineReport BuildQuarantineReport(const ActiveDataset& dataset);

// One country's domain count in the passive-DNS data (Fig. 4).
struct CountryDomains {
  std::string name;
  int64_t domains = 0;

  friend bool operator==(const CountryDomains&,
                         const CountryDomains&) = default;
};

// Fig. 4: every country with data in the last year, most domains first
// (ties: the later country in `countries` first).
std::vector<CountryDomains> DomainsPerCountry(
    const MinedDataset& dataset, const std::vector<CountryMeta>& countries);

struct StudyReport {
  // §III: pipeline funnel.
  SelectionStats selection;
  std::vector<YearlyCounts> pdns_per_year;     // Figs. 2-3
  // Fig. 4: every country with data in the last year, most domains first
  // (ties: the later country in the country list first).
  std::vector<CountryDomains> domains_per_country;
  ActiveDataset::Funnel funnel;

  // §IV-A.
  ReplicationSummary replication;              // Figs. 8-9
  std::vector<DiversityRow> diversity;         // Table I
  std::vector<LevelDiversityRow> diversity_by_level;  // Table I, per level
  std::vector<D1nsChurnRow> d1ns_churn;        // Fig. 6
  std::vector<PrivateShareRow> private_share;  // Fig. 7

  // §IV-B.
  ProviderYearTable providers_first_year;      // Table II/III inputs
  ProviderYearTable providers_last_year;

  // §IV-C.
  DelegationSummary delegations;               // Fig. 10
  HijackSummary hijack;                        // Figs. 11-12, §IV-D

  // §IV-D.
  ConsistencySummary consistency;              // Figs. 13-14

  // Measurement-infrastructure health (not a paper figure: quantifies the
  // §III-B transient-vs-defective distinction for this run).
  ResilienceReport resilience;

  // Coverage annotations for degraded runs (DESIGN.md §6g): empty/1.0 when
  // the run was healthy.
  QuarantineReport quarantine;

  // Per-phase profile: the study's stages followed by each analyzer run by
  // BuildReport. Exported with logical_ms only — wall_ms stays diagnostic.
  std::vector<obs::PhaseRecord> profile;
};

// Runs every analysis over a completed study (all three stages must have
// run). `asn_db`, `psl`, `registrar` come from the study's inputs.
StudyReport BuildReport(Study& study,
                        const std::vector<std::string>& diversity_countries);

// Renders every paper artifact from the report alone, one section each in
// the paper's order (Figs. 2-4, 6-14, Tables I-III and §IV-D), each with
// its paper anchors, followed by the run's resilience, coverage and phase
// sections. Deterministic: two same-seed reports render the same bytes.
void PrintReport(const StudyReport& report, std::ostream& os);

}  // namespace govdns::core
