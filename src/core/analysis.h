// Analyses over active-measurement results (§IV).
//
// ActiveDataset bundles the per-domain MeasurementResults with the country
// metadata needed for the per-country breakdowns; the free functions below
// each regenerate one figure or table of the paper's evaluation.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/measure.h"
#include "core/types.h"
#include "geo/asn_db.h"
#include "registrar/registrar.h"
#include "registrar/suffix.h"

namespace govdns::core {

struct ActiveDataset {
  std::vector<MeasurementResult> results;
  std::vector<int> country;  // per result: index into metas, -1 unknown
  std::vector<CountryMeta> metas;
  std::vector<SeedDomain> seeds;

  // Maps each measured domain to the seed whose d_gov contains it: the
  // longest such d_gov, the first seed in input order among duplicates.
  static ActiveDataset Build(std::vector<MeasurementResult> results,
                             std::vector<SeedDomain> seeds,
                             std::vector<CountryMeta> metas);

  // The paper's funnel: queried / parent responded / non-empty response.
  struct Funnel {
    int64_t queried = 0;
    int64_t parent_responded = 0;
    int64_t parent_has_records = 0;
    int64_t child_authoritative = 0;

    friend bool operator==(const Funnel&, const Funnel&) = default;
  };
  Funnel ComputeFunnel() const;
};

// ---- Replication (Figures 8, 9) -------------------------------------------

struct ReplicationSummary {
  // CDF of |P ∪ C| over domains with parent records (Fig. 9).
  std::vector<std::pair<int, double>> ns_count_cdf;  // (count, cum fraction)
  double pct_at_least_two = 0.0;
  int64_t domains_considered = 0;
  int64_t d1ns_count = 0;
  // Fig. 8: share of d_1NS with no authoritative response, overall and for
  // the most affected countries.
  double d1ns_stale_pct = 0.0;
  struct CountryRow {
    std::string code;
    int64_t domains = 0;       // domains considered
    int64_t d1ns = 0;
    int64_t d1ns_stale = 0;    // no authoritative response
    int64_t min_two = 0;       // domains with >=2 NS

    friend bool operator==(const CountryRow&, const CountryRow&) = default;
  };
  std::vector<CountryRow> by_country;  // every country with data

  friend bool operator==(const ReplicationSummary&,
                         const ReplicationSummary&) = default;
};
ReplicationSummary AnalyzeReplication(const ActiveDataset& dataset);

// ---- Diversity (Table I) ----------------------------------------------------

struct DiversityRow {
  std::string label;  // "Total" or country name
  int64_t domains = 0;           // multi-NS domains with resolved addresses
  double pct_multi_ip = 0.0;     // |IP| > 1
  double pct_multi_24 = 0.0;     // |/24| > 1
  double pct_multi_asn = 0.0;    // |ASN| > 1

  friend bool operator==(const DiversityRow&, const DiversityRow&) = default;
};
// Per-level (second vs third+ of the DNS hierarchy) multi-/24 shares, used
// for the §IV-A hierarchy discussion.
struct LevelDiversityRow {
  int level = 0;
  int64_t domains = 0;
  double pct_multi_24 = 0.0;

  friend bool operator==(const LevelDiversityRow&,
                         const LevelDiversityRow&) = default;
};

// Rows: Total + the given country codes (the paper's top 10).
std::vector<DiversityRow> AnalyzeDiversity(
    const ActiveDataset& dataset, const geo::AsnDatabase& asn_db,
    const std::vector<std::string>& country_codes);
// As above; the same pass also fills `by_level` with one row per DNS level
// that has a multi-NS domain, ascending. The level rows partition Total.
std::vector<DiversityRow> AnalyzeDiversity(
    const ActiveDataset& dataset, const geo::AsnDatabase& asn_db,
    const std::vector<std::string>& country_codes,
    std::vector<LevelDiversityRow>* by_level);

// ---- Defective delegations (Figure 10) -------------------------------------

enum class DelegationHealth {
  kHealthy,
  kPartiallyDefective,  // >=1 parent-listed NS does not serve the domain
  kFullyDefective,      // no parent-listed NS serves the domain
};
DelegationHealth ClassifyDelegation(const MeasurementResult& result);

struct DelegationSummary {
  int64_t domains_considered = 0;  // parent records present
  int64_t partially_defective = 0;
  int64_t fully_defective = 0;
  struct CountryRow {
    std::string code;
    int64_t domains = 0;
    int64_t partial = 0;
    int64_t full = 0;

    friend bool operator==(const CountryRow&, const CountryRow&) = default;
  };
  std::vector<CountryRow> by_country;

  friend bool operator==(const DelegationSummary&,
                         const DelegationSummary&) = default;
};
DelegationSummary AnalyzeDelegations(const ActiveDataset& dataset);

// ---- Parent/child consistency (Figures 13, 14) -----------------------------

enum class ConsistencyClass {
  kEqual,            // P = C
  kChildSuperset,    // P ⊂ C
  kParentSuperset,   // C ⊂ P
  kOverlapNeither,   // intersection, neither contains the other
  kDisjointSharedIp, // no common name, common addresses
  kDisjoint,         // no common name, no common address
  kNotComparable,    // child never answered (no C)
};
ConsistencyClass ClassifyConsistency(const MeasurementResult& result);

struct ConsistencySummary {
  int64_t comparable = 0;
  std::map<ConsistencyClass, int64_t> counts;
  double pct_equal = 0.0;
  // Per DNS hierarchy level (the paper: 93.5% consistent at level 2).
  std::map<int, std::pair<int64_t, int64_t>> by_level;  // level -> (equal, total)
  struct CountryRow {
    std::string code;
    int64_t comparable = 0;
    int64_t disagree = 0;

    friend bool operator==(const CountryRow&, const CountryRow&) = default;
  };
  std::vector<CountryRow> by_country;  // Fig. 14 input
  // §IV-D: share of P != C domains that also have a partial defect.
  double pct_disagree_with_partial_defect = 0.0;

  friend bool operator==(const ConsistencySummary&,
                         const ConsistencySummary&) = default;
};
ConsistencySummary AnalyzeConsistency(const ActiveDataset& dataset);

// ---- Hijack risk (Figures 11, 12; §IV-C/D) ----------------------------------

struct HijackSummary {
  // Defective-delegation path (§IV-C).
  int64_t candidate_ns_domains = 0;  // non-government d_ns seen in defects
  int64_t available_ns_domains = 0;
  int64_t affected_domains = 0;
  int64_t affected_countries = 0;
  int64_t multi_country_ns_domains = 0;  // available d_ns used by >1 country
  std::vector<double> prices_usd;        // per available d_ns (Fig. 12)
  struct CountryRow {
    std::string code;
    int64_t affected_domains = 0;
    int64_t available_ns_domains = 0;

    friend bool operator==(const CountryRow&, const CountryRow&) = default;
  };
  std::vector<CountryRow> by_country;  // Fig. 11

  // Consistency path (§IV-D): dangling-but-responsive.
  int64_t dangling_available_ns = 0;
  int64_t dangling_domains = 0;
  int64_t dangling_countries = 0;
  std::vector<double> dangling_prices_usd;

  friend bool operator==(const HijackSummary&, const HijackSummary&) = default;
};
HijackSummary AnalyzeHijackRisk(const ActiveDataset& dataset,
                                const registrar::PublicSuffixList& psl,
                                const registrar::RegistrarClient& registrar);

}  // namespace govdns::core
