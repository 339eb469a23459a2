// Third-party DNS provider identification and centralization analysis
// (§IV-B, Tables II and III).
//
// Identification mirrors the paper's method: match nameserver hostnames
// against a curated rule list (substring patterns for Amazon's unique
// awsdns naming, suffix matching for everyone else), optionally augmented
// by SOA MNAME/RNAME matching, which catches customers that front a
// provider with vanity NS names in their own zone.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/mining.h"
#include "core/types.h"
#include "dns/rr.h"

namespace govdns::core {

struct ProviderRule {
  std::string group_key;    // display/aggregation key ("cloudflare.com")
  std::string display;
  // Hostname matches when it ends with one of these domain suffixes...
  std::vector<std::string> ns_suffixes;
  // ...or contains one of these substrings (the awsdns / azure-dns style).
  std::vector<std::string> ns_substrings;
  // SOA MNAME/RNAME suffixes that identify the provider.
  std::vector<std::string> soa_suffixes;
  bool major = false;  // a Table II row
};

// The curated rule list for the providers the paper tracks.
std::vector<ProviderRule> DefaultProviderRules();

class ProviderMatcher {
 public:
  explicit ProviderMatcher(std::vector<ProviderRule> rules);

  // Matches one NS hostname (presentation form); -1 if no provider.
  int MatchNs(std::string_view hostname) const;
  // Matches SOA MNAME/RNAME; -1 if no provider.
  int MatchSoa(const dns::SoaRdata& soa) const;

  const std::vector<ProviderRule>& rules() const { return rules_; }

 private:
  std::vector<ProviderRule> rules_;
};

// ---- Yearly provider usage (Tables II/III) --------------------------------

struct ProviderYearRow {
  std::string group_key;
  std::string display;
  int year = 0;
  int64_t domains = 0;    // domains with >=1 NS at this provider
  int64_t d1p = 0;        // domains whose entire NS set is this provider
  int64_t groups = 0;     // sub-region groups (top-10 split out) covered
  int64_t countries = 0;  // countries covered
  bool major = false;

  friend bool operator==(const ProviderYearRow&,
                         const ProviderYearRow&) = default;
};

struct ProviderYearTable {
  int year = 0;
  int64_t total_domains = 0;  // domains with data that year
  int64_t total_groups = 0;   // number of grouping units that exist
  std::vector<ProviderYearRow> rows;

  friend bool operator==(const ProviderYearTable&,
                         const ProviderYearTable&) = default;
};

class ProviderAnalyzer {
 public:
  ProviderAnalyzer(const ProviderMatcher* matcher,
                   std::vector<CountryMeta> countries);

  // Usage per provider for one year of the mined dataset.
  ProviderYearTable Analyze(const MinedDataset& dataset, int year) const;

  // Top-N rows of a year, ranked by countries covered (Table III).
  static std::vector<ProviderYearRow> TopByCountries(
      const ProviderYearTable& table, size_t n);

  // The paper's §IV-B headline: the max, over providers, of the number of
  // countries with domains using that provider.
  static int64_t MaxCountriesAnyProvider(const ProviderYearTable& table);

 private:
  const ProviderMatcher* matcher_;
  std::vector<CountryMeta> countries_;
};

}  // namespace govdns::core
