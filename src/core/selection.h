// Domain selection (§III-A): from the UN Knowledge Base's national-portal
// links to a verified d_gov per country.
//
// For each country the selector takes the portal FQDN from the KB link,
// falls back to the member-state questionnaire when the link is dead or
// the linked domain turns out to be squatted (detected by its nameservers
// pointing into a domain-parking service), and then extracts the deepest
// suffix of the FQDN that the ccTLD registry documents as restricted to
// government use. Without such documentation it falls back to the
// registered domain (the paper's gov.la / gov.tl / gov.jm cases and
// regjeringen.no).
#pragma once

#include <optional>
#include <vector>

#include "core/resolver.h"
#include "core/types.h"
#include "registrar/suffix.h"

namespace govdns::core {

// The registry-policy lookup the selector consults (what the paper dug out
// of IANA's root database and registrar documentation).
class RegistryPolicyLookup {
 public:
  virtual ~RegistryPolicyLookup() = default;
  // true/false: documented; nullopt: no documentation found.
  virtual std::optional<bool> IsRestricted(const dns::Name& suffix) const = 0;
};

struct KnowledgeBaseRecord {
  int country = -1;
  dns::Name portal_fqdn;                // from the KB page link
  std::optional<dns::Name> msq_fqdn;    // from the questionnaire
};

struct SelectionStats {
  int total = 0;
  int broken_links = 0;    // portal FQDN did not resolve
  int squatted_links = 0;  // linked domain parked by a third party
  int msq_fallbacks = 0;
  int registered_domain_fallbacks = 0;

  friend bool operator==(const SelectionStats&,
                         const SelectionStats&) = default;
};

struct SelectorOptions {
  // NS-domain fingerprints of known parking services.
  std::vector<dns::Name> parking_ns_domains = {
      dns::Name::FromString("parkmonster.com")};
};

class SeedSelector {
 public:
  using Options = SelectorOptions;

  SeedSelector(IterativeResolver* resolver,
               const registrar::PublicSuffixList* psl,
               const RegistryPolicyLookup* policy,
               SelectorOptions options = SelectorOptions());

  std::vector<SeedDomain> Select(const std::vector<KnowledgeBaseRecord>& kb,
                                 SelectionStats* stats = nullptr);

  // Extraction for one FQDN (exposed for tests): deepest restricted suffix,
  // else registered domain.
  std::optional<SeedDomain> ExtractSeed(int country, const dns::Name& fqdn);

 private:
  bool Resolves(const dns::Name& fqdn);
  bool LooksSquatted(const dns::Name& fqdn);

  IterativeResolver* resolver_;
  const registrar::PublicSuffixList* psl_;
  const RegistryPolicyLookup* policy_;
  SelectorOptions options_;
};

}  // namespace govdns::core
