#include "worldgen/adapter.h"

namespace govdns::worldgen {

std::vector<core::CountryMeta> MakeCountryMetas() {
  std::vector<core::CountryMeta> metas;
  auto top10 = Top10CountryCodes();
  for (const CountrySpec& spec : Countries()) {
    core::CountryMeta meta;
    meta.code = spec.code;
    meta.name = spec.name;
    meta.subregion = spec.subregion;
    for (const char* code : top10) {
      if (meta.code == code) meta.top10 = true;
    }
    metas.push_back(std::move(meta));
  }
  return metas;
}

std::vector<core::KnowledgeBaseRecord> MakeKnowledgeBase(const World& world) {
  std::vector<core::KnowledgeBaseRecord> out;
  for (const KnowledgeBaseEntry& entry : world.knowledge_base()) {
    core::KnowledgeBaseRecord record;
    record.country = entry.country;
    record.portal_fqdn = entry.portal_fqdn;
    record.msq_fqdn = entry.msq_fqdn;
    out.push_back(std::move(record));
  }
  return out;
}

core::StudyInputs MakeStudyInputs(World& world,
                                  const core::RegistryPolicyLookup* policy) {
  core::StudyInputs inputs;
  inputs.transport = &world.network();
  inputs.root_hints = world.root_server_ips();
  inputs.pdns = &world.pdns_db();
  inputs.asn_db = &world.asn_db();
  inputs.registrar = &world.registrar_client();
  inputs.psl = &world.psl();
  inputs.policy = policy;
  inputs.knowledge_base = MakeKnowledgeBase(world);
  inputs.countries = MakeCountryMetas();
  for (const char* code : Top10CountryCodes()) {
    inputs.diversity_countries.emplace_back(code);
  }
  inputs.mining.first_year = world.config().first_year;
  inputs.mining.last_year = world.config().last_year;
  return inputs;
}

BoundStudy MakeStudy(World& world) {
  BoundStudy bound;
  bound.policy = std::make_unique<PolicyLookupAdapter>(&world.registry_policy());
  bound.study =
      std::make_unique<core::Study>(MakeStudyInputs(world, bound.policy.get()));
  return bound;
}

}  // namespace govdns::worldgen
