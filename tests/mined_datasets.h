// Mined datasets built by hand, shared by the mining, checkpoint and
// mining-frame tests, and a readable view of a dataset's NS-name table.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/mining.h"
#include "util/rng.h"

namespace govdns::testing {

// Appends the next row of `dataset`: rows go domain by domain, each
// domain's years in order, after the domain itself was pushed.
inline void AppendRow(core::MinedDataset& dataset, int32_t mode,
                      std::span<const int32_t> ids) {
  dataset.modes.push_back(mode);
  dataset.ns_ids.insert(dataset.ns_ids.end(), ids.begin(), ids.end());
  dataset.ids_begin.push_back(static_cast<uint32_t>(dataset.ns_ids.size()));
}

// The interned NS-name table as a list, for assertions that print.
inline std::vector<std::string> NsNames(const core::MinedDataset& dataset) {
  std::vector<std::string> names;
  for (size_t i = 0; i < dataset.ns_count(); ++i) {
    names.emplace_back(dataset.NsName(static_cast<int32_t>(i)));
  }
  return names;
}

// A randomized dataset: whole years without data (the first year on even
// seeds), modes in [0, 4], NS ids drawn with repeats and in no order from a
// table of up to a few hundred names (also on years without data, which
// the analyzers must ignore and a checkpoint must keep), and countries from
// the -1 default upwards. Domain names are the root.
inline core::MinedDataset RandomDataset(uint64_t seed) {
  util::Rng rng(seed);
  core::MinedDataset dataset;
  const int years = dataset.config.year_count();
  const size_t ns_count = 1 + rng.UniformU64(300);
  for (size_t i = 0; i < ns_count; ++i) {
    dataset.AppendNsName("ns" + std::to_string(i) + ".host.zz");
  }
  std::vector<bool> year_has_data(years);
  for (int y = 0; y < years; ++y) year_has_data[y] = rng.Bernoulli(0.8);
  if (seed % 2 == 0) year_has_data[0] = false;
  const size_t domains = rng.UniformU64(500);
  std::vector<int32_t> ids;
  for (size_t i = 0; i < domains; ++i) {
    core::MinedDomain domain;
    domain.country = static_cast<int>(rng.UniformInt(-1, 12));
    dataset.domains.push_back(std::move(domain));
    for (int y = 0; y < years; ++y) {
      int32_t mode = 0;
      if (year_has_data[y]) mode = static_cast<int32_t>(rng.UniformInt(0, 4));
      ids.clear();
      const int64_t count = rng.UniformInt(0, 5);
      for (int64_t k = 0; k < count; ++k) {
        ids.push_back(static_cast<int32_t>(rng.UniformU64(ns_count)));
      }
      AppendRow(dataset, mode, ids);
    }
  }
  return dataset;
}

// The one-domain dataset the checkpoint tests journal as their mining
// phase: d0.gov.aa under seed 0, single-NS in the first year only.
inline core::MinedDataset SeedPhasesDataset() {
  core::MinedDataset mined;
  mined.config = core::MiningConfig{};
  mined.AppendNsName("ns1.gov.aa");
  core::MinedDomain dom;
  dom.name = dns::Name::FromString("d0.gov.aa");
  dom.country = 0;
  dom.seed_index = 0;
  dom.in_active_window = true;
  mined.domains.push_back(dom);
  const std::vector<int32_t> first_year_ids = {0};
  for (int y = 0; y < mined.config.year_count(); ++y) {
    if (y == 0) {
      AppendRow(mined, 1, first_year_ids);
    } else {
      AppendRow(mined, 0, {});
    }
  }
  mined.stats.seeds = 1;
  mined.stats.domains = 1;
  return mined;
}

}  // namespace govdns::testing
