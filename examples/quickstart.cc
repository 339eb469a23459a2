// Quickstart: build a small simulated world, run the full measurement
// pipeline (selection -> passive-DNS mining -> active measurement), and
// print the headline numbers of the study.
//
//   ./quickstart [scale]     (default scale 0.05)
#include <cstdio>

#include "core/analysis.h"
#include "core/study.h"
#include "scale_arg.h"
#include "util/strings.h"
#include "worldgen/adapter.h"

int main(int argc, char** argv) {
  using namespace govdns;

  // 1. A world to measure. At scale 1.0 this reproduces the paper's global
  //    scale (~190k domains); smaller scales shrink every country's share.
  worldgen::WorldConfig config;
  config.scale = examples::ScaleArg(argc, argv, 1, "[scale]");
  config.seed = 2022;
  std::printf("building world (scale %.2f, seed %llu)...\n", config.scale,
              static_cast<unsigned long long>(config.seed));
  auto world = worldgen::BuildWorld(config);

  // 2. The study pipeline, wired to the world's substrate interfaces. On a
  //    real deployment the same core::Study would run against a socket
  //    transport and a live passive-DNS database.
  auto bound = worldgen::MakeStudy(*world);
  core::Study& study = *bound.study;

  study.RunSelection();
  std::printf("selection: %zu government seed domains "
              "(%d dead portal links, %d squatted, %d MSQ fallbacks)\n",
              study.seeds().size(), study.selection_stats().broken_links,
              study.selection_stats().squatted_links,
              study.selection_stats().msq_fallbacks);

  study.RunMining();
  auto counts = core::CountPerYear(study.mined());
  std::printf("passive DNS: %s domains (%d) -> %s domains (%d)\n",
              util::WithCommas(counts.front().domains).c_str(),
              counts.front().year,
              util::WithCommas(counts.back().domains).c_str(),
              counts.back().year);

  study.RunActiveMeasurement();
  auto funnel = study.active().ComputeFunnel();
  std::printf("active measurement: %s queried, %s parent responses, "
              "%s with NS records (%llu DNS queries)\n",
              util::WithCommas(funnel.queried).c_str(),
              util::WithCommas(funnel.parent_responded).c_str(),
              util::WithCommas(funnel.parent_has_records).c_str(),
              static_cast<unsigned long long>(
                  study.measurement_queries_sent()));

  // 3. Headline analyses.
  auto replication = core::AnalyzeReplication(study.active());
  std::printf("\n-- replication --\n");
  std::printf("domains with >=2 nameservers: %s\n",
              util::Percent(replication.pct_at_least_two).c_str());
  std::printf("single-NS domains: %lld, of which unresponsive: %s\n",
              static_cast<long long>(replication.d1ns_count),
              util::Percent(replication.d1ns_stale_pct).c_str());

  auto delegations = core::AnalyzeDelegations(study.active());
  double n = static_cast<double>(delegations.domains_considered);
  std::printf("\n-- defective delegations --\n");
  std::printf("partially defective: %s, fully defective: %s\n",
              util::Percent(delegations.partially_defective / n).c_str(),
              util::Percent(delegations.fully_defective / n).c_str());

  auto consistency = core::AnalyzeConsistency(study.active());
  std::printf("\n-- parent/child consistency --\n");
  std::printf("P = C for %s of %s comparable domains\n",
              util::Percent(consistency.pct_equal).c_str(),
              util::WithCommas(consistency.comparable).c_str());

  auto hijack = core::AnalyzeHijackRisk(study.active(), world->psl(),
                                        world->registrar_client());
  std::printf("\n-- hijack risk --\n");
  std::printf("registrable nameserver domains in defective delegations: "
              "%lld (affecting %lld domains in %lld countries)\n",
              static_cast<long long>(hijack.available_ns_domains),
              static_cast<long long>(hijack.affected_domains),
              static_cast<long long>(hijack.affected_countries));
  std::printf("dangling-but-responsive (parked) nameserver domains: %lld\n",
              static_cast<long long>(hijack.dangling_available_ns));
  return 0;
}
