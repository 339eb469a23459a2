// Full report: the one-call API — run the whole pipeline and print the
// consolidated study report (core::BuildReport / core::PrintReport).
//
//   ./full_report [scale]    (default 0.05)
#include <iostream>

#include "core/report.h"
#include "scale_arg.h"
#include "worldgen/adapter.h"

int main(int argc, char** argv) {
  using namespace govdns;
  worldgen::WorldConfig config;
  config.scale = examples::ScaleArg(argc, argv, 1, "[scale]");
  auto world = worldgen::BuildWorld(config);
  auto bound = worldgen::MakeStudy(*world);
  bound.study->RunAll();

  std::vector<std::string> top10;
  for (const char* code : worldgen::Top10CountryCodes()) {
    top10.emplace_back(code);
  }
  core::StudyReport report = core::BuildReport(*bound.study, top10);
  core::PrintReport(report, std::cout);
  return 0;
}
