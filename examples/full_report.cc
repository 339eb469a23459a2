// Full report: the one-call API — run the whole pipeline (core::Study::Run)
// and print the consolidated study report (core::PrintReport).
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
  core::PrintReport(bound.study->Run(), std::cout);
  return 0;
}
