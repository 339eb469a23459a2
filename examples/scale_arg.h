// The examples' scale argument, parsed as strictly as `govdns_study
// --scale`: one whole finite number in [0, worldgen::kMaxScale].
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>

#include "util/strings.h"
#include "worldgen/config.h"

namespace govdns::examples {

// argv[index] as a world scale, or 0.05 when it is absent. A bad value
// prints the usage line (`args` names the program's arguments) and exits 2,
// before any world is built.
inline double ScaleArg(int argc, char** argv, int index, const char* args) {
  if (argc <= index) return 0.05;
  const std::optional<double> scale =
      util::ParseDouble(argv[index], 0.0, worldgen::kMaxScale);
  if (!scale) {
    std::fprintf(stderr, "usage: %s %s\n  scale: a number in [0, %g], not '%s'\n",
                 argv[0], args, worldgen::kMaxScale, argv[index]);
    std::exit(2);
  }
  return *scale;
}

}  // namespace govdns::examples
