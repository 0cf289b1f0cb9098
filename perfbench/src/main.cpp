// epi_perfbench: the native half of the repository benchmark (perfbench/run.py
// builds it, boots the servers and merges what both halves measured).
//
//   epi_perfbench header    --workload W --seed N      scenario header for W
//   epi_perfbench serve     --workload W --seed N --seconds S --trace T
//                           --front ADDR [--routed ADDR --direct ADDR]
//   epi_perfbench offline   --seed N --seconds S --trace T --digest FILE
//   epi_perfbench digest    [--seeds K]        regenerate offline_digest.txt
//   epi_perfbench calibrate [--seed N]         per-log offline timings
//   epi_perfbench stages                       every engine stage name
//
// The last stdout line of serve/offline is one JSON object with the run's
// metrics; exit 1 on any failure to run (bad flags, unreachable server).
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "layers.h"

namespace perfbench {
int run_header(const Args& args);
int run_served(const Args& args);
int run_offline(const Args& args);
int run_digest(const Args& args);
int run_calibrate(const Args& args);
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: epi_perfbench header|serve|offline|digest|calibrate|stages ...\n");
    return 2;
  }
  const std::string command = argv[1];
  try {
    const perfbench::Args args(argc, argv, 2);
    if (command == "header") return perfbench::run_header(args);
    if (command == "serve") return perfbench::run_served(args);
    if (command == "offline") return perfbench::run_offline(args);
    if (command == "digest") return perfbench::run_digest(args);
    if (command == "calibrate") return perfbench::run_calibrate(args);
    if (command == "stages") {
      for (const std::string& name : perfbench::all_stage_names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    }
    std::fprintf(stderr, "epi_perfbench: unknown command '%s'\n", command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "epi_perfbench %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}
