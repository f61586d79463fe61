// perfbench: runs one benchmark workload and prints its raw measurements
// as one JSON line. run.py builds this program, runs it and turns the raw
// samples into the reported metrics.
//
//   perfbench --workload train-conv --seed 1 --seconds 10 --trace 0
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

int main(int argc, char** argv) {
  perfbench::Options opt;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        opt.trace = value == "1";
      } else {
        std::fprintf(stderr, "perfbench: unknown option %s\n", key.c_str());
        return 2;
      }
    }
    perfbench::Result r;
    if (opt.workload == "train-conv" || opt.workload == "train-allreduce") {
      r = perfbench::run_train(opt);
    } else if (opt.workload == "dimd-shuffle") {
      r = perfbench::run_shuffle(opt);
    } else if (opt.workload == "plan-sweep") {
      r = perfbench::run_plan(opt);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
    std::printf("%s\n", perfbench::to_json(r).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
