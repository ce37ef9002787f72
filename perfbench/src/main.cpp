// perfbench_driver: one benchmark workload in one process, on one thread,
// one operation in flight.  run.py generates the inputs from the seed,
// starts this driver, times set-up up to the READY line, and turns the
// report written to --out into the benchmark's metrics.
//
//   perfbench_driver --workload query_cold|query_hot|mna_linear|mna_ring
//                    --input FILE --out FILE [--seconds S]
//                    [--mode setup|run|traced|counts] [--spans FILE]

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "perfbench_driver: " << why << "\n"
            << "usage: perfbench_driver --workload NAME --input FILE --out "
               "FILE [--seconds S] [--mode setup|run|traced|counts] "
               "[--spans FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--input") {
      args.input = v;
    } else if (a == "--out") {
      args.out = v;
    } else if (a == "--spans") {
      args.spans = v;
    } else if (a == "--seconds") {
      args.seconds = std::atof(v.c_str());
    } else if (a == "--mode") {
      if (v == "setup") {
        args.mode = pb::Mode::kSetup;
      } else if (v == "run") {
        args.mode = pb::Mode::kRun;
      } else if (v == "traced") {
        args.mode = pb::Mode::kTraced;
      } else if (v == "counts") {
        args.mode = pb::Mode::kCounts;
      } else {
        return usage("unknown mode");
      }
    } else {
      return usage(("unknown option " + a).c_str());
    }
  }
  if (args.input.empty() || args.out.empty() || !(args.seconds > 0)) {
    return usage("--input, --out and a positive --seconds are required");
  }
  if (args.mode == pb::Mode::kTraced && args.spans.empty()) {
    return usage("--mode traced needs --spans");
  }
  try {
    if (args.workload == "query_cold") return pb::run_query_workload(args, false);
    if (args.workload == "query_hot") return pb::run_query_workload(args, true);
    if (args.workload == "mna_linear") return pb::run_mna_workload(args, false);
    if (args.workload == "mna_ring") return pb::run_mna_workload(args, true);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
  return usage("unknown workload");
}
