// perfbench: the solve benchmark's measured binary. run.py drives it;
// `perfbench <prep|run|triad> --key value ...`.
#include <cstdio>
#include <exception>
#include <string>

#include "workloads.hpp"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench <prep|run|triad> [--key value ...]\n");
    return 1;
  }
  const std::string cmd = argv[1];
  try {
    perfbench::Args args(argc, argv, 2);
    if (cmd == "prep") return perfbench::cmd_prep(args);
    if (cmd == "run") return perfbench::cmd_run(args, argv);
    if (cmd == "worker") return perfbench::cmd_worker(args);
    if (cmd == "triad") return perfbench::cmd_triad(args);
    std::fprintf(stderr, "perfbench: unknown command '%s'\n", cmd.c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
