// e2e_bench: one run of one workload of the end-to-end benchmark. run.py
// builds it and calls it; the last line of standard output is the result.
//
//   e2e_bench --workload agent_panel|baseline_panel|rjms_stream --seed N
//             --seconds S --trace 0|1 --service PATH --workdir DIR
//             [--trace-out FILE]

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

int main(int argc, char** argv) {
  e2e::Options opt;
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
    } else if (key == "--service") {
      opt.service = value;
    } else if (key == "--workdir") {
      opt.workdir = value;
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else {
      std::fprintf(stderr, "e2e_bench: unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  e2e::Result result;
  try {
    if (opt.workload == "agent_panel") {
      e2e::run_agent_panel(opt, result);
    } else if (opt.workload == "baseline_panel") {
      e2e::run_baseline_panel(opt, result);
    } else if (opt.workload == "rjms_stream") {
      e2e::run_rjms_stream(opt, result);
    } else {
      std::fprintf(stderr, "e2e_bench: unknown workload '%s'\n", opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", result.to_json().c_str());
  return 0;
}
