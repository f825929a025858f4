// Workload-generation scaling: jobs/sec for the scenario registry's four
// shapes at trace scale - a plain base generator, a piped transform
// pipeline (rate scaling + estimate noise + DAG injection + load stretch),
// a weighted mix, and the Polaris replay (raw-row generation plus the
// paper's Section 5 preprocessing) - so the spec-keyed scenario axis stays
// cheap relative to the simulations it feeds (generation must never be the
// sweep bottleneck; the 10^5-job pipelines here cost milliseconds against
// multi-second cells).
//
//   ./bench/micro_workload_scaling [--jobs 10000,100000] [--seed 4242]
//       [--reps 3] [--json out.json]
//
// --json writes jobs/sec per (shape, size) as a flat JSON object for the CI
// bench-regression gate (tools/compare_bench.py --gate-suffix jobs_per_s).

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/cli.hpp"
#include "util/string_utils.hpp"
#include "workload/scenario_spec.hpp"

using namespace reasched;

namespace {

struct Shape {
  const char* label;  ///< JSON metric family segment
  const char* spec;
};

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const auto sizes_arg = args.get("jobs", "10000,100000");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 4242));
  const auto reps = static_cast<std::size_t>(args.get_int("reps", 3));
  const std::string json_path = args.get("json", "");
  bench::BenchJson json;

  std::vector<std::size_t> sizes;
  for (const auto& tok : util::split(sizes_arg, ',')) {
    sizes.push_back(static_cast<std::size_t>(std::stoull(tok)));
  }

  const Shape shapes[] = {
      {"generate", "hetero_mix"},
      {"pipeline",
       "hetero_mix?rate_scale=1.5|perturb?walltime_noise=1.2:2.0|dag?fanout=4&depth=6"
       "|stretch?load=1.25"},
      {"mix", "mix(long_job:0.2,resource_sparse:0.8)"},
      {"polaris", "polaris"},
  };

  std::printf("Scenario-registry generation throughput (best of %zu):\n\n", reps);
  std::printf("  %-9s %9s %14s  %s\n", "shape", "jobs", "jobs/s", "spec");

  for (const auto& shape : shapes) {
    const workload::ScenarioSpec spec(shape.spec);
    for (const std::size_t n : sizes) {
      double best_s = 0.0;
      std::size_t produced = 0;
      for (std::size_t r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto jobs = workload::generate_scenario(spec, n, seed);
        const auto t1 = std::chrono::steady_clock::now();
        produced = jobs.size();
        const double s = std::chrono::duration<double>(t1 - t0).count();
        if (r == 0 || s < best_s) best_s = s;
      }
      const double jobs_per_s = static_cast<double>(produced) / best_s;
      json.add(util::format("workload/%s/jobs%zu/jobs_per_s", shape.label, n), jobs_per_s);
      std::printf("  %-9s %9zu %14.0f  %s\n", shape.label, produced, jobs_per_s, shape.spec);
    }
  }

  json.save_if(json_path);
  return 0;
}
