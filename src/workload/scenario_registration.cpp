#include "workload/scenario_registration.hpp"

#include <algorithm>
#include <set>

#include "workload/polaris.hpp"
#include "workload/scenario_spec.hpp"
#include "workload/swf.hpp"
#include "workload/trace.hpp"

namespace reasched::workload {

namespace {

/// Parameters every generator-backed scenario accepts on its base stage.
std::vector<util::SpecParamInfo> generator_params() {
  return {{"walltime_noise", "range", "1:1",
           "Walltime estimates = runtime x U(MIN:MAX); 1:1 keeps the paper's exact "
           "estimates."},
          {"rate_scale", "double", "1",
           "Arrival-rate multiplier: submit times divide by this (2 = twice the load)."}};
}

/// The shared builder for the seven paper scenarios. With no parameters it
/// is byte-for-byte the legacy `make_generator(s)->generate(n, seed,
/// options)` call, which the scenario-spec golden test pins; the two common
/// parameters compose on top without disturbing the base draws
/// (walltime_noise maps onto GenerateOptions' paired noise stream,
/// rate_scale rescales submit times after generation).
std::vector<sim::Job> generate_paper_scenario(Scenario scenario, const ScenarioStage& stage,
                                              std::size_t n, std::uint64_t seed,
                                              const GenerateOptions& options_in) {
  const StageParamReader params(stage);
  GenerateOptions options = options_in;
  const auto [noise_min, noise_max] =
      params.get_range("walltime_noise", options.walltime_factor_min,
                       options.walltime_factor_max, 1.0);
  options.walltime_factor_min = noise_min;
  options.walltime_factor_max = noise_max;
  auto jobs = make_generator(scenario)->generate(n, seed, options);

  const double rate_scale = params.get_double("rate_scale", 1.0, 1e-6, 1e6);
  if (rate_scale != 1.0) {
    for (auto& job : jobs) job.submit_time /= rate_scale;
  }
  return jobs;
}

/// Truncate to the first `n` jobs in arrival order, drop dependency edges
/// that point outside the kept set, and renumber ids 1..m (trace bases and
/// the crop transform share these semantics).
void truncate_and_renumber(std::vector<sim::Job>& jobs, std::size_t n) {
  if (n > 0 && jobs.size() > n) jobs.resize(n);
  std::set<sim::JobId> kept;
  std::map<sim::JobId, sim::JobId> renumber;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    kept.insert(jobs[i].id);
    renumber[jobs[i].id] = static_cast<sim::JobId>(i + 1);
  }
  for (auto& job : jobs) {
    std::vector<sim::JobId> deps;
    for (const auto dep : job.dependencies) {
      if (kept.count(dep) != 0) deps.push_back(renumber.at(dep));
    }
    job.dependencies = std::move(deps);
    job.id = renumber.at(job.id);
  }
}

/// Clamp demands to the (effective) cluster so trace-backed bases satisfy
/// the same fit guarantee as the synthetic generators. Raise the capacity
/// with `|cluster?nodes=...&memory_gb=...` to replay a trace unclamped.
void clamp_to_cluster(std::vector<sim::Job>& jobs, const sim::ClusterSpec& cluster) {
  for (auto& job : jobs) {
    job.nodes = std::clamp(job.nodes, 1, cluster.total_nodes);
    job.memory_gb = std::min(job.memory_gb, cluster.total_memory_gb);
  }
}

void register_paper_scenarios(ScenarioRegistry& registry) {
  for (const Scenario scenario : all_scenarios()) {
    const ScenarioSpec canonical(scenario);
    registry.add(
        {.name = canonical.base.name,
         .display_label = to_string(scenario),
         .doc = describe(scenario),
         .params = generator_params(),
         .generate = [scenario](const ScenarioStage& stage, std::size_t n, std::uint64_t seed,
                                const GenerateOptions& options) {
           return generate_paper_scenario(scenario, stage, n, seed, options);
         }});
  }
}

void register_trace_scenarios(ScenarioRegistry& registry) {
  registry.add(
      {.name = "swf",
       .display_label = "SWF trace",
       .doc = "Replay a Standard Workload Format file (Parallel Workloads Archive).",
       .params = {{"path", "string", "(required)", "SWF file to load."},
                  {"completed_only", "bool", "true",
                   "Keep only completed jobs (SWF status 1), like the paper's "
                   "preprocessing."},
                  {"max_jobs", "int", "0",
                   "Cap on accepted jobs; 0 defers to the grid's n_jobs axis."},
                  {"memory_gb_per_node", "double", "4",
                   "Memory per node when the trace reports none."},
                  {"horizon", "time", "0",
                   "Keep only jobs submitted before this offset (30d, 12h, 3600); 0 = all."}},
       .generate = [](const ScenarioStage& stage, std::size_t n, std::uint64_t /*seed*/,
                      const GenerateOptions& options) {
         const StageParamReader params(stage);
         SwfOptions swf_options;
         swf_options.completed_only = params.get_bool("completed_only", true);
         swf_options.default_memory_gb_per_node =
             params.get_double("memory_gb_per_node", 4.0, 0.0, 1e9);
         swf_options.max_nodes = options.cluster.total_nodes;
         auto jobs = load_swf(params.require_string("path"), swf_options);
         const double horizon = params.get_duration("horizon", 0.0);
         if (horizon > 0.0) {
           jobs.erase(std::remove_if(jobs.begin(), jobs.end(),
                                     [&](const sim::Job& j) { return j.submit_time >= horizon; }),
                      jobs.end());
         }
         const auto cap = static_cast<std::size_t>(params.get_int("max_jobs", 0, 0, 1 << 30));
         truncate_and_renumber(jobs, cap > 0 ? cap : n);
         clamp_to_cluster(jobs, options.cluster);
         return jobs;
       }});

  registry.add(
      {.name = "trace",
       .display_label = "CSV trace",
       .doc = "Replay a workload saved with workload::save_jobs (internal CSV format).",
       .params = {{"path", "string", "(required)", "Jobs CSV to load."},
                  {"max_jobs", "int", "0",
                   "Cap on replayed jobs; 0 defers to the grid's n_jobs axis."}},
       .generate = [](const ScenarioStage& stage, std::size_t n, std::uint64_t /*seed*/,
                      const GenerateOptions& options) {
         const StageParamReader params(stage);
         auto jobs = load_jobs(params.require_string("path"));
         // total-order: arrival_order breaks submit-time ties by unique JobId.
         std::sort(jobs.begin(), jobs.end(), sim::arrival_order);
         const auto cap = static_cast<std::size_t>(params.get_int("max_jobs", 0, 0, 1 << 30));
         truncate_and_renumber(jobs, cap > 0 ? cap : n);
         clamp_to_cluster(jobs, options.cluster);
         return jobs;
       }});

  registry.add(
      {.name = "polaris",
       .display_label = "Polaris",
       .doc = "Polaris-like raw trace substitute + the paper's Section 5 preprocessing.",
       .params = {{"interarrival", "double", "180",
                   "Busy-period mean interarrival of the raw submission process, seconds."}},
       .generate = [](const ScenarioStage& stage, std::size_t n, std::uint64_t seed,
                      const GenerateOptions& options) {
         const StageParamReader params(stage);
         PolarisTraceConfig config;
         config.mean_interarrival_s = params.get_double("interarrival", 180.0, 1e-3, 1e9);
         auto jobs = polaris_jobs(n, seed, config);
         clamp_to_cluster(jobs, options.cluster);
         return jobs;
       }});
}

void register_transforms(ScenarioRegistry& registry) {
  registry.add_transform(
      {.name = "perturb",
       .doc = "Re-draw walltime estimates: walltime = runtime x U(MIN:MAX).",
       .params = {{"walltime_noise", "range", "1:1",
                   "Estimate over-request factor range; 1:1 resets estimates to exact."}},
       .apply = [](std::vector<sim::Job>& jobs, const ScenarioStage& stage, util::Rng& rng,
                   GenerateOptions&) {
         const StageParamReader params(stage);
         const auto [lo, hi] = params.get_range("walltime_noise", 1.0, 1.0, 1.0);
         for (auto& job : jobs) {
           job.walltime = job.duration * (hi > lo ? rng.uniform_real(lo, hi) : lo);
         }
       }});

  registry.add_transform(
      {.name = "stretch",
       .doc = "Rescale offered load: submit times divide by `load`, then shift.",
       .params = {{"load", "double", "1",
                   "Load multiplier (>1 compresses arrivals, raising contention)."},
                  {"shift", "time", "0", "Constant added to every submit time (30m, 3600)."}},
       .apply = [](std::vector<sim::Job>& jobs, const ScenarioStage& stage, util::Rng&,
                   GenerateOptions&) {
         const StageParamReader params(stage);
         const double load = params.get_double("load", 1.0, 1e-6, 1e6);
         const double shift = params.get_duration("shift", 0.0);
         for (auto& job : jobs) job.submit_time = job.submit_time / load + shift;
       }});

  registry.add_transform(
      {.name = "dag",
       .doc = "Inject layered workflow dependencies over the arrival order.",
       .params = {{"depth", "int", "2", "Number of dependency layers (arrival-contiguous)."},
                  {"fanout", "int", "2", "Max dependencies drawn from the previous layer."},
                  {"prob", "double", "1",
                   "Probability a non-first-layer job gets dependencies at all."}},
       .apply = [](std::vector<sim::Job>& jobs, const ScenarioStage& stage, util::Rng& rng,
                   GenerateOptions&) {
         const StageParamReader params(stage);
         const auto depth = static_cast<std::size_t>(params.get_int("depth", 2, 2, 1 << 20));
         const auto fanout = static_cast<std::size_t>(params.get_int("fanout", 2, 1, 1 << 20));
         const double prob = params.get_double("prob", 1.0, 0.0, 1.0);
         const std::size_t n = jobs.size();
         const std::size_t layers = std::min(depth, n);
         if (layers < 2) return;
         // Layer l spans [l*n/layers, (l+1)*n/layers) of the arrival order,
         // so every dependency points at an earlier arrival.
         for (std::size_t l = 1; l < layers; ++l) {
           const std::size_t prev_begin = (l - 1) * n / layers;
           const std::size_t prev_end = l * n / layers;
           const std::size_t end = (l + 1) * n / layers;
           for (std::size_t i = l * n / layers; i < end; ++i) {
             if (prob < 1.0 && !rng.bernoulli(prob)) continue;
             std::set<sim::JobId> deps(jobs[i].dependencies.begin(),
                                       jobs[i].dependencies.end());
             for (std::size_t k = 0; k < fanout; ++k) {
               const auto pick = static_cast<std::size_t>(
                   rng.uniform_int(static_cast<std::int64_t>(prev_begin),
                                   static_cast<std::int64_t>(prev_end) - 1));
               deps.insert(jobs[pick].id);
             }
             jobs[i].dependencies.assign(deps.begin(), deps.end());
           }
         }
       }});

  registry.add_transform(
      {.name = "crop",
       .doc = "Keep the submit-time window [offset, offset+horizon), renumber ids.",
       .params = {{"horizon", "time", "0", "Window length (30d, 12h, 3600); 0 = unbounded."},
                  {"offset", "time", "0", "Window start; submit times shift down by this."}},
       .apply = [](std::vector<sim::Job>& jobs, const ScenarioStage& stage, util::Rng&,
                   GenerateOptions&) {
         const StageParamReader params(stage);
         const double horizon = params.get_duration("horizon", 0.0);
         const double offset = params.get_duration("offset", 0.0);
         jobs.erase(std::remove_if(jobs.begin(), jobs.end(),
                                   [&](const sim::Job& j) {
                                     return j.submit_time < offset ||
                                            (horizon > 0.0 &&
                                             j.submit_time >= offset + horizon);
                                   }),
                    jobs.end());
         for (auto& job : jobs) job.submit_time -= offset;
         truncate_and_renumber(jobs, 0);
       }});

  registry.add_transform(
      {.name = "cluster",
       .doc = "Override the cell's cluster capacity (applies to engine + generation).",
       .params = {{"nodes", "int", "0", "Total nodes; 0 keeps the configured value."},
                  {"memory_gb", "double", "0", "Total memory; 0 keeps the configured value."}},
       .apply = [](std::vector<sim::Job>& jobs, const ScenarioStage&, util::Rng&,
                   GenerateOptions& options) {
         // The capacity override itself is hoisted ahead of generation
         // (effective_cluster); at pipeline position the stage only
         // re-clamps, which keeps the fit guarantee even for hand-built
         // pipelines that shrink capacity mid-stream.
         clamp_to_cluster(jobs, options.cluster);
       }});
}

}  // namespace

void register_scenarios(ScenarioRegistry& registry) {
  register_paper_scenarios(registry);
  register_trace_scenarios(registry);
  register_transforms(registry);
}

}  // namespace reasched::workload
