// Sustained-load service-mode bench: steady-state throughput of the online
// ServiceEngine - an ArrivalStream feeding 10^4+ jobs through the live
// submit/advance path (buffer admission, stream pumping, event stepping)
// instead of one batch load. This is the service analogue of
// micro_engine_scaling and the profiling harness for the backfill
// candidate-descent question: `homog_short` at a high rate_scale is exactly
// the pathological homogeneous backlog where the descent's subtree pruning
// has the least to cut, so comparing easy against fcfs (no descent) under
// identical sustained overload bounds what the descent costs in practice.
//
//   ./bench/service_sustained_load [--jobs 10000] [--batch 1000]
//       [--methods fcfs,sjf,easy] [--scenarios homog_short,bursty_idle]
//       [--rate 64] [--advances 200] [--seed 12345] [--reps 3]
//       [--max-overhead-pct 2.0] [--json out.json]
//
// --rate scales arrival density (gaps divided by rate): high rates keep a
// deep waiting queue throughout, which is the sustained-load regime. The
// clock is advanced in --advances equal slices of the arrival span before a
// final drain, so stream pumping and buffer flushing run interleaved with
// event stepping the way a live RJMS session drives them.
//
// --json records `service/<scenario>/<method>/jobsN/jobs_per_s` for the CI
// bench-regression gate (tools/compare_bench.py --gate-suffix jobs_per_s);
// peak queue depth and decisions/sec ride along as informational metrics.
//
// Each cell also reruns with telemetry enabled (obs counters + sampled
// spans + per-completion run-log accounting), records `obs_on_jobs_per_s`,
// and the aggregate slowdown must stay under --max-overhead-pct (default
// 2%, 0 disables) - the service-path half of the observability overhead
// gate (micro_engine_scaling gates the batch engine path).

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics_registry.hpp"
#include "service/service_engine.hpp"
#include "util/cli.hpp"
#include "util/string_utils.hpp"
#include "util/table.hpp"

using namespace reasched;

namespace {

struct RunStats {
  double elapsed_s = 0.0;
  double jobs_per_s = 0.0;
  double dec_per_s = 0.0;
  std::size_t completed = 0;
  std::size_t decisions = 0;
  std::size_t peak_waiting = 0;
  double makespan = 0.0;
};

RunStats run_sustained_once(const std::string& method, const std::string& scenario,
                            std::size_t jobs, std::size_t batch, double rate,
                            std::size_t advances, std::uint64_t seed) {
  service::ServiceConfig config;
  config.method = harness::MethodSpec::parse(method);
  config.seed = seed;
  config.engine.record_traces = false;  // isolate scheduling cost
  const std::size_t batches = (jobs + batch - 1) / batch;
  config.stream = workload::make_stream_spec(scenario, batch, batches, rate);

  // Probe the arrival span once so the advance slices cover the whole
  // stream; the probe stream is independent of the session's.
  double span = 0.0;
  {
    workload::ArrivalStream probe(config.stream, util::derive_seed(seed, "stream"), {});
    while (!probe.exhausted()) span = probe.pop().submit_time;
  }

  service::ServiceEngine engine(config);
  RunStats stats;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 1; i <= advances; ++i) {
    engine.advance_to(span * static_cast<double>(i) / static_cast<double>(advances));
    const std::size_t waiting = engine.status().n_waiting;
    if (waiting > stats.peak_waiting) stats.peak_waiting = waiting;
  }
  const service::DrainResult& result = engine.drain();
  const auto t1 = std::chrono::steady_clock::now();

  stats.elapsed_s = std::chrono::duration<double>(t1 - t0).count();
  stats.completed = result.schedule.completed.size();
  stats.decisions = result.schedule.n_decisions;
  stats.jobs_per_s = static_cast<double>(stats.completed) / stats.elapsed_s;
  stats.dec_per_s = static_cast<double>(stats.decisions) / stats.elapsed_s;
  stats.makespan = result.metrics.makespan;
  return stats;
}

/// One cell measured `reps` times with telemetry off and on, as interleaved
/// off/on pairs (the session is deterministic, so every rep produces the
/// identical schedule; only timing varies). `off`/`on` carry the best-of
/// wall time (the reported throughput figures); `off_s`/`on_s` keep every
/// rep's wall time so the overhead gate can aggregate per-rep pairs.
struct PairedTiming {
  RunStats off, on;
  std::vector<double> off_s, on_s;
};

PairedTiming run_sustained_pair(const std::string& method, const std::string& scenario,
                                std::size_t jobs, std::size_t batch, double rate,
                                std::size_t advances, std::uint64_t seed, std::size_t reps) {
  PairedTiming t;
  for (std::size_t r = 0; r < reps; ++r) {
    // Alternate which side of the pair runs first: a fixed off-then-on
    // order would systematically hand the off side the cooler/boosted CPU
    // and bias the overhead estimate upward.
    RunStats first, second;
    const bool on_first = (r % 2) == 1;
    obs::set_enabled(on_first);
    first = run_sustained_once(method, scenario, jobs, batch, rate, advances, seed);
    obs::set_enabled(!on_first);
    second = run_sustained_once(method, scenario, jobs, batch, rate, advances, seed);
    obs::set_enabled(false);
    const RunStats& off = on_first ? second : first;
    const RunStats& on = on_first ? first : second;
    t.off_s.push_back(off.elapsed_s);
    t.on_s.push_back(on.elapsed_s);
    if (r == 0 || off.elapsed_s < t.off.elapsed_s) t.off = off;
    if (r == 0 || on.elapsed_s < t.on.elapsed_s) t.on = on;
  }
  // Throughput figures recomputed from the best wall time.
  t.off.jobs_per_s = static_cast<double>(t.off.completed) / t.off.elapsed_s;
  t.off.dec_per_s = static_cast<double>(t.off.decisions) / t.off.elapsed_s;
  t.on.jobs_per_s = static_cast<double>(t.on.completed) / t.on.elapsed_s;
  t.on.dec_per_s = static_cast<double>(t.on.decisions) / t.on.elapsed_s;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const auto jobs = static_cast<std::size_t>(args.get_int("jobs", 10000));
  const auto batch = static_cast<std::size_t>(args.get_int("batch", 1000));
  const auto advances = static_cast<std::size_t>(args.get_int("advances", 200));
  const double rate = args.get_double("rate", 64.0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 12345));
  const auto reps = static_cast<std::size_t>(args.get_int("reps", 3));
  const std::string json_path = args.get("json", "");
  const double max_overhead_pct = args.get_double("max-overhead-pct", 2.0);
  bench::BenchJson json;

  std::vector<std::string> methods = util::split(args.get("methods", "fcfs,sjf,easy"), ',');
  std::vector<std::string> scenarios =
      util::split(args.get("scenarios", "homog_short,bursty_idle"), ',');

  bench::print_header(
      "Service sustained load",
      "Online ServiceEngine throughput under a rate-scaled arrival stream\n"
      "(live submit/advance/drain path; jobs/s is the gated figure).");
  std::printf("jobs=%zu batch=%zu rate=%.0fx advances=%zu seed=%llu best-of=%zu\n\n", jobs,
              batch, rate, advances, static_cast<unsigned long long>(seed), reps);

  bool all_match = true;
  // Per-rep wall-time totals across every cell: rep r's telemetry-off runs
  // summed, and its telemetry-on runs summed. The gate uses the median of
  // the per-rep on/off ratios - pairing cancels common-mode drift (both
  // sides of a pair share the machine's current speed) and the median
  // discards the occasional scheduling spike that poisons min- or
  // mean-based comparisons on ~25ms measurements.
  std::vector<double> rep_off_s(reps, 0.0), rep_on_s(reps, 0.0);
  for (const std::string& scenario : scenarios) {
    util::TextTable table({"method", "jobs/s", "dec/s", "decisions", "peak wait", "wall (s)",
                           "obs ovh"});
    for (const std::string& method : methods) {
      const PairedTiming t =
          run_sustained_pair(method, scenario, jobs, batch, rate, advances, seed, reps);
      const RunStats& s = t.off;
      const RunStats& on = t.on;
      // Observe-only cross-check: the instrumented session is the same
      // deterministic session, so its schedule must be identical.
      all_match = all_match && on.decisions == s.decisions && on.completed == s.completed &&
                  on.makespan == s.makespan;
      const double overhead_pct = (on.elapsed_s - s.elapsed_s) / s.elapsed_s * 100.0;
      for (std::size_t r = 0; r < reps; ++r) {
        rep_off_s[r] += t.off_s[r];
        rep_on_s[r] += t.on_s[r];
      }
      table.add_row({method, util::TextTable::num(s.jobs_per_s, 0),
                     util::TextTable::num(s.dec_per_s, 0), std::to_string(s.decisions),
                     std::to_string(s.peak_waiting), util::TextTable::num(s.elapsed_s, 3),
                     util::format("%+.2f%%", overhead_pct)});
      const std::string prefix =
          util::format("service/%s/%s/jobs%zu", scenario.c_str(), method.c_str(), jobs);
      json.add(prefix + "/jobs_per_s", s.jobs_per_s);
      json.add(prefix + "/obs_on_jobs_per_s", on.jobs_per_s);
      json.add(prefix + "/peak_waiting", static_cast<double>(s.peak_waiting));
      json.add(prefix + "/decisions", static_cast<double>(s.decisions));
    }
    std::printf("%s (span-sliced advances, then drain):\n", scenario.c_str());
    std::printf("%s\n", table.render().c_str());
  }

  json.save_if(json_path);

  if (!all_match) {
    std::printf("\nFAIL: telemetry-on session diverged from telemetry-off.\n");
    return 1;
  }
  std::vector<double> rep_ratios;
  for (std::size_t r = 0; r < reps; ++r) rep_ratios.push_back(rep_on_s[r] / rep_off_s[r]);
  const double total_overhead_pct = (util::quantile(rep_ratios, 0.5) - 1.0) * 100.0;
  std::printf("telemetry overhead: %+.2f%% (median of %zu paired reps; gate: <%.1f%%)\n",
              total_overhead_pct, reps, max_overhead_pct);
  if (max_overhead_pct > 0.0 && total_overhead_pct > max_overhead_pct) {
    std::printf("FAIL: telemetry overhead above the gate.\n");
    return 1;
  }
  return 0;
}
