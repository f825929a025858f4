// The two panel workloads. A panel is a list of cells (scenario x job count
// x method) run one after another on one thread. The untraced path is what
// a harness user calls: harness::run_method, metrics::compute_metrics and
// harness::run_to_json per cell. The traced path runs the same cells through
// sim::Engine::run with thin wrappers around sim::Scheduler and llm::Client,
// so every layer's time is read from outside the library, and must give
// bit-identical outputs.

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "core/agent_config.hpp"
#include "core/react_agent.hpp"
#include "harness/experiment.hpp"
#include "harness/export.hpp"
#include "harness/methods.hpp"
#include "harness/sweep.hpp"
#include "llm/model_profile.hpp"
#include "llm/simulated_reasoner.hpp"
#include "metrics/metrics.hpp"
#include "sim/engine.hpp"
#include "workload/scenario_spec.hpp"

namespace e2e {

namespace {

using namespace reasched;

const std::vector<std::string> kPaperScenarios = {"homog_short",     "hetero_mix",
                                                  "long_job",        "high_parallel",
                                                  "resource_sparse", "bursty_idle",
                                                  "adversarial"};

/// Methods x scenarios x repetitions at one job count.
struct Group {
  std::vector<std::string> methods;
  std::vector<std::string> scenarios;
  std::size_t n_jobs;
  std::size_t reps;
};

/// Job lists come from this fixed seed, as in the paper's panel; the run's
/// seed drives every method's own randomness (decision noise, latency
/// sampling, SA restarts). Per-instance cost and wait are heavy-tailed
/// (opt:portfolio cell times at 50 jobs have a coefficient of variation of
/// about 2.5 across workload seeds), far more than a run can average out.
constexpr std::uint64_t kJobListSeed = 42;

/// Deep queues (hetero_mix, long_job, high_parallel, bursty_idle) stress
/// prompt rendering; shallow ones keep long scratchpad histories. 42 cells
/// of 100 jobs take about 3 s a round.
const std::vector<Group> kAgentPanel = {
    {{"agent:claude37", "agent:o4mini", "agent:claude37?window=auto"}, kPaperScenarios, 100, 2}};

/// opt:portfolio dominates the paper cells; the trace-scale Polaris replay
/// gives the engine and the heuristics a measurable share.
/// opt:portfolio?budget=auto is left out: it sizes its search from a
/// wall-clock probe, so its output is not reproducible.
const std::vector<Group> kBaselinePanel = {
    {{"fcfs", "sjf", "easy", "opt:portfolio"}, kPaperScenarios, 100, 4},
    {{"fcfs", "sjf", "easy"}, {"polaris|cluster?nodes=560&memory_gb=286720"}, 20000, 1}};

struct Cell {
  workload::ScenarioSpec scenario;
  harness::MethodSpec method;
  std::size_t n_jobs = 0;
  std::size_t workload = 0;  ///< index into Prepared::workloads
  sim::EngineConfig engine;
  std::uint64_t seed = 0;
};

struct Prepared {
  std::vector<Cell> cells;
  std::vector<std::vector<sim::Job>> workloads;
};

/// Set-up: parse every spec and generate every cell's job list (one list
/// per scenario and job count, shared by its methods, as the sweep does).
/// `span` times each generation for the traced run.
Prepared prepare(const std::vector<Group>& groups, std::uint64_t seed, SpanLog* spans) {
  harness::SweepConfig config;
  config.base_seed = seed;
  harness::SweepConfig jobs_config;
  jobs_config.base_seed = kJobListSeed;
  Prepared p;
  for (const Group& g : groups) {
    std::vector<harness::MethodSpec> methods;
    for (const std::string& m : g.methods) methods.push_back(harness::MethodSpec::parse(m));
    for (const std::string& s : g.scenarios) {
      const workload::ScenarioSpec scenario = workload::ScenarioSpec::parse(s);
      const sim::EngineConfig engine = harness::cell_engine(config, scenario);
      for (std::size_t rep = 0; rep < g.reps; ++rep) {
        {
          ScopedSpan span(spans, "generate", "workload",
                          static_cast<std::uint32_t>(p.workloads.size()));
          p.workloads.push_back(harness::cell_jobs(jobs_config, scenario, g.n_jobs, rep));
        }
        for (const harness::MethodSpec& method : methods) {
          p.cells.push_back(
              {scenario, method, g.n_jobs, p.workloads.size() - 1, engine,
               harness::cell_seed(config, harness::Cell{scenario, g.n_jobs, method, rep})});
        }
      }
    }
  }
  return p;
}

/// What one cell produced; compared across rounds and between the untraced
/// and traced paths.
struct CellOutput {
  harness::RunOutcome outcome;
  metrics::MetricSet recomputed;
  std::string json;
};

bool same_metrics(const metrics::MetricSet& a, const metrics::MetricSet& b) {
  for (const metrics::Metric m : metrics::all_metrics()) {
    if (std::bit_cast<std::uint64_t>(a.get(m)) != std::bit_cast<std::uint64_t>(b.get(m))) {
      return false;
    }
  }
  return std::bit_cast<std::uint64_t>(a.energy_kwh) == std::bit_cast<std::uint64_t>(b.energy_kwh);
}

bool same_decisions(const sim::ScheduleResult& a, const sim::ScheduleResult& b) {
  if (a.decisions.size() != b.decisions.size()) return false;
  for (std::size_t i = 0; i < a.decisions.size(); ++i) {
    const sim::DecisionRecord& x = a.decisions[i];
    const sim::DecisionRecord& y = b.decisions[i];
    if (std::bit_cast<std::uint64_t>(x.time) != std::bit_cast<std::uint64_t>(y.time) ||
        !(x.action == y.action) || x.accepted != y.accepted || x.thought != y.thought ||
        x.feedback != y.feedback) {
      return false;
    }
  }
  return true;
}

std::string cell_name(const Cell& c) {
  return c.method.to_string() + " on " + c.scenario.to_string() + "/" + std::to_string(c.n_jobs);
}

// ---------------------------------------------------------------- traced

/// Totals the wrappers collect across a traced round.
struct Counters {
  std::size_t llm_calls = 0;
  double prompt_bytes = 0.0;
  double simulated_latency_s = 0.0;
  std::size_t feedback_calls = 0;
};

class TimedClient final : public llm::Client {
 public:
  TimedClient(std::shared_ptr<llm::Client> inner, SpanLog& spans, Counters& counters,
              std::uint32_t cell)
      : inner_(std::move(inner)), spans_(spans), counters_(counters), cell_(cell) {}

  llm::Response complete(const llm::Request& request) override {
    ScopedSpan span(&spans_, "complete", "llm", cell_);
    llm::Response response = inner_->complete(request);
    ++counters_.llm_calls;
    counters_.prompt_bytes += static_cast<double>(request.prompt.size());
    counters_.simulated_latency_s += response.latency_seconds;
    return response;
  }
  std::string model_name() const override { return inner_->model_name(); }
  void reset() override {
    ScopedSpan span(&spans_, "reset", "llm", cell_);
    inner_->reset();
  }

 private:
  std::shared_ptr<llm::Client> inner_;
  SpanLog& spans_;
  Counters& counters_;
  std::uint32_t cell_;
};

/// Forwards every virtual of sim::Scheduler, charging the time to `layer`.
class TimedScheduler final : public sim::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<sim::Scheduler> inner, const char* layer, SpanLog& spans,
                 Counters& counters, std::uint32_t cell)
      : inner_(std::move(inner)), layer_(layer), spans_(spans), counters_(counters), cell_(cell) {}

  sim::Action decide(const sim::DecisionContext& ctx) override {
    ScopedSpan span(&spans_, "decide", layer_, cell_);
    return inner_->decide(ctx);
  }
  void on_feedback(const std::string& feedback, const sim::DecisionContext& ctx) override {
    ScopedSpan span(&spans_, "on_feedback", layer_, cell_);
    ++counters_.feedback_calls;
    inner_->on_feedback(feedback, ctx);
  }
  void on_accepted(const sim::Action& action, const sim::DecisionContext& ctx) override {
    ScopedSpan span(&spans_, "on_accepted", layer_, cell_);
    inner_->on_accepted(action, ctx);
  }
  std::string last_thought() const override { return inner_->last_thought(); }
  std::string name() const override { return inner_->name(); }
  std::vector<std::pair<std::string, double>> obs_counters() const override {
    return inner_->obs_counters();
  }
  void reset() override {
    ScopedSpan span(&spans_, "reset", layer_, cell_);
    inner_->reset();
  }
  const sim::Scheduler& inner() const { return *inner_; }

 private:
  std::unique_ptr<sim::Scheduler> inner_;
  const char* layer_;
  SpanLog& spans_;
  Counters& counters_;
  std::uint32_t cell_;
};

bool is_agent(const harness::MethodSpec& m) { return m.name.rfind("agent:", 0) == 0; }

const char* layer_of(const harness::MethodSpec& m) {
  if (is_agent(m)) return "core";
  if (m.name.rfind("opt:", 0) == 0) return "opt";
  return "sched";
}

/// The agent exactly as the method registry builds it, but over a wrapped
/// SimulatedReasoner.
std::unique_ptr<core::ReActAgent> make_traced_agent(const harness::MethodSpec& spec,
                                                     std::uint64_t seed, SpanLog& spans,
                                                     Counters& counters, std::uint32_t cell) {
  llm::ModelProfile profile;
  if (spec.name == "agent:claude37") {
    profile = llm::claude37_profile();
  } else if (spec.name == "agent:o4mini") {
    profile = llm::o4mini_profile();
  } else {
    throw std::invalid_argument("no traced agent for " + spec.to_string());
  }
  const harness::ParamReader params(spec);
  core::AgentConfig config;
  config.scratchpad_enabled = params.get_bool("scratchpad", config.scratchpad_enabled);
  config.scratchpad_token_budget = static_cast<int>(params.get_int(
      "scratchpad_budget", config.scratchpad_token_budget, 0, std::numeric_limits<int>::max()));
  config.objectives_in_prompt = params.get_bool("objectives", config.objectives_in_prompt);
  sim::PlanningWindow trace_default;
  trace_default.top_k = 32;
  trace_default.order = sim::PlanningWindow::Order::kArrival;
  config.window = params.get_window("window", trace_default);
  config.seed = seed;
  auto client = std::make_shared<TimedClient>(
      std::make_shared<llm::SimulatedReasoner>(profile, seed), spans, counters, cell);
  return std::make_unique<core::ReActAgent>(std::move(client), profile, config);
}

harness::OverheadSummary overhead_of(const core::ReActAgent& agent) {
  harness::OverheadSummary o;
  const llm::Transcript& t = agent.transcript();
  o.n_calls = t.n_calls();
  o.n_successful = t.n_successful();
  o.total_elapsed_s = t.total_elapsed_successful();
  o.latencies = t.successful_latencies();
  o.prompt_tokens = t.total_prompt_tokens();
  o.completion_tokens = t.total_completion_tokens();
  return o;
}

double us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

struct TracedRound {
  double wall_s = 0.0;
  std::vector<CellOutput> outputs;
  // Counts that are the same in every traced round of one seed.
  Counters counters;
  double parse_failures = 0.0, prompt_tokens = 0.0, completion_tokens = 0.0;
  double accepted_agent_actions = 0.0, decisions = 0.0, invalid = 0.0, forced = 0.0;
  double jobs = 0.0, export_bytes = 0.0, sched_calls = 0.0;
  double scheduler_engine_s = 0.0;  ///< building the scheduler plus Engine::run, children included
  std::map<std::string, double> values;  ///< derived figures, filled by run_panel
};

TracedRound traced_round(const std::vector<Group>& groups, std::uint64_t seed, SpanLog& spans) {
  TracedRound r;
  spans.clear();
  const std::int64_t t0 = now_ns();
  const Prepared p = prepare(groups, seed, &spans);
  for (std::size_t i = 0; i < p.cells.size(); ++i) {
    const Cell& c = p.cells[i];
    const auto id = static_cast<std::uint32_t>(i);
    const std::vector<sim::Job>& jobs = p.workloads[c.workload];
    ScopedSpan cell_span(&spans, "cell", "bench", id);
    std::unique_ptr<TimedScheduler> scheduler;
    const core::ReActAgent* agent = nullptr;
    {
      ScopedSpan span(&spans, "make_scheduler", "harness", id);
      std::unique_ptr<sim::Scheduler> inner;
      if (is_agent(c.method)) {
        auto a = make_traced_agent(c.method, c.seed, spans, r.counters, id);
        agent = a.get();
        inner = std::move(a);
      } else {
        inner = harness::make_scheduler(c.method, c.seed);
      }
      scheduler = std::make_unique<TimedScheduler>(std::move(inner), layer_of(c.method), spans,
                                                   r.counters, id);
    }
    CellOutput out;
    {
      ScopedSpan span(&spans, "engine.run", "sim", id);
      out.outcome.schedule = sim::Engine(c.engine).run(jobs, *scheduler);
    }
    {
      ScopedSpan span(&spans, "compute_metrics", "metrics", id);
      out.outcome.metrics = metrics::compute_metrics(out.outcome.schedule, c.engine.cluster);
    }
    out.recomputed = out.outcome.metrics;
    if (agent != nullptr) out.outcome.overhead = overhead_of(*agent);
    {
      ScopedSpan span(&spans, "run_to_json", "harness", id);
      out.json = harness::run_to_json(out.outcome, c.method, c.scenario);
    }
    const sim::ScheduleResult& s = out.outcome.schedule;
    r.decisions += static_cast<double>(s.n_decisions);
    r.invalid += static_cast<double>(s.n_invalid_actions);
    r.forced += static_cast<double>(s.n_forced_delays);
    r.export_bytes += static_cast<double>(out.json.size());
    if (agent != nullptr) {
      r.parse_failures += static_cast<double>(agent->parse_failures());
      r.prompt_tokens += static_cast<double>(agent->transcript().total_prompt_tokens());
      r.completion_tokens += static_cast<double>(agent->transcript().total_completion_tokens());
      for (const sim::DecisionRecord& d : s.decisions) {
        if (d.accepted && d.action.places_job()) r.accepted_agent_actions += 1.0;
      }
    } else if (std::string_view(layer_of(c.method)) == "opt") {
      for (const auto& [k, v] : scheduler->obs_counters()) r.values[k] += v;
    }
    r.outputs.push_back(std::move(out));
  }
  r.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  for (const auto& w : p.workloads) r.jobs += static_cast<double>(w.size());
  for (const Span& s : spans.spans()) {
    const std::string_view name(s.name);
    if (std::string_view(s.cat) == "sched" && name == "decide") r.sched_calls += 1.0;
    if (name == "make_scheduler" || name == "engine.run") {
      r.scheduler_engine_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  return r;
}

// -------------------------------------------------------------- untraced

struct Round {
  double wall_s = 0.0;
  double run_method_s = 0.0;
  double decisions = 0.0;
  std::vector<double> cell_us;
  std::vector<CellOutput> outputs;
};

Round untraced_round(const Prepared& p) {
  Round r;
  r.outputs.reserve(p.cells.size());
  for (const Cell& c : p.cells) {
    const std::vector<sim::Job>& jobs = p.workloads[c.workload];
    const std::int64_t t0 = now_ns();
    CellOutput out;
    out.outcome = harness::run_method(jobs, c.method, c.seed, c.engine);
    r.run_method_s += static_cast<double>(now_ns() - t0) * 1e-9;
    out.recomputed = metrics::compute_metrics(out.outcome.schedule, c.engine.cluster);
    out.json = harness::run_to_json(out.outcome, c.method, c.scenario);
    const std::int64_t t1 = now_ns();
    r.wall_s += static_cast<double>(t1 - t0) * 1e-9;
    r.cell_us.push_back(us(t1 - t0));
    r.decisions += static_cast<double>(out.outcome.schedule.n_decisions);
    r.outputs.push_back(std::move(out));
  }
  return r;
}

/// Checks one round's outputs independently; returns false on a failure.
void check_round(const Prepared& p, const Round& r, Result& result) {
  for (std::size_t i = 0; i < p.cells.size(); ++i) {
    const Cell& c = p.cells[i];
    const CellOutput& out = r.outputs[i];
    const metrics::MetricSet& m = out.outcome.metrics;
    if (!same_metrics(m, out.recomputed)) {
      result.fail(cell_name(c) + ": compute_metrics disagrees with run_method's MetricSet");
    }
    ScheduleCheck check;
    check.expected = &p.workloads[c.workload];
    check.records = &out.outcome.schedule.completed;
    check.cluster = c.engine.cluster;
    check.fcfs = c.method.name == "fcfs";
    check.reported = {m.makespan, m.avg_wait, m.avg_turnaround, m.node_util};
    for (const std::string& bad : check_schedule(check)) {
      result.fail(cell_name(c) + ": check " + bad + " failed");
    }
  }
}

void self_test(const Prepared& p, const Round& r, Result& result) {
  for (std::size_t i = 0; i < p.cells.size(); ++i) {
    const Cell& c = p.cells[i];
    const std::vector<sim::Job>& jobs = p.workloads[c.workload];
    double nodes = 0.0;
    for (const sim::Job& j : jobs) nodes += j.nodes;
    if (nodes <= 2.0 * c.engine.cluster.total_nodes || jobs.size() > 5000) continue;
    const metrics::MetricSet& m = r.outputs[i].outcome.metrics;
    ScheduleCheck check;
    check.expected = &jobs;
    check.records = &r.outputs[i].outcome.schedule.completed;
    check.cluster = c.engine.cluster;
    check.reported = {m.makespan, m.avg_wait, m.avg_turnaround, m.node_util};
    checker_self_test(check, result);
    return;
  }
  result.fail("no cell is large enough for the checker self-test");
}

void run_panel(const std::vector<Group>& groups, const Options& opt, Result& result) {
  // Set-up, several times; the median is reported.
  std::vector<double> setup;
  Prepared p;
  const double setup_until = now_s() + 0.3;
  for (int rep = 0; rep < 200 && (rep < 5 || now_s() < setup_until); ++rep) {
    const std::int64_t t0 = now_ns();
    Prepared q = prepare(groups, opt.seed, nullptr);
    setup.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (rep > 0) {
      for (std::size_t w = 0; w < q.workloads.size(); ++w) {
        if (q.workloads[w].size() != p.workloads[w].size()) {
          result.fail("workload generation is not deterministic");
        }
      }
    }
    p = std::move(q);
  }
  const std::size_t n_cells = p.cells.size();
  std::printf("panel: %zu cells, %zu job lists, seed %llu\n", n_cells, p.workloads.size(),
              static_cast<unsigned long long>(opt.seed));

  const double deadline = now_s() + opt.seconds;
  Round first;
  // Each cell's best time over the rounds: other tenants of this shared
  // machine stall a thread for milliseconds at a time, and a cell run again
  // gets another chance to miss them.
  std::vector<double> best_us(n_cells, std::numeric_limits<double>::infinity());
  std::vector<double> traced_walls, untraced_walls;
  // run_method's share that the traced path does not take: the ServiceEngine
  // replay around Engine::run.
  std::vector<double> run_method_walls, scheduler_engine_walls;
  TracedRound traced;
  std::size_t rounds = 0;
  do {
    // The traced round generates its job lists again; so does the untraced
    // round it is compared with.
    const double gen_t0 = now_s();
    if (opt.trace) prepare(groups, opt.seed, nullptr);
    const double gen_s = now_s() - gen_t0;
    Round r = untraced_round(p);
    result.attempted += n_cells;
    if (rounds == 0) {
      check_round(p, r, result);
      self_test(p, r, result);
    } else {
      for (std::size_t i = 0; i < n_cells; ++i) {
        if (r.outputs[i].json != first.outputs[i].json ||
            !same_decisions(r.outputs[i].outcome.schedule, first.outputs[i].outcome.schedule)) {
          result.fail(cell_name(p.cells[i]) + ": output differs between rounds");
        }
      }
    }
    for (std::size_t i = 0; i < n_cells; ++i) best_us[i] = std::min(best_us[i], r.cell_us[i]);
    std::printf("round %zu: wall %.4f s, %.0f decisions/s\n", rounds, r.wall_s,
                r.decisions / r.wall_s);
    if (opt.trace) {
      untraced_walls.push_back(gen_s + r.wall_s);
      SpanLog spans;
      TracedRound t = traced_round(groups, opt.seed, spans);
      for (std::size_t i = 0; i < n_cells; ++i) {
        const CellOutput& a = t.outputs[i];
        const CellOutput& b = r.outputs[i];
        if (a.json != b.json || !same_metrics(a.outcome.metrics, b.outcome.metrics) ||
            !same_decisions(a.outcome.schedule, b.outcome.schedule)) {
          result.fail(cell_name(p.cells[i]) + ": traced run differs from the untraced run");
        }
      }
      traced_walls.push_back(t.wall_s);
      run_method_walls.push_back(r.run_method_s);
      scheduler_engine_walls.push_back(t.scheduler_engine_s);
      std::printf("traced round %zu: wall %.4f s (untraced %.4f s)\n", rounds, t.wall_s,
                  gen_s + r.wall_s);
      if (rounds == 0) {
        if (!opt.trace_out.empty()) spans.write_chrome(opt.trace_out);
        // Self times and per-call distributions from the first traced round.
        const std::vector<std::int64_t> self = spans.self_times();
        std::vector<double> core_decide, opt_decide, sched_decide, llm_complete;
        std::map<std::string, double> self_by_cat;
        for (std::size_t i = 0; i < spans.spans().size(); ++i) {
          const Span& s = spans.spans()[i];
          const std::string_view cat(s.cat), name(s.name);
          self_by_cat[s.cat] += static_cast<double>(self[i]) * 1e-9;
          if (name == "decide") {
            if (cat == "core") core_decide.push_back(us(self[i]));
            if (cat == "opt") opt_decide.push_back(us(s.end_ns - s.start_ns));
            if (cat == "sched") sched_decide.push_back(us(s.end_ns - s.start_ns));
          } else if (name == "complete") {
            llm_complete.push_back(us(s.end_ns - s.start_ns));
          }
        }
        t.values["core.decide_p50_us"] = median(core_decide);
        t.values["core.decide_p99_us"] = quantile(core_decide, 0.99);
        t.values["opt.decide_p50_us"] = median(opt_decide);
        t.values["opt.decide_p99_us"] = quantile(opt_decide, 0.99);
        t.values["sched.decide_p99_us"] = quantile(sched_decide, 0.99);
        t.values["llm.complete_p99_us"] = quantile(llm_complete, 0.99);
        for (const auto& [cat, s] : self_by_cat) t.values["self." + cat] = s;
        traced = std::move(t);
      }
    }
    if (rounds == 0) first = std::move(r);
    ++rounds;
  } while (now_s() < deadline);

  std::map<std::string, double> m;
  double wall = 0.0;
  for (const double b : best_us) wall += b * 1e-6;
  m["wall_s"] = wall;
  m["decisions_per_s"] = first.decisions / wall;
  if (!opt.trace) {
    double makespan = 0.0, waits = 0.0, completed = 0.0;
    for (const CellOutput& out : first.outputs) {
      makespan += out.outcome.metrics.makespan;
      for (const sim::CompletedJob& c : out.outcome.schedule.completed) {
        waits += c.start_time - c.job.submit_time;
        completed += 1.0;
      }
    }
    m["setup_s"] = median(setup);
    m["peak_rss_mb"] = self_peak_rss_mb();
    m["makespan_s"] = makespan;
    m["avg_wait_s"] = waits / completed;
    std::printf("samples: %zu rounds; %zu cells, each timed by its best round\n", rounds,
                n_cells);
    result.emit(kEndToEnd, m);
    return;
  }

  // Per-layer metrics: counts and self times from the first traced round,
  // the overhead from the medians over rounds.
  const TracedRound& t = traced;
  auto get = [&](const std::string& k) {
    const auto it = t.values.find(k);
    return it == t.values.end() ? 0.0 : it->second;
  };
  double named = 0.0;
  for (const char* cat : {"workload", "sim", "sched", "opt", "core", "llm", "metrics", "harness"}) {
    named += get(std::string("self.") + cat);
  }
  const double first_wall = traced_walls.front();
  const double calls = static_cast<double>(t.counters.llm_calls);
  const double opt_s = get("self.opt");
  const double evals = get("opt/evaluations");
  const double steps = get("opt/steps_decoded") + get("opt/steps_reused");
  m["core.self_s"] = get("self.core");
  m["core.decide_p50_us"] = get("core.decide_p50_us");
  m["core.decide_p99_us"] = get("core.decide_p99_us");
  m["core.prompt_bytes_per_call"] = calls > 0.0 ? t.counters.prompt_bytes / calls : 0.0;
  m["core.feedback_calls"] = static_cast<double>(t.counters.feedback_calls);
  m["core.parse_failures"] = t.parse_failures;
  m["llm.complete_s"] = get("self.llm");
  m["llm.complete_p99_us"] = get("llm.complete_p99_us");
  m["llm.calls"] = calls;
  m["llm.accepted_per_call"] = calls > 0.0 ? t.accepted_agent_actions / calls : 0.0;
  m["llm.prompt_tokens"] = t.prompt_tokens;
  m["llm.completion_tokens"] = t.completion_tokens;
  m["llm.simulated_latency_s"] = t.counters.simulated_latency_s;
  m["opt.decide_s"] = opt_s;
  m["opt.decide_p50_us"] = get("opt.decide_p50_us");
  m["opt.decide_p99_us"] = get("opt.decide_p99_us");
  m["opt.replans"] = get("opt/replans");
  m["opt.evaluations"] = evals;
  m["opt.evals_per_s"] = opt_s > 0.0 ? evals / opt_s : 0.0;
  m["opt.cutoff_hit_ratio"] = evals > 0.0 ? get("opt/cutoff_hits") / evals : 0.0;
  m["opt.step_reuse_ratio"] = steps > 0.0 ? get("opt/steps_reused") / steps : 0.0;
  m["opt.bnb_nodes"] = get("opt/bnb_nodes");
  m["sched.decide_s"] = get("self.sched");
  m["sched.decide_p99_us"] = get("sched.decide_p99_us");
  m["sched.calls"] = t.sched_calls;
  m["sim.self_s"] = get("self.sim");
  m["sim.decisions"] = t.decisions;
  m["sim.invalid_actions"] = t.invalid;
  m["sim.forced_delays"] = t.forced;
  m["workload.generate_s"] = get("self.workload");
  m["workload.jobs"] = t.jobs;
  m["metrics.compute_s"] = get("self.metrics");
  m["harness.export_s"] = get("self.harness");
  m["harness.export_bytes"] = t.export_bytes;
  m["harness.replay_s"] = median(run_method_walls) - median(scheduler_engine_walls);
  m["unattributed_s"] = first_wall - named;
  m["trace_overhead_s"] = median(traced_walls) - median(untraced_walls);
  std::printf("traced: named layers %.4f s of %.4f s (%.2f%%)\n", named, first_wall,
              100.0 * named / first_wall);
  if (named < 0.95 * first_wall) {
    result.fail("named layers cover less than 95% of the traced wall time");
  }
  result.emit(kPerLayer, m);
}

}  // namespace

void run_agent_panel(const Options& opt, Result& result) { run_panel(kAgentPanel, opt, result); }

void run_baseline_panel(const Options& opt, Result& result) {
  run_panel(kBaselinePanel, opt, result);
}

}  // namespace e2e
