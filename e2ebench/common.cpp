#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"

namespace e2e {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"makespan_s", "s"},
    {"avg_wait_s", "s"},
};

const std::vector<MetricDef> kPerLayer = {
    {"wall_s", "s"},
    {"decisions_per_s", "1/s"},
    {"core.self_s", "s"},
    {"core.decide_p50_us", "us"},
    {"core.decide_p99_us", "us"},
    {"core.prompt_bytes_per_call", "B"},
    {"core.feedback_calls", "count"},
    {"core.parse_failures", "count"},
    {"llm.complete_s", "s"},
    {"llm.complete_p99_us", "us"},
    {"llm.calls", "count"},
    {"llm.accepted_per_call", "ratio"},
    {"llm.prompt_tokens", "count"},
    {"llm.completion_tokens", "count"},
    {"llm.simulated_latency_s", "s"},
    {"opt.decide_s", "s"},
    {"opt.decide_p50_us", "us"},
    {"opt.decide_p99_us", "us"},
    {"opt.replans", "count"},
    {"opt.evaluations", "count"},
    {"opt.evals_per_s", "1/s"},
    {"opt.cutoff_hit_ratio", "ratio"},
    {"opt.step_reuse_ratio", "ratio"},
    {"opt.bnb_nodes", "count"},
    {"sched.decide_s", "s"},
    {"sched.decide_p99_us", "us"},
    {"sched.calls", "count"},
    {"sim.self_s", "s"},
    {"sim.decisions", "count"},
    {"sim.invalid_actions", "count"},
    {"sim.forced_delays", "count"},
    {"sim.steps", "count"},
    {"workload.generate_s", "s"},
    {"workload.jobs", "count"},
    {"metrics.compute_s", "s"},
    {"harness.export_s", "s"},
    {"harness.export_bytes", "B"},
    {"harness.replay_s", "s"},
    {"service.parse_us_per_req", "us"},
    {"service.submit_p99_us", "us"},
    {"service.advance_s", "s"},
    {"service.advance_p99_us", "us"},
    {"service.query_s", "s"},
    {"service.drain_s", "s"},
    {"obs.stats_s", "s"},
    {"obs.stats_bytes", "B"},
    {"obs.runlog_rows", "count"},
    {"apps.io_us_per_req", "us"},
    {"client.req_p50_us", "us"},
    {"client.req_p99_us", "us"},
    {"client.max_rps", "1/s"},
    {"client.send_late_p50_us", "us"},
    {"client.send_late_p99_us", "us"},
    {"unattributed_s", "s"},
    {"trace_overhead_s", "s"},
};

void Result::emit(const std::vector<MetricDef>& defs,
                  const std::map<std::string, double>& values) {
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    double v = 0.0;
    if (it != values.end()) {
      v = it->second;
    } else if (&defs == &kEndToEnd) {
      fail(std::string("end-to-end metric ") + d.name + " was not measured");
    }
    if (!std::isfinite(v)) {
      fail(std::string("metric ") + d.name + " is not finite");
      v = 0.0;
    }
    metrics_.push_back({d.name, {v, d.unit}});
  }
}

void Result::fail(const std::string& what) {
  correct_ = false;
  std::fprintf(stderr, "e2e_bench: CHECK FAILED: %s\n", what.c_str());
}

std::string Result::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", vu.first);
    if (i > 0) out += ", ";
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" + vu.second + "\"}";
  }
  out += "}}";
  return out;
}

int SpanLog::open(const char* name, const char* cat, std::uint32_t id) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, cat, now_ns(), 0, parent, id});
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  stack_.pop_back();
}

void SpanLog::clear() {
  spans_.clear();
  stack_.clear();
}

std::vector<std::int64_t> SpanLog::self_times() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -= spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return self;
}

void SpanLog::write_chrome(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  f << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":1,\"args\":{\"id\":%u,\"span\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name, s.cat,
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.id, i, s.parent);
    f << buf;
  }
  f << "\n]}\n";
  if (!f) throw std::runtime_error("short write to " + path);
}

}  // namespace e2e
