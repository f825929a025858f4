// Independent schedule checker. It reads only the submitted jobs and the
// completion records and recomputes every metric with its own formulas, so
// a fault in the engine, the schedulers or metrics::compute_metrics shows
// up as a mismatch instead of being checked against itself.

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>
#include <unordered_map>

#include "bench.hpp"

namespace e2e {

using reasched::sim::CompletedJob;
using reasched::sim::Job;
using reasched::sim::JobId;

namespace {

bool close_rel(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({std::fabs(a), std::fabs(b), 1e-9});
}

double runtime_of(const CompletedJob& r, const Job& submitted) {
  return r.killed_at_walltime ? submitted.walltime : submitted.duration;
}

}  // namespace

ReportedMetrics recompute_metrics(const std::vector<CompletedJob>& records,
                                  const reasched::sim::ClusterSpec& cluster) {
  ReportedMetrics m;
  if (records.empty()) return m;
  double min_submit = records.front().job.submit_time;
  double max_end = records.front().end_time;
  double wait = 0.0, turnaround = 0.0, node_seconds = 0.0;
  for (const CompletedJob& r : records) {
    min_submit = std::min(min_submit, r.job.submit_time);
    max_end = std::max(max_end, r.end_time);
    wait += r.start_time - r.job.submit_time;
    turnaround += r.end_time - r.job.submit_time;
    node_seconds += static_cast<double>(r.job.nodes) * (r.end_time - r.start_time);
  }
  const auto n = static_cast<double>(records.size());
  m.makespan = max_end - min_submit;
  m.avg_wait = wait / n;
  m.avg_turnaround = turnaround / n;
  m.node_util = m.makespan > 0.0
                    ? node_seconds / (static_cast<double>(cluster.total_nodes) * m.makespan)
                    : 0.0;
  return m;
}

std::vector<std::string> check_schedule(const ScheduleCheck& in) {
  std::set<std::string> bad;
  const std::vector<Job>& expected = *in.expected;
  const std::vector<CompletedJob>& records = *in.records;

  std::unordered_map<JobId, const Job*> want;
  for (const Job& j : expected) want.emplace(j.id, &j);
  std::unordered_map<JobId, const CompletedJob*> got;
  for (const CompletedJob& r : records) {
    if (want.count(r.job.id) == 0 || !got.emplace(r.job.id, &r).second) {
      bad.insert("completion_once");
    }
  }
  if (got.size() != want.size()) bad.insert("completion_once");

  struct Change {
    double time;
    int order;  // releases (0) before claims (1) at one instant
    double nodes;
    double memory;
  };
  std::vector<Change> changes;
  changes.reserve(2 * records.size());
  for (const CompletedJob& r : records) {
    const auto it = want.find(r.job.id);
    if (it == want.end()) continue;
    const Job& w = *it->second;
    if (r.job.submit_time != w.submit_time || r.job.nodes != w.nodes ||
        r.job.memory_gb != w.memory_gb) {
      bad.insert("job_fields");
    }
    if (r.start_time < w.submit_time) bad.insert("start_after_submit");
    if (std::fabs((r.end_time - r.start_time) - runtime_of(r, w)) >
        1e-9 * std::max(1.0, std::fabs(r.end_time))) {
      bad.insert("runtime");
    }
    for (const JobId dep : w.dependencies) {
      const auto d = got.find(dep);
      if (d == got.end() || d->second->end_time > r.start_time) bad.insert("dependency_order");
    }
    changes.push_back({r.start_time, 1, static_cast<double>(w.nodes), w.memory_gb});
    changes.push_back({r.end_time, 0, -static_cast<double>(w.nodes), -w.memory_gb});
  }
  std::sort(changes.begin(), changes.end(), [](const Change& a, const Change& b) {
    return std::tie(a.time, a.order) < std::tie(b.time, b.order);
  });
  double nodes = 0.0, memory = 0.0;
  for (const Change& c : changes) {
    nodes += c.nodes;
    memory += c.memory;
    if (nodes > static_cast<double>(in.cluster.total_nodes)) bad.insert("capacity_nodes");
    if (memory > in.cluster.total_memory_gb * (1.0 + 1e-12) + 1e-9) bad.insert("capacity_memory");
  }

  if (in.fcfs) {
    std::vector<const CompletedJob*> by_arrival;
    for (const CompletedJob& r : records) by_arrival.push_back(&r);
    std::sort(by_arrival.begin(), by_arrival.end(), [](const auto* a, const auto* b) {
      return std::tie(a->job.submit_time, a->job.id) < std::tie(b->job.submit_time, b->job.id);
    });
    for (std::size_t i = 1; i < by_arrival.size(); ++i) {
      if (by_arrival[i]->start_time < by_arrival[i - 1]->start_time) bad.insert("fcfs_order");
    }
  }

  const ReportedMetrics m = recompute_metrics(records, in.cluster);
  if (!close_rel(m.makespan, in.reported.makespan)) bad.insert("metric_makespan");
  if (!close_rel(m.avg_wait, in.reported.avg_wait)) bad.insert("metric_avg_wait");
  if (!close_rel(m.avg_turnaround, in.reported.avg_turnaround)) {
    bad.insert("metric_avg_turnaround");
  }
  if (!close_rel(m.node_util, in.reported.node_util)) bad.insert("metric_node_util");
  return {bad.begin(), bad.end()};
}

void checker_self_test(const ScheduleCheck& good, Result& result) {
  const std::vector<Job>& jobs = *good.expected;
  const std::vector<CompletedJob>& records = *good.records;
  if (records.size() < 3) {
    result.fail("checker self-test needs a schedule of at least three jobs");
    return;
  }
  auto expect_fires = [&](const char* what, const char* check, const std::vector<Job>& j,
                          const std::vector<CompletedJob>& r, const ReportedMetrics& rep,
                          bool fcfs) {
    ScheduleCheck c = good;
    c.expected = &j;
    c.records = &r;
    c.reported = rep;
    c.fcfs = fcfs;
    const std::vector<std::string> bad = check_schedule(c);
    if (std::find(bad.begin(), bad.end(), check) == bad.end()) {
      result.fail(std::string("checker missed a corrupted schedule (") + what + ", expected " +
                  check + " to fire)");
    }
  };
  const std::size_t mid = records.size() / 2;

  // Over-allocation: every job starts at the latest submit time.
  {
    std::vector<CompletedJob> r = records;
    double t = 0.0, total_nodes = 0.0;
    for (const CompletedJob& c : r) {
      t = std::max(t, c.job.submit_time);
      total_nodes += c.job.nodes;
    }
    for (CompletedJob& c : r) {
      const double run = c.end_time - c.start_time;
      c.start_time = t;
      c.end_time = t + run;
    }
    if (total_nodes <= good.cluster.total_nodes) {
      result.fail("checker self-test schedule is too small to over-allocate");
    }
    expect_fires("over-allocation", "capacity_nodes", jobs, r, good.reported, false);
  }
  // A job starts before it was submitted.
  {
    std::vector<CompletedJob> r = records;
    const double run = r[mid].end_time - r[mid].start_time;
    r[mid].start_time = r[mid].job.submit_time - 1.0;
    r[mid].end_time = r[mid].start_time + run;
    expect_fires("start before submit", "start_after_submit", jobs, r, good.reported, false);
  }
  // Altered reported metrics.
  {
    ReportedMetrics rep = good.reported;
    rep.avg_wait = rep.avg_wait * (1.0 + 1e-6) + 1e-6;
    expect_fires("altered wait", "metric_avg_wait", jobs, records, rep, false);
    rep = good.reported;
    rep.makespan *= 1.0 + 1e-6;
    expect_fires("altered makespan", "metric_makespan", jobs, records, rep, false);
    rep = good.reported;
    rep.avg_turnaround *= 1.0 + 1e-6;
    expect_fires("altered turnaround", "metric_avg_turnaround", jobs, records, rep, false);
    rep = good.reported;
    rep.node_util *= 1.0 + 1e-6;
    expect_fires("altered utilisation", "metric_node_util", jobs, records, rep, false);
  }
  // A job runs longer than its runtime.
  {
    std::vector<CompletedJob> r = records;
    r[mid].end_time += 1.0;
    expect_fires("altered runtime", "runtime", jobs, r, good.reported, false);
  }
  // A job is lost, or completes twice.
  {
    std::vector<CompletedJob> r(records.begin(), records.end() - 1);
    expect_fires("lost job", "completion_once", jobs, r, good.reported, false);
    r = records;
    r.push_back(records[mid]);
    expect_fires("duplicate completion", "completion_once", jobs, r, good.reported, false);
  }
  // A dependent starts before its dependency ends.
  {
    std::vector<Job> j = jobs;
    const CompletedJob* first = &records.front();
    for (const CompletedJob& c : records) {
      if (c.end_time > first->end_time) first = &c;
    }
    const CompletedJob* dependent = &records.front();
    for (const CompletedJob& c : records) {
      if (c.start_time < dependent->start_time) dependent = &c;
    }
    for (Job& job : j) {
      if (job.id == dependent->job.id) job.dependencies.push_back(first->job.id);
    }
    expect_fires("dependency violated", "dependency_order", j, records, good.reported, false);
  }
  // Jobs start out of arrival order.
  {
    std::vector<CompletedJob> r = records;
    std::sort(r.begin(), r.end(), [](const CompletedJob& a, const CompletedJob& b) {
      return std::tie(a.job.submit_time, a.job.id) < std::tie(b.job.submit_time, b.job.id);
    });
    CompletedJob& a = r.front();
    CompletedJob& b = r.back();
    const double run_a = a.end_time - a.start_time;
    const double run_b = b.end_time - b.start_time;
    std::swap(a.start_time, b.start_time);
    a.start_time = std::max(a.start_time, b.start_time + 1.0);
    a.end_time = a.start_time + run_a;
    b.end_time = b.start_time + run_b;
    expect_fires("arrival order broken", "fcfs_order", jobs, r, good.reported, true);
  }
}

}  // namespace e2e
