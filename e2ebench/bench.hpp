#pragma once

// Shared pieces of the end-to-end benchmark: the clock, quantiles, the
// result being built, the in-memory span log of the traced runs and the
// independent schedule checker.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/job.hpp"
#include "sim/schedule_result.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}
inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
/// Peak resident set of this process, MiB.
double self_peak_rss_mb();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string service;   ///< reasched_service binary (rjms_stream)
  std::string workdir;   ///< scratch directory inside the checkout
  std::string trace_out; ///< Chrome trace-event JSON written by a traced run
};

/// A metric BENCHMARK.json declares: every run reports each one of its kind.
struct MetricDef {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricDef> kEndToEnd;
/// Layers a workload does not exercise report 0.
extern const std::vector<MetricDef> kPerLayer;

/// What one run prints as its last line.
class Result {
 public:
  /// Adds every metric of `defs`, in order, from `values`. A missing
  /// end-to-end value or a non-finite value is a failure.
  void emit(const std::vector<MetricDef>& defs, const std::map<std::string, double>& values);
  /// A check failed: the run is reported as incorrect, with the reason on stderr.
  void fail(const std::string& what);
  bool correct() const { return correct_; }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string to_json() const;

 private:
  bool correct_ = true;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// Spans of a traced run, kept in memory and written at the end. `cat` is
/// the layer the span's self time is charged to.
struct Span {
  const char* name;
  const char* cat;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;          ///< index of the enclosing span, -1 for a root
  std::uint32_t id;    ///< cell or request the span belongs to
};

class SpanLog {
 public:
  int open(const char* name, const char* cat, std::uint32_t id);
  void close(int index);
  void clear();
  const std::vector<Span>& spans() const { return spans_; }
  /// Per-span self time (duration minus direct children), ns.
  std::vector<std::int64_t> self_times() const;
  /// Chrome trace-event JSON (complete "X" events), loadable in Perfetto.
  void write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, const char* cat, std::uint32_t id)
      : log_(log), index_(log != nullptr ? log->open(name, cat, id) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Metric values as the program reported them, compared with the checker's
/// own recomputation.
struct ReportedMetrics {
  double makespan = 0.0;
  double avg_wait = 0.0;
  double avg_turnaround = 0.0;
  double node_util = 0.0;
};

/// One schedule to check, written without the program's metric code: the
/// jobs that were accepted and not cancelled (each must complete exactly
/// once), the completion records, the cluster and the program's metrics.
struct ScheduleCheck {
  const std::vector<reasched::sim::Job>* expected = nullptr;
  const std::vector<reasched::sim::CompletedJob>* records = nullptr;
  reasched::sim::ClusterSpec cluster;
  bool fcfs = false;  ///< jobs must start in arrival order
  ReportedMetrics reported;
};

/// Names of the checks the schedule breaks; empty when it passes.
std::vector<std::string> check_schedule(const ScheduleCheck& in);

/// The checker's own metric formulas (metrics/metrics.hpp definitions).
ReportedMetrics recompute_metrics(const std::vector<reasched::sim::CompletedJob>& records,
                                  const reasched::sim::ClusterSpec& cluster);

/// Corrupts a passing schedule in each way the checker must catch and
/// reports a failure on `result` for every corruption it misses.
void checker_self_test(const ScheduleCheck& good, Result& result);

/// Workloads.
void run_agent_panel(const Options& opt, Result& result);
void run_baseline_panel(const Options& opt, Result& result);
void run_rjms_stream(const Options& opt, Result& result);

}  // namespace e2e
