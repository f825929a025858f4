#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/action.hpp"
#include "sim/job.hpp"

namespace reasched::sim {

/// One finished job with its realized schedule: wait = start - submit,
/// turnaround = end - submit (paper Section 3.2).
struct CompletedJob {
  Job job;
  double start_time = 0.0;
  double end_time = 0.0;
  /// True when the engine terminated the job at its walltime limit
  /// (only with EngineConfig::enforce_walltime).
  bool killed_at_walltime = false;

  double wait_time() const { return start_time - job.submit_time; }
  double turnaround_time() const { return end_time - job.submit_time; }
};

/// Owned decision-trace text that pays for storage only when it has text:
/// one pointer wide, null when empty. Only reasoning schedulers (the LLM
/// agents, the optimizer's replan notes) and rejected actions produce text,
/// so most records of a heuristic run hold none. Copies are deep. Readers
/// see a `const std::string&` (an empty one when null); equality compares
/// content.
class TraceText {
 public:
  TraceText() = default;
  TraceText(const TraceText& other) { *this = other.str(); }
  TraceText(TraceText&&) noexcept = default;
  TraceText& operator=(const TraceText& other) {
    if (this != &other) *this = other.str();
    return *this;
  }
  TraceText& operator=(TraceText&&) noexcept = default;
  ~TraceText() = default;

  /// Stores `text`; an empty string stores nothing.
  TraceText& operator=(std::string text) {
    text_ = text.empty() ? nullptr : std::make_unique<const std::string>(std::move(text));
    return *this;
  }

  bool empty() const { return text_ == nullptr; }
  const std::string& str() const;
  operator const std::string&() const { return str(); }  // NOLINT(google-explicit-constructor)

  friend bool operator==(const TraceText& a, const TraceText& b) { return a.str() == b.str(); }
  friend bool operator==(const TraceText& a, const std::string& b) { return a.str() == b; }

 private:
  std::unique_ptr<const std::string> text_;
};

/// One scheduler query and its outcome, including the natural-language
/// thought (when the scheduler exposes one) and any constraint feedback -
/// this is the machine-readable form of the paper's Figure 2 traces.
struct DecisionRecord {
  double time = 0.0;
  Action action;
  bool accepted = false;
  TraceText thought;
  TraceText feedback;  ///< non-empty only for rejected actions
};
// A trace-scale replay holds tens of thousands of records per cell; text
// lives out of line so a text-free record stays this small.
static_assert(sizeof(DecisionRecord) <= 40, "DecisionRecord grew: keep trace text out of line");

/// Full outcome of one simulation run.
struct ScheduleResult {
  std::vector<CompletedJob> completed;
  std::vector<DecisionRecord> decisions;

  /// Simulation clock when the last job completed.
  double final_time = 0.0;

  /// Bookkeeping counters the evaluation reads off.
  std::size_t n_decisions = 0;        ///< scheduler queries issued
  std::size_t n_invalid_actions = 0;  ///< rejected by constraint enforcement
  std::size_t n_forced_delays = 0;    ///< retries exhausted, engine forced Delay
  std::size_t n_backfills = 0;        ///< accepted BackfillJob actions

  /// Find the record for `id`; throws std::out_of_range when absent.
  const CompletedJob& find(JobId id) const;
  bool all_completed(std::size_t expected_jobs) const {
    return completed.size() == expected_jobs;
  }

  /// Wait/turnaround vectors in job-id order, for metric computation.
  std::vector<double> wait_times() const;
  std::vector<double> turnaround_times() const;
};

}  // namespace reasched::sim
