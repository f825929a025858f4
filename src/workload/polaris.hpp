#pragma once

#include <cstdint>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/job.hpp"
#include "util/csv.hpp"

namespace reasched::workload {

/// Substitute for the proprietary Polaris (ALCF) November-2024 job-history
/// logs used in paper Section 5. We cannot ship the real trace, so this
/// module provides (a) a statistically Polaris-like raw-trace generator in
/// the shape of the public job-history logs, and (b) the paper's exact
/// preprocessing pipeline, which also accepts a real trace CSV if one is
/// available. See DESIGN.md "Substitutions" for the fidelity argument.
///
/// The pipeline is typed: the generator emits PolarisRawRow values and
/// preprocessing consumes them, so a synthetic replay never formats or
/// parses a number. CSV is only the adapter at the edge -
/// generate_polaris_raw_trace renders rows as the raw-trace CSV and
/// preprocess_polaris_trace parses a CSV (synthetic or real) into rows.
///
/// Raw-trace columns:
///   JOB_NAME, USER, GROUP, SUBMIT_TIMESTAMP, START_TIMESTAMP,
///   END_TIMESTAMP, NODES_REQUESTED, WALLTIME_SECONDS, QUEUED_WAIT_SECONDS,
///   EXIT_STATUS
/// Timestamps are Unix epoch seconds. EXIT_STATUS -1 marks failed jobs
/// (filtered by preprocessing, as in the paper).
struct PolarisTraceConfig {
  std::size_t n_jobs = 140;  ///< raw rows; ~8% fail and are filtered out
  double failed_fraction = 0.08;
  /// Busy-period submission rate; produces the queueing contention that
  /// makes the Figure 8 comparison non-trivial (an idle-at-zero cluster
  /// absorbs sparse arrivals with zero waits for every scheduler).
  double mean_interarrival_s = 180.0;
  int n_users = 20;
  int n_groups = 6;
  /// Nov 1 2024 00:00:00 UTC.
  std::int64_t epoch_start = 1730419200;
};

/// One raw-trace row. Times are whole epoch seconds, as the logs record
/// them. `user` and `group` are raw account ids (USER polaris_user_07 is
/// user 7); preprocessing re-factorizes them, so any injective numbering
/// of the account names works. `wait` is informational: preprocessing
/// reads START/END, and the CSV adapter leaves it 0.
struct PolarisRawRow {
  double submit = 0.0;
  double start = 0.0;
  double end = 0.0;
  double walltime = 0.0;
  double wait = 0.0;
  int nodes = 1;
  int user = 0;
  int group = 0;
  bool failed = false;  ///< EXIT_STATUS == -1
};

/// Generate Polaris-like raw rows (deterministic in `seed`).
std::vector<PolarisRawRow> generate_polaris_rows(const PolarisTraceConfig& config,
                                                 std::uint64_t seed);

/// The same rows rendered as the raw-trace CSV (JOB_NAME job_1, job_2, ...).
util::CsvTable generate_polaris_raw_trace(const PolarisTraceConfig& config, std::uint64_t seed);

/// The paper's preprocessing (Section 5): drop failed jobs (and malformed
/// rows: end <= start or no nodes), sort by submission, keep the first
/// `max_jobs` completed jobs, normalize timestamps relative to the earliest
/// submission, factorize user/group to anonymous ids by first appearance,
/// take node count as-is and derive memory as nodes x 512 GB. Durations
/// come from START/END (actual runtime); the requested walltime is
/// preserved as the scheduler-visible estimate.
std::vector<sim::Job> preprocess_polaris_rows(std::vector<PolarisRawRow> rows,
                                              std::size_t max_jobs);

/// CSV adapter for preprocess_polaris_rows: rows whose EXIT_STATUS is -1 or
/// not an integer are skipped unread; any other row with a non-numeric
/// timestamp, walltime or node count throws std::runtime_error naming the
/// row and column.
std::vector<sim::Job> preprocess_polaris_trace(const util::CsvTable& raw, std::size_t max_jobs);

/// Convenience: generate + preprocess `n_jobs` ready-to-simulate jobs.
/// `config.n_jobs` is ignored: enough raw rows are generated that the
/// post-filter count reaches `n_jobs` (throws std::runtime_error if not).
std::vector<sim::Job> polaris_jobs(std::size_t n_jobs, std::uint64_t seed,
                                   PolarisTraceConfig config = {});

}  // namespace reasched::workload
