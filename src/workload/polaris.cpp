#include "workload/polaris.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"
#include "util/string_utils.hpp"
#include "workload/users.hpp"

namespace reasched::workload {

namespace {

const std::vector<std::string> kRawHeader = {
    "JOB_NAME",        "USER",
    "GROUP",           "SUBMIT_TIMESTAMP",
    "START_TIMESTAMP", "END_TIMESTAMP",
    "NODES_REQUESTED", "WALLTIME_SECONDS",
    "QUEUED_WAIT_SECONDS", "EXIT_STATUS"};

int draw_polaris_nodes(util::Rng& rng) {
  // Power-of-two-biased node counts observed on leadership-class machines;
  // capped by the 560-node Polaris partition. Wide jobs carry enough weight
  // that the partition saturates during busy periods.
  static const int kChoices[] = {1, 2, 4, 8, 10, 16, 32, 64, 128, 256, 496};
  static const std::vector<double> kWeights = {16, 13, 12, 11, 8, 10, 10, 9, 6, 4, 1};
  return kChoices[rng.weighted_index(kWeights)];
}

/// Factorize to 1, 2, ... by first appearance.
template <typename Key>
int factorize(std::map<Key, int>& ids, const Key& key) {
  return ids.emplace(key, static_cast<int>(ids.size()) + 1).first->second;
}

}  // namespace

std::vector<PolarisRawRow> generate_polaris_rows(const PolarisTraceConfig& config,
                                                 std::uint64_t seed) {
  util::Rng rng(util::derive_seed(seed, "polaris-trace"));
  std::vector<PolarisRawRow> rows;
  rows.reserve(config.n_jobs);

  const auto user_weights = zipf_weights(config.n_users, 1.0);
  double submit = static_cast<double>(config.epoch_start);
  for (std::size_t i = 0; i < config.n_jobs; ++i) {
    PolarisRawRow r;
    r.user = static_cast<int>(rng.weighted_index(user_weights)) + 1;
    r.group = (r.user - 1) % config.n_groups + 1;
    r.nodes = draw_polaris_nodes(rng);
    // Runtime: heavy-tailed log-normal, 1 minute to 24 hours.
    const double runtime = std::clamp(rng.lognormal(std::log(1800.0), 1.2), 60.0, 86400.0);
    // Users over-request walltime by 5%-300%.
    const double walltime = runtime * rng.uniform_real(1.05, 3.0);
    const double wait = rng.exponential(600.0);
    r.failed = rng.bernoulli(config.failed_fraction);

    const double start = submit + wait;
    // Failed jobs die early - a fraction of their requested time.
    const double end = start + (r.failed ? runtime * rng.uniform_real(0.01, 0.5) : runtime);

    // The logs record whole seconds: round-to-nearest-even, exactly what
    // printing with "%.0f" and parsing back yields.
    r.submit = std::nearbyint(submit);
    r.start = std::nearbyint(start);
    r.end = std::nearbyint(end);
    r.walltime = std::nearbyint(walltime);
    r.wait = std::nearbyint(wait);
    rows.push_back(r);

    submit += rng.exponential(config.mean_interarrival_s);
  }
  return rows;
}

util::CsvTable generate_polaris_raw_trace(const PolarisTraceConfig& config, std::uint64_t seed) {
  util::CsvTable t(kRawHeader);
  const auto rows = generate_polaris_rows(config, seed);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PolarisRawRow& r = rows[i];
    t.add_row({util::format("job_%zu", i + 1), util::format("polaris_user_%02d", r.user),
               util::format("alloc_group_%d", r.group), util::format("%.0f", r.submit),
               util::format("%.0f", r.start), util::format("%.0f", r.end),
               std::to_string(r.nodes), util::format("%.0f", r.walltime),
               util::format("%.0f", r.wait), r.failed ? "-1" : "0"});
  }
  return t;
}

std::vector<sim::Job> preprocess_polaris_rows(std::vector<PolarisRawRow> rows,
                                              std::size_t max_jobs) {
  // The paper filters failed jobs (EXIT_STATUS == -1) before everything.
  std::erase_if(rows, [](const PolarisRawRow& r) {
    return r.failed || r.end <= r.start || r.nodes < 1;  // malformed rows dropped
  });
  // Keyed on submit alone, so ties (same-second submissions) must keep raw
  // row order for the assigned JobIds to be deterministic - same fix as
  // parse_swf.
  std::stable_sort(rows.begin(), rows.end(), [](const PolarisRawRow& a, const PolarisRawRow& b) {
    return a.submit < b.submit;
  });
  if (rows.size() > max_jobs) rows.resize(max_jobs);  // contiguous completed segment
  if (rows.empty()) return {};

  const double t0 = rows.front().submit;  // normalize relative to earliest submission
  std::map<int, int> user_ids, group_ids;
  std::vector<sim::Job> jobs;
  jobs.reserve(rows.size());
  const sim::ClusterSpec polaris = sim::ClusterSpec::polaris();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PolarisRawRow& r = rows[i];
    sim::Job j;
    j.id = static_cast<sim::JobId>(i + 1);
    j.user = factorize(user_ids, r.user);
    j.group = factorize(group_ids, r.group);
    j.submit_time = r.submit - t0;
    j.duration = r.end - r.start;
    j.walltime = std::max(r.walltime, j.duration);
    j.nodes = std::min(r.nodes, polaris.total_nodes);
    j.memory_gb = static_cast<double>(j.nodes) * 512.0;  // 512 GB per Polaris node
    jobs.push_back(std::move(j));
  }
  return jobs;
}

std::vector<sim::Job> preprocess_polaris_trace(const util::CsvTable& raw, std::size_t max_jobs) {
  if (raw.rows() == 0) return {};
  const std::size_t status_col = raw.col_index("EXIT_STATUS");
  const std::size_t user_col = raw.col_index("USER");
  const std::size_t group_col = raw.col_index("GROUP");
  const char* const kNumeric[] = {"SUBMIT_TIMESTAMP", "START_TIMESTAMP", "END_TIMESTAMP",
                                  "WALLTIME_SECONDS", "NODES_REQUESTED"};
  std::size_t numeric_col[std::size(kNumeric)];
  for (std::size_t k = 0; k < std::size(kNumeric); ++k) numeric_col[k] = raw.col_index(kNumeric[k]);

  // Account names become injective ints; preprocessing re-factorizes them.
  std::map<std::string, int> users, groups;
  std::vector<PolarisRawRow> rows;
  rows.reserve(raw.rows());
  for (std::size_t i = 0; i < raw.rows(); ++i) {
    const std::vector<std::string>& cells = raw.row(i);
    const auto status = util::parse_int(cells.at(status_col));
    if (!status || *status == -1) continue;
    double v[std::size(kNumeric)];
    for (std::size_t k = 0; k < std::size(kNumeric); ++k) {
      const auto parsed = util::parse_double(cells.at(numeric_col[k]));
      if (!parsed) {
        throw std::runtime_error(util::format("polaris trace row %zu: bad %s", i, kNumeric[k]));
      }
      v[k] = *parsed;
    }
    PolarisRawRow r;
    r.submit = v[0];
    r.start = v[1];
    r.end = v[2];
    r.walltime = v[3];
    r.nodes = static_cast<int>(v[4]);
    r.user = factorize(users, cells.at(user_col));
    r.group = factorize(groups, cells.at(group_col));
    rows.push_back(r);
  }
  return preprocess_polaris_rows(std::move(rows), max_jobs);
}

std::vector<sim::Job> polaris_jobs(std::size_t n_jobs, std::uint64_t seed,
                                   PolarisTraceConfig config) {
  // Generate enough raw rows that the post-filter count reaches n_jobs.
  config.n_jobs = n_jobs + n_jobs / 2 + 20;
  auto jobs = preprocess_polaris_rows(generate_polaris_rows(config, seed), n_jobs);
  if (jobs.size() < n_jobs) {
    throw std::runtime_error("polaris_jobs: generated trace too small after filtering");
  }
  return jobs;
}

}  // namespace reasched::workload
