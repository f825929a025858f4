#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/sweep.hpp"
#include "workload/polaris.hpp"
#include "workload/scenario_spec.hpp"

namespace rw = reasched::workload;
namespace rs = reasched::sim;

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// FNV-1a over the eight little-endian bytes of `v`.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

/// Bit-exact digest of every field of every job.
std::uint64_t digest_jobs(const std::vector<rs::Job>& jobs) {
  std::uint64_t h = kFnvOffset;
  for (const rs::Job& j : jobs) {
    h = fnv1a(h, static_cast<std::uint64_t>(j.id));
    h = fnv1a(h, static_cast<std::uint64_t>(j.user));
    h = fnv1a(h, static_cast<std::uint64_t>(j.group));
    h = fnv1a(h, bits(j.submit_time));
    h = fnv1a(h, bits(j.duration));
    h = fnv1a(h, bits(j.walltime));
    h = fnv1a(h, static_cast<std::uint64_t>(j.nodes));
    h = fnv1a(h, bits(j.memory_gb));
    h = fnv1a(h, j.dependencies.size());
    for (const rs::JobId d : j.dependencies) h = fnv1a(h, static_cast<std::uint64_t>(d));
  }
  return h;
}

std::uint64_t digest_text(const std::string& text) {
  std::uint64_t h = kFnvOffset;
  for (const unsigned char c : text) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

void expect_bit_identical(const std::vector<rs::Job>& a, const std::vector<rs::Job>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << i;
    EXPECT_EQ(a[i].user, b[i].user) << i;
    EXPECT_EQ(a[i].group, b[i].group) << i;
    EXPECT_EQ(bits(a[i].submit_time), bits(b[i].submit_time)) << i;
    EXPECT_EQ(bits(a[i].duration), bits(b[i].duration)) << i;
    EXPECT_EQ(bits(a[i].walltime), bits(b[i].walltime)) << i;
    EXPECT_EQ(a[i].nodes, b[i].nodes) << i;
    EXPECT_EQ(bits(a[i].memory_gb), bits(b[i].memory_gb)) << i;
    EXPECT_EQ(a[i].dependencies, b[i].dependencies) << i;
  }
}

}  // namespace

TEST(PolarisRaw, HasExpectedColumnsAndRows) {
  rw::PolarisTraceConfig config;
  config.n_jobs = 50;
  const auto raw = rw::generate_polaris_raw_trace(config, 1);
  EXPECT_EQ(raw.rows(), 50u);
  for (const char* col :
       {"JOB_NAME", "USER", "GROUP", "SUBMIT_TIMESTAMP", "START_TIMESTAMP",
        "END_TIMESTAMP", "NODES_REQUESTED", "WALLTIME_SECONDS", "QUEUED_WAIT_SECONDS",
        "EXIT_STATUS"}) {
    EXPECT_TRUE(raw.has_col(col)) << col;
  }
}

TEST(PolarisRaw, DeterministicPerSeed) {
  rw::PolarisTraceConfig config;
  config.n_jobs = 20;
  const auto a = rw::generate_polaris_raw_trace(config, 5);
  const auto b = rw::generate_polaris_raw_trace(config, 5);
  EXPECT_EQ(a.to_string(), b.to_string());
  const auto c = rw::generate_polaris_raw_trace(config, 6);
  EXPECT_NE(a.to_string(), c.to_string());
}

TEST(PolarisRaw, ContainsSomeFailures) {
  rw::PolarisTraceConfig config;
  config.n_jobs = 300;
  const auto raw = rw::generate_polaris_raw_trace(config, 2);
  std::size_t failed = 0;
  for (std::size_t i = 0; i < raw.rows(); ++i) {
    if (raw.cell(i, "EXIT_STATUS") == "-1") ++failed;
  }
  EXPECT_GT(failed, 5u);
  EXPECT_LT(failed, 100u);
}

TEST(PolarisPreprocess, FiltersFailedAndNormalizes) {
  rw::PolarisTraceConfig config;
  config.n_jobs = 200;
  const auto raw = rw::generate_polaris_raw_trace(config, 3);
  const auto jobs = rw::preprocess_polaris_trace(raw, 100);
  ASSERT_EQ(jobs.size(), 100u);

  // Normalized: earliest submission at exactly 0; sorted by submit time.
  EXPECT_DOUBLE_EQ(jobs.front().submit_time, 0.0);
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_GE(jobs[i].submit_time, jobs[i - 1].submit_time);
  }
  const auto polaris = rs::ClusterSpec::polaris();
  std::set<int> users;
  for (const auto& j : jobs) {
    EXPECT_TRUE(j.valid());
    EXPECT_LE(j.nodes, polaris.total_nodes);
    // Memory derived as nodes x 512 GB (Section 5).
    EXPECT_DOUBLE_EQ(j.memory_gb, j.nodes * 512.0);
    // Walltime request never below actual runtime after preprocessing.
    EXPECT_GE(j.walltime, j.duration - 1e-9);
    users.insert(j.user);
  }
  // Users factorized to contiguous anonymous ids starting at 1.
  EXPECT_EQ(*users.begin(), 1);
  EXPECT_EQ(*users.rbegin(), static_cast<int>(users.size()));
}

TEST(PolarisPreprocess, KeepsContiguousSegment) {
  rw::PolarisTraceConfig config;
  config.n_jobs = 120;
  const auto raw = rw::generate_polaris_raw_trace(config, 4);
  const auto all = rw::preprocess_polaris_trace(raw, 10000);
  const auto segment = rw::preprocess_polaris_trace(raw, 30);
  ASSERT_LE(segment.size(), 30u);
  // The segment is the earliest-submitted prefix of the full cleaned trace.
  for (std::size_t i = 0; i < segment.size(); ++i) {
    EXPECT_DOUBLE_EQ(segment[i].duration, all[i].duration);
    EXPECT_EQ(segment[i].nodes, all[i].nodes);
  }
}

TEST(PolarisPreprocess, EmptyTraceYieldsEmpty) {
  rw::PolarisTraceConfig config;
  config.n_jobs = 10;
  config.failed_fraction = 1.0;  // everything fails
  const auto raw = rw::generate_polaris_raw_trace(config, 7);
  EXPECT_TRUE(rw::preprocess_polaris_trace(raw, 10).empty());
}

TEST(PolarisJobs, ConvenienceProducesExactCount) {
  const auto jobs = rw::polaris_jobs(100, 11);
  EXPECT_EQ(jobs.size(), 100u);
}

TEST(PolarisPreprocess, SameSubmitTimeKeepsRowOrder) {
  // Preprocessing sorts on SUBMIT_TIMESTAMP alone; same-second rows must
  // keep raw order so the assigned JobIds are deterministic (same fix as
  // SWF ingest). The tied rows are distinguishable by node count.
  reasched::util::CsvTable raw({"JOB_NAME", "USER", "GROUP", "SUBMIT_TIMESTAMP",
                                "START_TIMESTAMP", "END_TIMESTAMP", "NODES_REQUESTED",
                                "WALLTIME_SECONDS", "QUEUED_WAIT_SECONDS", "EXIT_STATUS"});
  auto add = [&](const char* name, const char* submit, int nodes) {
    raw.add_row({name, "u1", "g1", submit, "2000", "2600", std::to_string(nodes), "900", "0",
                 "0"});
  };
  add("job_a", "1000", 2);
  add("job_b", "1000", 4);
  add("job_c", "1000", 8);
  add("job_d", "900", 16);  // earlier; must lead after sorting

  const auto jobs = rw::preprocess_polaris_trace(raw, 10);
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].nodes, 16);
  EXPECT_EQ(jobs[1].nodes, 2);
  EXPECT_EQ(jobs[2].nodes, 4);
  EXPECT_EQ(jobs[3].nodes, 8);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, static_cast<rs::JobId>(i + 1));
  }
}

TEST(PolarisGolden, TypedRowsMatchCsvRoundTrip) {
  // The typed pipeline must reproduce the CSV text round trip bit for bit:
  // whole-second timestamps, string-factorized accounts and all.
  const double kInterarrivals[] = {180.0, 5.0, 0.5};
  const std::size_t kSizes[] = {10, 100, 1000, 20000};
  for (const double interarrival : kInterarrivals) {
    for (const std::size_t n : kSizes) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(testing::Message() << "interarrival " << interarrival << " n " << n
                                        << " seed " << seed);
        rw::PolarisTraceConfig config;
        config.mean_interarrival_s = interarrival;
        config.n_jobs = n + n / 2 + 20;
        const auto via_csv =
            rw::preprocess_polaris_trace(rw::generate_polaris_raw_trace(config, seed), n);
        const auto typed =
            rw::preprocess_polaris_rows(rw::generate_polaris_rows(config, seed), n);
        ASSERT_EQ(via_csv.size(), n);
        expect_bit_identical(via_csv, typed);
        if (testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(PolarisGolden, DigestsMatchCsvPipeline) {
  // Captured from the CSV-only pipeline this typed one replaced: the 20k-job
  // replay the end-to-end baseline panel runs, and one raw-trace CSV text.
  reasched::harness::SweepConfig sweep;
  sweep.base_seed = 42;
  const auto jobs = reasched::harness::cell_jobs(
      sweep, rw::ScenarioSpec::parse("polaris|cluster?nodes=560&memory_gb=286720"), 20000, 0);
  ASSERT_EQ(jobs.size(), 20000u);
  EXPECT_EQ(digest_jobs(jobs), 0x0f86f14fd51d65b7ULL);

  rw::PolarisTraceConfig config;
  config.n_jobs = 500;
  const std::string text = rw::generate_polaris_raw_trace(config, 42).to_string();
  EXPECT_EQ(text.size(), 42412u);
  EXPECT_EQ(digest_text(text), 0xb86e98961a4e704aULL);
}

TEST(PolarisPreprocess, BadNumberNamesRowAfterStatusFilter) {
  reasched::util::CsvTable raw({"JOB_NAME", "USER", "GROUP", "SUBMIT_TIMESTAMP",
                                "START_TIMESTAMP", "END_TIMESTAMP", "NODES_REQUESTED",
                                "WALLTIME_SECONDS", "QUEUED_WAIT_SECONDS", "EXIT_STATUS"});
  // A failed row is skipped unread, even with garbage numbers.
  raw.add_row({"job_1", "u1", "g1", "oops", "2000", "2600", "2", "900", "0", "-1"});
  raw.add_row({"job_2", "u1", "g1", "1000", "2000", "2600", "2", "900", "0", "0"});
  EXPECT_EQ(rw::preprocess_polaris_trace(raw, 10).size(), 1u);
  raw.add_row({"job_3", "u2", "g1", "1000", "2000", "later", "2", "900", "0", "0"});
  try {
    rw::preprocess_polaris_trace(raw, 10);
    FAIL() << "expected a bad-number error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "polaris trace row 2: bad END_TIMESTAMP");
  }
}
