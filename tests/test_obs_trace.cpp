// Span tracer and run-log unit tests (named test_obs_* so the CMake glob
// puts it in the unit tier - the test_trace_* prefix is the SWF replay
// tier). Covers the bounded-ring eviction contract, Chrome trace-event
// export well-formedness (parsed back with the repo's own JSON parser, the
// same check CI's validate step performs with Python), RAII/move Span
// semantics, both run-log sinks, the degrade-don't-escalate failure policy,
// and the rate-limited Logger path the run log warns through.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/runlog.hpp"
#include "obs/trace.hpp"
#include "util/json_parser.hpp"
#include "util/logging.hpp"

namespace ro = reasched::obs;
namespace ru = reasched::util;

namespace {

ro::SpanRecord make_record(const std::string& name) {
  ro::SpanRecord rec;
  rec.name = name;
  rec.cat = "test";
  rec.start_us = 1.0;
  rec.dur_us = 2.0;
  return rec;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Sink that fails on the Nth append (0 = fail at open).
class FailingSink : public ro::RunLogSink {
 public:
  explicit FailingSink(std::size_t fail_at) : fail_at_(fail_at) {}
  bool open(const std::vector<std::string>&) override { return fail_at_ > 0; }
  bool append(const std::vector<std::string>&) override { return ++appends_ < fail_at_; }
  bool flush() override { return true; }

 private:
  std::size_t fail_at_;
  std::size_t appends_ = 0;
};

}  // namespace

TEST(ObsTrace, RingKeepsNewestAndCountsEvictions) {
  ro::TraceRecorder rec(/*capacity=*/4);
  for (int i = 1; i <= 6; ++i) rec.record(make_record("span" + std::to_string(i)));

  const auto stats = rec.stats();
  EXPECT_EQ(stats.capacity, 4u);
  EXPECT_EQ(stats.recorded, 4u);
  EXPECT_EQ(stats.dropped, 2u);

  // Oldest-first snapshot of the surviving (newest) four.
  const auto spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "span3");
  EXPECT_EQ(spans[3].name, "span6");

  rec.clear();
  EXPECT_EQ(rec.stats().recorded, 0u);
  EXPECT_TRUE(rec.snapshot().empty());
}

TEST(ObsTrace, RingGrowsOnDemandUpToItsBound) {
  // The default ring holds what was recorded, not 65,536 preallocated
  // slots; past the bound it evicts exactly as a preallocated ring would.
  ro::TraceRecorder rec;
  EXPECT_EQ(rec.stats().recorded, 0u);
  EXPECT_EQ(rec.stats().capacity, 65536u);
  for (int i = 0; i < 3; ++i) rec.record(make_record("early" + std::to_string(i)));
  EXPECT_EQ(rec.stats().recorded, 3u);
  EXPECT_EQ(rec.snapshot().size(), 3u);

  const std::size_t k = 5;
  for (std::size_t i = 3; i < 65536 + k; ++i) rec.record(make_record(std::to_string(i)));
  const auto stats = rec.stats();
  EXPECT_EQ(stats.capacity, 65536u);
  EXPECT_EQ(stats.recorded, 65536u);
  EXPECT_EQ(stats.dropped, k);
  const auto spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 65536u);
  EXPECT_EQ(spans.front().name, std::to_string(k));  // oldest survivor
  EXPECT_EQ(spans.back().name, std::to_string(65536 + k - 1));

  rec.clear();
  EXPECT_EQ(rec.stats().recorded, 0u);
  rec.record(make_record("again"));
  EXPECT_EQ(rec.stats().recorded, 1u);
  EXPECT_EQ(rec.stats().dropped, 0u);
  EXPECT_EQ(rec.snapshot().front().name, "again");
}

TEST(ObsTrace, SpanRaiiAndMove) {
  ro::TraceRecorder rec(16);

  // Default-constructed spans are inert: no recorder, all ops are no-ops.
  ro::Span inert;
  EXPECT_FALSE(inert.active());
  inert.arg("k", 1.0);  // must not crash
  inert.end();
  EXPECT_EQ(rec.stats().recorded, 0u);

  {
    ro::Span s = ro::Span::begin(rec, "work", "unit");
    EXPECT_TRUE(s.active());
    s.arg("n", 42.0);
    s.sarg("method", "fcfs");
    s.set_sim_time(3.5);
    // Move transfers ownership: only the destination records on destruction.
    ro::Span moved = std::move(s);
    EXPECT_FALSE(s.active());  // NOLINT(bugprone-use-after-move) - contract under test
    EXPECT_TRUE(moved.active());
  }
  const auto spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "work");
  EXPECT_EQ(spans[0].cat, "unit");
  EXPECT_EQ(spans[0].sim_time, 3.5);
  ASSERT_EQ(spans[0].args.size(), 1u);
  EXPECT_EQ(spans[0].args[0].first, "n");
  ASSERT_EQ(spans[0].sargs.size(), 1u);
  EXPECT_EQ(spans[0].sargs[0].second, "fcfs");

  // Explicit end() records once; the destructor must not double-record.
  ro::Span e = ro::Span::begin(rec, "early", "unit");
  e.end();
  EXPECT_FALSE(e.active());
  EXPECT_EQ(rec.stats().recorded, 2u);
}

TEST(ObsTrace, ChromeTraceJsonIsWellFormed) {
  ro::TraceRecorder rec(16);
  {
    ro::Span s = ro::Span::begin(rec, "decision \"quoted\"", "sched");
    s.arg("depth", 7.0);
    s.sarg("note", "line1\nline2");  // exporter must escape controls/quotes
    s.set_sim_time(12.5);
  }
  rec.record(make_record("plain"));

  // Parse the export back with the repo's JSON parser: the same
  // well-formedness bar the CI trace-validation step applies via Python.
  const ru::JsonValue doc = ru::parse_json(rec.chrome_trace_json());
  const auto& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.size(), 2u);
  const auto& ev = events.at(0u);
  EXPECT_EQ(ev.at("ph").as_string(), "X");  // complete events
  EXPECT_EQ(ev.at("name").as_string(), "decision \"quoted\"");
  EXPECT_EQ(ev.at("cat").as_string(), "sched");
  EXPECT_TRUE(ev.at("ts").is_number());
  EXPECT_TRUE(ev.at("dur").is_number());
  EXPECT_EQ(ev.at("args").at("depth").as_number(), 7.0);
  EXPECT_EQ(ev.at("args").at("note").as_string(), "line1\nline2");
  EXPECT_EQ(ev.at("args").at("sim_time").as_number(), 12.5);

  const std::string path = ::testing::TempDir() + "/reasched_obs_trace.json";
  rec.save_chrome_trace(path);
  EXPECT_EQ(ru::parse_json(slurp(path)).at("traceEvents").size(), 2u);
}

TEST(ObsRunLog, CsvSinkWritesHeaderAndEscapedRows) {
  const std::string path = ::testing::TempDir() + "/reasched_obs_runlog.csv";
  ro::RunLog log(ro::make_file_sink(path), {"method", "note", "value"});
  EXPECT_TRUE(log.append({"fcfs", "plain", "1.5"}));
  EXPECT_TRUE(log.append({"sjf", "has,comma \"q\"", "2"}));
  log.flush();
  EXPECT_EQ(log.rows(), 2u);
  EXPECT_EQ(log.dropped(), 0u);

  const std::string text = slurp(path);
  EXPECT_NE(text.find("method,note,value"), std::string::npos);
  EXPECT_NE(text.find("\"has,comma \"\"q\"\"\""), std::string::npos);
}

TEST(ObsRunLog, JsonlSinkEmitsOneParsableObjectPerRow) {
  const std::string path = ::testing::TempDir() + "/reasched_obs_runlog.jsonl";
  ro::RunLog log(ro::make_file_sink(path), {"method", "jobs"});
  EXPECT_TRUE(log.append({"fcfs", "100"}));
  EXPECT_TRUE(log.append({"easy \"x\"", "200"}));
  log.flush();

  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    const ru::JsonValue row = ru::parse_json(line);
    EXPECT_TRUE(row.at("method").is_string());
    EXPECT_TRUE(row.at("jobs").is_string());  // transport is stringly-typed
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
}

TEST(ObsRunLog, ColumnMismatchDropsRowWithoutLatchingFailure) {
  const std::string path = ::testing::TempDir() + "/reasched_obs_runlog_mismatch.csv";
  ru::Logger::instance().reset_limits();
  ro::RunLog log(ro::make_file_sink(path), {"a", "b"});
  EXPECT_FALSE(log.append({"only-one"}));
  EXPECT_EQ(log.dropped(), 1u);
  // A bad row is that caller's bug, not the sink's death: later well-formed
  // rows still land.
  EXPECT_TRUE(log.append({"x", "y"}));
  EXPECT_EQ(log.rows(), 1u);
}

TEST(ObsRunLog, FailingSinkDegradesAndNeverThrows) {
  ru::Logger::instance().reset_limits();
  {
    // Sink dies at open: every row is dropped, nothing throws.
    ro::RunLog log(std::make_unique<FailingSink>(0), {"a"});
    EXPECT_FALSE(log.append({"r1"}));
    EXPECT_FALSE(log.append({"r2"}));
    EXPECT_EQ(log.rows(), 0u);
    EXPECT_EQ(log.dropped(), 2u);
    log.flush();  // no-op on a failed log, must not crash
  }
  {
    // Sink dies mid-stream: the failure latches and later rows drop fast.
    ro::RunLog log(std::make_unique<FailingSink>(2), {"a"});
    EXPECT_TRUE(log.append({"r1"}));
    EXPECT_FALSE(log.append({"r2"}));  // sink reports the failure here
    EXPECT_FALSE(log.append({"r3"}));  // latched: sink no longer consulted
    EXPECT_EQ(log.rows(), 1u);
    EXPECT_EQ(log.dropped(), 2u);
  }
  // The degradation warned through the rate-limited path exactly once per
  // key, however many rows were dropped.
  EXPECT_GE(ru::Logger::instance().limited_call_count("obs.runlog"), 3u);
  ru::Logger::instance().reset_limits();
}

TEST(ObsLogging, LimitedWarnSuppressesRepeats) {
  auto& logger = ru::Logger::instance();
  const auto saved = logger.level();
  logger.set_level(ru::LogLevel::kOff);  // count, but keep stderr quiet
  logger.reset_limits();

  for (int i = 0; i < 5; ++i) {
    logger.log_limited(ru::LogLevel::kWarn, "test.key", "repeated warning");
  }
  EXPECT_EQ(logger.limited_call_count("test.key"), 5u);
  EXPECT_EQ(logger.limited_call_count("other.key"), 0u);

  logger.reset_limits();
  EXPECT_EQ(logger.limited_call_count("test.key"), 0u);
  logger.set_level(saved);
}
