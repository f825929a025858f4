#include <gtest/gtest.h>

#include "sched/fcfs.hpp"
#include "sched/sjf.hpp"
#include "sim/energy.hpp"
#include "sim/engine.hpp"

namespace rs = reasched::sim;
namespace rc = reasched::sched;

namespace {
rs::Job make_job(int id, int nodes, double mem, double dur, double submit = 0.0) {
  rs::Job j;
  j.id = id;
  j.nodes = nodes;
  j.memory_gb = mem;
  j.duration = dur;
  j.walltime = dur;
  j.submit_time = submit;
  j.user = 1 + id % 3;
  return j;
}
}  // namespace

TEST(Engine, SingleJobRunsImmediately) {
  rs::Engine engine;
  rc::FcfsScheduler fcfs;
  const auto result = engine.run({make_job(1, 4, 8, 100)}, fcfs);
  ASSERT_EQ(result.completed.size(), 1u);
  EXPECT_DOUBLE_EQ(result.completed[0].start_time, 0.0);
  EXPECT_DOUBLE_EQ(result.completed[0].end_time, 100.0);
  EXPECT_DOUBLE_EQ(result.final_time, 100.0);
}

TEST(Engine, FcfsSerializesWhenFull) {
  // Two jobs each needing the whole cluster: strictly sequential.
  rs::Engine engine;
  rc::FcfsScheduler fcfs;
  const auto result =
      engine.run({make_job(1, 256, 100, 50), make_job(2, 256, 100, 70)}, fcfs);
  EXPECT_DOUBLE_EQ(result.find(1).start_time, 0.0);
  EXPECT_DOUBLE_EQ(result.find(2).start_time, 50.0);
  EXPECT_DOUBLE_EQ(result.find(2).end_time, 120.0);
}

TEST(Engine, FcfsHeadOfLineBlocking) {
  // Job 1 occupies half; job 2 (head after 1 starts) needs everything and
  // blocks job 3 even though 3 would fit - the convoy effect.
  rs::Engine engine;
  rc::FcfsScheduler fcfs;
  const auto result = engine.run(
      {make_job(1, 128, 100, 100), make_job(2, 256, 100, 10), make_job(3, 1, 1, 10)}, fcfs);
  EXPECT_DOUBLE_EQ(result.find(1).start_time, 0.0);
  EXPECT_DOUBLE_EQ(result.find(2).start_time, 100.0);
  EXPECT_DOUBLE_EQ(result.find(3).start_time, 110.0);  // waited behind 2
}

TEST(Engine, SjfPicksShortestFirst) {
  rs::Engine engine;
  rc::SjfScheduler sjf;
  const auto result = engine.run(
      {make_job(1, 256, 100, 500), make_job(2, 256, 100, 20), make_job(3, 256, 100, 100)},
      sjf);
  EXPECT_DOUBLE_EQ(result.find(2).start_time, 0.0);
  EXPECT_DOUBLE_EQ(result.find(3).start_time, 20.0);
  EXPECT_DOUBLE_EQ(result.find(1).start_time, 120.0);
}

TEST(Engine, DynamicArrivalsRespectSubmitTimes) {
  rs::Engine engine;
  rc::FcfsScheduler fcfs;
  const auto result =
      engine.run({make_job(1, 1, 1, 10, 0.0), make_job(2, 1, 1, 10, 500.0)}, fcfs);
  EXPECT_DOUBLE_EQ(result.find(2).start_time, 500.0);  // cannot start before arrival
  EXPECT_DOUBLE_EQ(result.find(1).wait_time(), 0.0);
  EXPECT_DOUBLE_EQ(result.find(2).wait_time(), 0.0);
}

TEST(Engine, ParallelPackingWhenResourcesAllow) {
  rs::Engine engine;
  rc::FcfsScheduler fcfs;
  const auto result = engine.run(
      {make_job(1, 100, 100, 50), make_job(2, 100, 100, 50), make_job(3, 56, 100, 50)}, fcfs);
  // All three fit simultaneously (256 nodes total).
  for (const auto& c : result.completed) EXPECT_DOUBLE_EQ(c.start_time, 0.0);
  EXPECT_DOUBLE_EQ(result.final_time, 50.0);
}

TEST(Engine, RejectsDuplicateIds) {
  rs::Engine engine;
  rc::FcfsScheduler fcfs;
  EXPECT_THROW(engine.run({make_job(1, 1, 1, 10), make_job(1, 1, 1, 10)}, fcfs),
               std::invalid_argument);
}

TEST(Engine, RejectsCapacityImpossibleJob) {
  rs::Engine engine;
  rc::FcfsScheduler fcfs;
  EXPECT_THROW(engine.run({make_job(1, 257, 1, 10)}, fcfs), std::invalid_argument);
  EXPECT_THROW(engine.run({make_job(1, 1, 4096, 10)}, fcfs), std::invalid_argument);
}

TEST(Engine, RejectsMalformedJob) {
  rs::Engine engine;
  rc::FcfsScheduler fcfs;
  EXPECT_THROW(engine.run({make_job(0, 1, 1, 10)}, fcfs), std::invalid_argument);
  EXPECT_THROW(engine.run({make_job(1, 1, 1, 0)}, fcfs), std::invalid_argument);
}

TEST(Engine, DependencyChainRunsInOrder) {
  auto a = make_job(1, 1, 1, 100);
  auto b = make_job(2, 1, 1, 50);
  b.dependencies = {1};
  auto c = make_job(3, 1, 1, 25);
  c.dependencies = {2};
  rs::Engine engine;
  rc::FcfsScheduler fcfs;
  const auto result = engine.run({c, a, b}, fcfs);
  EXPECT_DOUBLE_EQ(result.find(1).start_time, 0.0);
  EXPECT_DOUBLE_EQ(result.find(2).start_time, 100.0);
  EXPECT_DOUBLE_EQ(result.find(3).start_time, 150.0);
}

TEST(Engine, DependencyFanOutRunsInParallelAfterRoot) {
  auto root = make_job(1, 1, 1, 60);
  std::vector<rs::Job> jobs = {root};
  for (int i = 2; i <= 5; ++i) {
    auto j = make_job(i, 10, 10, 30);
    j.dependencies = {1};
    jobs.push_back(j);
  }
  rs::Engine engine;
  rc::FcfsScheduler fcfs;
  const auto result = engine.run(jobs, fcfs);
  for (int i = 2; i <= 5; ++i) EXPECT_DOUBLE_EQ(result.find(i).start_time, 60.0);
}

TEST(Engine, RejectsDependencyCycle) {
  auto a = make_job(1, 1, 1, 10);
  auto b = make_job(2, 1, 1, 10);
  a.dependencies = {2};
  b.dependencies = {1};
  rs::Engine engine;
  rc::FcfsScheduler fcfs;
  EXPECT_THROW(engine.run({a, b}, fcfs), std::invalid_argument);
}

TEST(Engine, RejectsUnknownAndSelfDependency) {
  auto a = make_job(1, 1, 1, 10);
  a.dependencies = {42};
  rs::Engine engine;
  rc::FcfsScheduler fcfs;
  EXPECT_THROW(engine.run({a}, fcfs), std::invalid_argument);
  auto b = make_job(2, 1, 1, 10);
  b.dependencies = {2};
  EXPECT_THROW(engine.run({b}, fcfs), std::invalid_argument);
}

namespace {
/// Always delays - exercises the engine's livelock protection.
class StubbornDelayer final : public rs::Scheduler {
 public:
  rs::Action decide(const rs::DecisionContext&) override { return rs::Action::delay(); }
  std::string name() const override { return "StubbornDelayer"; }
};

/// Always proposes an infeasible job id - exercises retry limits.
class InvalidSpammer final : public rs::Scheduler {
 public:
  rs::Action decide(const rs::DecisionContext&) override { return rs::Action::start(999); }
  std::string name() const override { return "InvalidSpammer"; }
};
}  // namespace

TEST(Engine, ForcedProgressAgainstPermanentDelay) {
  rs::Engine engine;
  StubbornDelayer delayer;
  const auto result = engine.run({make_job(1, 1, 1, 10), make_job(2, 1, 1, 10)}, delayer);
  EXPECT_EQ(result.completed.size(), 2u);  // engine forced both starts
  EXPECT_GE(result.n_forced_delays, 1u);
}

TEST(Engine, InvalidActionsBoundedAndCounted) {
  rs::Engine engine;
  InvalidSpammer spammer;
  const auto result = engine.run({make_job(1, 1, 1, 10)}, spammer);
  EXPECT_EQ(result.completed.size(), 1u);
  EXPECT_GT(result.n_invalid_actions, 0u);
  // Retries per decision point are capped by config.
  EXPECT_LE(result.n_invalid_actions,
            (engine.config().max_invalid_retries + 1) * 4u);
}

TEST(Engine, DecisionRecordsCaptureRejections) {
  rs::Engine engine;
  InvalidSpammer spammer;
  const auto result = engine.run({make_job(1, 1, 1, 10)}, spammer);
  bool saw_rejection = false;
  for (const auto& d : result.decisions) {
    if (!d.accepted) {
      saw_rejection = true;
      EXPECT_FALSE(d.feedback.empty());
      EXPECT_NE(d.feedback.str().find("Feedback:"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_rejection);
}

TEST(Engine, RecordTracesOffKeepsDecisionsEmpty) {
  rs::EngineConfig config;
  config.record_traces = false;
  rs::Engine engine(config);
  rc::FcfsScheduler fcfs;
  const auto result = engine.run({make_job(1, 1, 1, 10)}, fcfs);
  EXPECT_TRUE(result.decisions.empty());
  EXPECT_EQ(result.completed.size(), 1u);
}

TEST(Engine, CountersTrackDecisions) {
  rs::Engine engine;
  rc::FcfsScheduler fcfs;
  const auto result = engine.run({make_job(1, 1, 1, 10), make_job(2, 1, 1, 10)}, fcfs);
  EXPECT_GE(result.n_decisions, 3u);  // 2 starts + final stop
  EXPECT_EQ(result.n_invalid_actions, 0u);
  EXPECT_EQ(result.n_backfills, 0u);
}

TEST(TraceText, EmptyIsNullAndCopiesAreDeep) {
  rs::TraceText text;
  EXPECT_TRUE(text.empty());
  EXPECT_TRUE(text.str().empty());
  text = std::string();  // storing nothing keeps it null
  EXPECT_TRUE(text.empty());

  text = std::string("Thought: start the short job first");
  EXPECT_FALSE(text.empty());
  const std::string& read = text;  // reads as the string it holds
  EXPECT_EQ(read, "Thought: start the short job first");

  rs::TraceText copy = text;
  EXPECT_EQ(copy, text);
  EXPECT_NE(&copy.str(), &text.str());  // deep: a separate string
  text = std::string("replaced");
  EXPECT_EQ(copy, std::string("Thought: start the short job first"));
  EXPECT_NE(copy, text);
  EXPECT_NE(text, std::string("Thought: start the short job first"));

  copy = rs::TraceText();  // assigning an empty one releases the text
  EXPECT_TRUE(copy.empty());
  EXPECT_EQ(copy, rs::TraceText());
  EXPECT_EQ(copy, std::string());

  rs::TraceText moved = std::move(text);
  EXPECT_EQ(moved, std::string("replaced"));
}

TEST(TraceText, DecisionRecordStaysCompact) {
  EXPECT_LE(sizeof(rs::TraceText), sizeof(void*));
  EXPECT_LE(sizeof(rs::DecisionRecord), 40u);
}

TEST(ScheduleResult, FindThrowsOnUnknown) {
  rs::ScheduleResult r;
  EXPECT_THROW(r.find(1), std::out_of_range);
}

TEST(Energy, IntegratesBusyAndIdle) {
  rs::Engine engine;
  rc::FcfsScheduler fcfs;
  const auto result = engine.run({make_job(1, 256, 100, 3600)}, fcfs);
  const auto report = rs::compute_energy(result, engine.config().cluster);
  EXPECT_DOUBLE_EQ(report.busy_node_seconds, 256.0 * 3600.0);
  EXPECT_DOUBLE_EQ(report.idle_node_seconds, 0.0);
  // 256 nodes * 1h * 350 W = 89.6 kWh.
  EXPECT_NEAR(report.energy_kwh, 89.6, 0.01);
}

TEST(Energy, EmptyResultIsZero) {
  const auto report = rs::compute_energy({}, rs::ClusterSpec::paper_default());
  EXPECT_DOUBLE_EQ(report.energy_kwh, 0.0);
}
