#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "service/service_engine.hpp"
#include "service/snapshot.hpp"

namespace fs = std::filesystem;
namespace rsvc = reasched::service;
namespace rs = reasched::sim;

namespace {

// Written by reasched_service built from the commit before decision records
// stored their text out of line (`--method agent:fastlocal --seed 3
// --scenario high_parallel --batch-jobs 40 --batches 1`: advance to 100,
// submit job 9001, advance to 400, checkpoint; then drain and checkpoint
// again). The drained session holds agent thoughts and one rejected action's
// feedback, so its digest covers both text fields of every record.
const char* const kMidSession =
    R"({"version":1,"config":{"method":"agent:fastlocal","seed":"3","engine":{"max_invalid_retries":4,"feedback_enabled":true,"record_traces":true,"enforce_walltime":false,"cluster":{"total_nodes":256,"total_memory_gb":2048,"watts_per_busy_node":350,"watts_per_idle_node":90}},"stream":{"scenario":"high_parallel","batch_jobs":40,"max_batches":1,"rate_scale":1}},"ops":[{"op":"advance","to":100},{"op":"submit","job":{"id":9001,"user":3,"group":0,"submit_time":150,"duration":300,"walltime":300,"nodes":200,"memory_gb":1,"dependencies":[]}},{"op":"advance","to":400}],"digest":"c657cf6dfef83333"})";
const char* const kDrained =
    R"({"version":1,"config":{"method":"agent:fastlocal","seed":"3","engine":{"max_invalid_retries":4,"feedback_enabled":true,"record_traces":true,"enforce_walltime":false,"cluster":{"total_nodes":256,"total_memory_gb":2048,"watts_per_busy_node":350,"watts_per_idle_node":90}},"stream":{"scenario":"high_parallel","batch_jobs":40,"max_batches":1,"rate_scale":1}},"ops":[{"op":"advance","to":100},{"op":"submit","job":{"id":9001,"user":3,"group":0,"submit_time":150,"duration":300,"walltime":300,"nodes":200,"memory_gb":1,"dependencies":[]}},{"op":"advance","to":400},{"op":"drain"}],"digest":"d6c680dc25e56fe4"})";

/// `text` with its one occurrence of `from` replaced by `to`.
std::string edited(std::string text, const std::string& from, const std::string& to) {
  const std::size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  EXPECT_EQ(text.find(from, pos + 1), std::string::npos) << from;
  return text.replace(pos, from.size(), to);
}

/// The SnapshotError message restoring `text` fails with ("" if it restores).
std::string refusal(const std::string& text) {
  try {
    rsvc::restore_snapshot_text(text);
  } catch (const rsvc::SnapshotError& e) {
    return e.what();
  }
  return "";
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << f.rdbuf();
  return buffer.str();
}

}  // namespace

TEST(ServiceSnapshot, SnapshotsFromEarlierBuildsStillRestore) {
  EXPECT_EQ(rsvc::restore_snapshot_text(kMidSession)->state_digest(), 0xc657cf6dfef83333ull);

  const std::unique_ptr<rsvc::ServiceEngine> drained = rsvc::restore_snapshot_text(kDrained);
  EXPECT_EQ(drained->state_digest(), 0xd6c680dc25e56fe4ull);
  const auto& decisions = drained->schedule_view().decisions;
  EXPECT_TRUE(std::any_of(decisions.begin(), decisions.end(),
                          [](const rs::DecisionRecord& d) { return !d.thought.empty(); }));
  EXPECT_TRUE(std::any_of(decisions.begin(), decisions.end(),
                          [](const rs::DecisionRecord& d) { return !d.feedback.empty(); }));
}

TEST(ServiceSnapshot, RefusesIntegerFieldsThatAreNotIntegersInRange) {
  EXPECT_EQ(refusal(edited(kDrained, "\"total_nodes\":256", "\"total_nodes\":1e10")),
            "snapshot: bad config (field \"total_nodes\" value 10000000000 out of range)");
  EXPECT_EQ(refusal(edited(kDrained, "\"max_invalid_retries\":4", "\"max_invalid_retries\":4.5")),
            "snapshot: bad config (field \"max_invalid_retries\" must be an integer)");
  EXPECT_EQ(refusal(edited(kDrained, "\"batch_jobs\":40", "\"batch_jobs\":-1")),
            "snapshot: bad config (field \"batch_jobs\" value -1 out of range)");
  EXPECT_EQ(refusal(edited(kDrained, "\"max_batches\":1", "\"max_batches\":1e300")),
            "snapshot: bad config (field \"max_batches\" value 1e+300 out of range)");
  EXPECT_EQ(refusal(edited(kDrained, "{\"op\":\"drain\"}", "{\"op\":\"cancel\",\"id\":4294967296}")),
            "snapshot: replay of op 3 failed (field \"id\" value 4294967296 out of range)");
  EXPECT_EQ(refusal(edited(kDrained, "\"nodes\":200", "\"nodes\":2.5")),
            "snapshot: replay of op 1 failed (request: field \"nodes\" must be an integer)");
}

TEST(ServiceSnapshot, DeeplyNestedTextIsRefused) {
  EXPECT_EQ(refusal(std::string(200000, '[')),
            "snapshot: invalid JSON (JSON parse error at offset 256: nesting deeper than the "
            "limit of 256 levels)");
  const std::string deep_ops = edited(kDrained, "\"ops\":[", "\"ops\":[" + std::string(100000, '['));
  EXPECT_NE(refusal(deep_ops).find("nesting deeper than the limit of 256 levels"),
            std::string::npos);
}

TEST(ServiceSnapshot, SaveReplacesTheSnapshotWholeOrNotAtAll) {
  const std::string path = testing::TempDir() + "reasched_atomic_snapshot.json";
  const std::string tmp = path + ".tmp";
  fs::remove_all(tmp);
  rsvc::ServiceConfig config;
  config.method = reasched::harness::MethodSpec::parse("easy");
  rsvc::ServiceEngine engine(config);
  rs::Job job;
  job.duration = 60.0;
  job.walltime = 60.0;
  job.nodes = 4;
  engine.submit(job);

  rsvc::save_snapshot(engine, path);
  const std::string previous = read_file(path);
  EXPECT_EQ(previous, rsvc::snapshot_to_json(engine) + "\n");
  EXPECT_FALSE(fs::exists(tmp));

  // A save that fails (here: the temporary file cannot be created) throws
  // and leaves the previous snapshot byte-identical.
  engine.advance_to(30.0);
  ASSERT_TRUE(fs::create_directory(tmp));
  EXPECT_THROW(rsvc::save_snapshot(engine, path), rsvc::SnapshotError);
  EXPECT_EQ(read_file(path), previous);
  EXPECT_TRUE(fs::is_directory(tmp));  // not ours to remove
  fs::remove(tmp);

  // A successful save replaces it and leaves no temporary file behind.
  rsvc::save_snapshot(engine, path);
  EXPECT_EQ(read_file(path), rsvc::snapshot_to_json(engine) + "\n");
  EXPECT_NE(read_file(path), previous);
  EXPECT_FALSE(fs::exists(tmp));
  EXPECT_EQ(rsvc::load_snapshot(path)->state_digest(), engine.state_digest());
  fs::remove(path);
}
