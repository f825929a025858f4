// rjms_stream: the scheduling daemon driven open loop over its stdin/stdout
// protocol. The request log is built once per run from the seed; every
// session replays all of it against a fresh `reasched_service --method easy
// --obs --runlog-out ...`, with one writer thread sending each line when it
// is due and one reader thread stamping each response as it arrives. The
// traced run replays the same log in-process through service::parse_request
// and service::handle_request and times each call.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/runlog.hpp"
#include "service/protocol.hpp"
#include "service/service_engine.hpp"
#include "service/session.hpp"
#include "util/json_parser.hpp"
#include "util/rng.hpp"
#include "workload/scenario_spec.hpp"

extern char** environ;

namespace e2e {

namespace {

using namespace reasched;

// Job shapes come from this scenario at a fixed seed (as in the panels); the
// run's seed jitters the arrivals and orders the per-job queries. Arrivals
// are stretched so the queue stands but stays bounded.
const char* const kScenario = "hetero_mix|stretch?load=0.5";
constexpr std::uint64_t kJobSeed = 42;
constexpr std::size_t kBatches = 400;
constexpr std::size_t kBatchJobs = 4;
constexpr double kLatencyLimitUs = 25000.0;
// Offered rates. The first is the reference rate; each round runs it
// kReferenceSessions times and every other rate once.
const std::vector<double> kLadder = {10000, 15000, 20000, 25000, 30000, 35000,
                                     40000, 45000, 50000, 60000, 70000};
constexpr std::size_t kReferenceSessions = 3;
constexpr std::size_t kBackToBackSessions = 3;

// Probes: requests that change no state and that the daemon answers wrongly
// (an id of 2^32 or more is read as job -2147483648; an unknown request key
// is ignored, so the misspelt query is answered as a session query). A
// correct answer is a refusal naming the value or the key; anything else is
// counted as a failed operation.
const char* const kProbeBigQuery = "{\"op\":\"query\",\"id\":4294967296}";
const char* const kProbeBigCancel = "{\"op\":\"cancel\",\"id\":4294967303}";
const char* const kProbeMisspelt = "{\"op\":\"query\",\"idd\":17}";

enum class Kind { kSubmit, kAdvance, kJobQuery, kQuery, kCancel, kStats, kProbeId, kProbeKey,
                  kCheckpoint, kDrain };

struct Line {
  std::string text;
  Kind kind;
  sim::JobId id = 0;  ///< submit: id the daemon must assign; job query / cancel: target
  const char* probe_value = nullptr;  ///< what a correct refusal names
};

struct Log {
  std::vector<Line> lines;       ///< [0] the first query, then the timed lines, then the tail
  std::size_t timed_begin = 1;
  std::size_t timed_end = 0;     ///< the tail (checkpoint, query, drain) is not timed
  std::vector<sim::Job> submitted;  ///< in id order (id = index + 1)
  std::set<sim::JobId> cancelled;
  std::size_t probes = 0;
};

std::string job_line(const sim::Job& j) {
  std::ostringstream s;
  s.precision(17);
  s << "{\"op\":\"submit\",\"job\":{\"submit_time\":" << j.submit_time
    << ",\"duration\":" << j.duration << ",\"walltime\":" << j.walltime
    << ",\"nodes\":" << j.nodes << ",\"memory_gb\":" << j.memory_gb << ",\"user\":" << j.user
    << ",\"group\":" << j.group;
  if (!j.dependencies.empty()) {
    s << ",\"dependencies\":[";
    for (std::size_t i = 0; i < j.dependencies.size(); ++i) {
      s << (i ? "," : "") << j.dependencies[i];
    }
    s << "]";
  }
  s << "}}";
  return s.str();
}

service::ServiceConfig daemon_config(std::uint64_t seed) {
  service::ServiceConfig c;
  c.method = harness::MethodSpec::parse("easy");
  c.seed = seed;
  return c;
}

/// Builds the request log. A mirror ServiceEngine follows the log as it is
/// written so that each cancel names a job that is waiting at that point.
Log build_log(std::uint64_t seed, const std::string& checkpoint_path) {
  std::vector<sim::Job> jobs = workload::generate_scenario(
      workload::ScenarioSpec::parse(kScenario), kBatches * kBatchJobs, kJobSeed);
  util::Rng rng(util::derive_seed(seed, "rjms_stream"));
  // The seed moves each arrival by up to a second; the job shapes stay.
  for (sim::Job& j : jobs) j.submit_time += rng.uniform_real(0.0, 1.0);
  std::stable_sort(jobs.begin(), jobs.end(), sim::arrival_order);

  service::ServiceEngine mirror(daemon_config(seed));
  Log log;
  log.lines.push_back({"{\"op\":\"query\"}", Kind::kQuery});
  std::set<sim::JobId> has_dependents;
  std::vector<sim::JobId> previous_batch, this_batch;
  for (std::size_t b = 0; b < kBatches; ++b) {
    this_batch.clear();
    for (std::size_t k = 0; k < kBatchJobs; ++k) {
      sim::Job j = jobs[b * kBatchJobs + k];
      j.id = static_cast<sim::JobId>(log.submitted.size() + 1);
      j.dependencies.clear();
      // Every tenth job depends on the twelfth job before it, if live.
      if (j.id > 20 && j.id % 10 == 0 && log.cancelled.count(j.id - 12) == 0) {
        j.dependencies.push_back(j.id - 12);
        has_dependents.insert(j.id - 12);
      }
      sim::Job sent = j;
      sent.id = 0;  // the daemon assigns ids
      log.lines.push_back({job_line(sent), Kind::kSubmit, j.id});
      if (mirror.submit(sent) != j.id) throw std::logic_error("mirror assigned another id");
      log.submitted.push_back(j);
      this_batch.push_back(j.id);
    }
    if (b % 10 == 5) {
      // Cancel a waiting job (pending ones of this batch if none waits).
      std::vector<sim::JobId> waiting, pending;
      for (const sim::Job& j : log.submitted) {
        if (has_dependents.count(j.id) || log.cancelled.count(j.id)) continue;
        const sim::JobState s = mirror.job_state(j.id);
        if (s == sim::JobState::kWaiting) waiting.push_back(j.id);
        if (s == sim::JobState::kPending) pending.push_back(j.id);
      }
      // The most recently submitted one: the choice follows the state, not
      // the seed, so cancels do not dominate the spread of waits between
      // seeds.
      const sim::JobId target = (waiting.empty() ? pending : waiting).back();
      mirror.cancel(target);
      log.cancelled.insert(target);
      log.lines.push_back({"{\"op\":\"cancel\",\"id\":" + std::to_string(target) + "}",
                           Kind::kCancel, target});
    }
    const double to = log.submitted.back().submit_time;
    std::ostringstream adv;
    adv.precision(17);
    adv << "{\"op\":\"advance\",\"to\":" << to << "}";
    log.lines.push_back({adv.str(), Kind::kAdvance});
    mirror.advance_to(to);
    // One query per job, one batch after its submission, in seeded order.
    rng.shuffle(previous_batch);
    for (const sim::JobId id : previous_batch) {
      log.lines.push_back({"{\"op\":\"query\",\"id\":" + std::to_string(id) + "}",
                           Kind::kJobQuery, id});
    }
    previous_batch = this_batch;
    if (b % 25 == 0) log.lines.push_back({"{\"op\":\"query\"}", Kind::kQuery});
    if (b % 25 == 12) log.lines.push_back({"{\"op\":\"stats\"}", Kind::kStats});
    if (b % 100 == 30) {
      log.lines.push_back({kProbeBigQuery, Kind::kProbeId, 0, "4294967296"});
      log.lines.push_back({kProbeBigCancel, Kind::kProbeId, 0, "4294967303"});
      log.lines.push_back({kProbeMisspelt, Kind::kProbeKey, 0, "idd"});
      log.probes += 3;
    }
  }
  for (const sim::JobId id : previous_batch) {
    log.lines.push_back({"{\"op\":\"query\",\"id\":" + std::to_string(id) + "}", Kind::kJobQuery,
                         id});
  }
  log.timed_end = log.lines.size();
  log.lines.push_back({"{\"op\":\"checkpoint\",\"path\":\"" + checkpoint_path + "\"}",
                       Kind::kCheckpoint});
  log.lines.push_back({"{\"op\":\"query\"}", Kind::kQuery});
  log.lines.push_back({"{\"op\":\"drain\"}", Kind::kDrain});
  return log;
}

// ------------------------------------------------------- reply parsing

/// A reply parsed by util::parse_json; a line that is not JSON parses to null,
/// which no check accepts.
util::JsonValue parse_reply(const std::string& reply) {
  try {
    return util::parse_json(reply);
  } catch (const std::runtime_error&) {
    return {};
  }
}

bool ok(const util::JsonValue& r) {
  return r.contains("ok") && r.at("ok").is_bool() && r.at("ok").as_bool();
}

bool names_job(const util::JsonValue& r, sim::JobId id) {
  return r.number_or("id", std::numeric_limits<double>::quiet_NaN()) == static_cast<double>(id);
}

/// Is `r` the right answer to `line`? Probes are answered correctly only by
/// a refusal that names what was wrong with them.
bool reply_correct(const Line& line, const util::JsonValue& r) {
  const std::string op = r.string_or("op", "");
  const std::string error = r.string_or("error", "");
  switch (line.kind) {
    case Kind::kSubmit: return ok(r) && op == "submit" && names_job(r, line.id);
    case Kind::kAdvance: return ok(r) && op == "advance";
    case Kind::kJobQuery: return ok(r) && op == "query" && names_job(r, line.id);
    case Kind::kQuery: return ok(r) && op == "query" && !r.contains("id");
    case Kind::kCancel: {
      if (!ok(r) || op != "cancel" || !r.contains("cancelled")) return false;
      const util::JsonValue& c = r.at("cancelled");
      return c.is_array() && c.size() == 1 && c.at(std::size_t{0}).is_number() &&
             c.at(std::size_t{0}).as_number() == static_cast<double>(line.id);
    }
    case Kind::kStats: return ok(r) && op == "stats";
    case Kind::kProbeId:
      return !ok(r) && (error.find(line.probe_value) != std::string::npos ||
                        error.find("range") != std::string::npos);
    case Kind::kProbeKey: return !ok(r) && error.find(line.probe_value) != std::string::npos;
    case Kind::kCheckpoint: return ok(r) && op == "checkpoint" && !r.string_or("path", "").empty();
    case Kind::kDrain: return ok(r) && op == "drain" && r.contains("metrics");
  }
  return false;
}

/// The reply checks must accept the refusals a hardened protocol would send,
/// rendered as the protocol renders them (field names quoted, so escaped in
/// the line), and reject the answers the daemon gives today.
void reply_check_self_test(Result& result) {
  const Line big_query{kProbeBigQuery, Kind::kProbeId, 0, "4294967296"};
  const Line big_cancel{kProbeBigCancel, Kind::kProbeId, 0, "4294967303"};
  const Line misspelt{kProbeMisspelt, Kind::kProbeKey, 0, "idd"};
  const Line cancel{"{\"op\":\"cancel\",\"id\":7}", Kind::kCancel, 7};
  const Line submit{"", Kind::kSubmit, 7};
  const struct {
    const Line* line;
    std::string reply;
    bool right;
  } cases[] = {
      {&misspelt, service::render_error("request: unknown field \"idd\""), true},
      {&big_query, service::render_error("request: field \"id\" value 4294967296 out of range"),
       true},
      {&big_cancel, service::render_error("request: field \"id\" is out of range"), true},
      {&misspelt, service::render_status(service::ServiceStatus{}), false},
      {&misspelt, service::render_error("request: unknown field \"id\""), false},
      {&big_query, service::render_error("ServiceEngine: query of unknown job -2147483648"), false},
      {&big_cancel, service::render_error("ServiceEngine: cancel of unknown job -2147483648"),
       false},
      {&cancel, service::render_cancel({7}), true},
      {&cancel, service::render_cancel({7, 9}), false},
      {&submit, service::render_submit(7), true},
      {&submit, service::render_submit(8), false},
      {&submit, "{\"ok\":true,\"op\":\"submit\",\"id\":7", false},
  };
  for (const auto& c : cases) {
    if (reply_correct(*c.line, parse_reply(c.reply)) != c.right) {
      result.fail(std::string("reply check ") + (c.right ? "rejects " : "accepts ") + c.reply +
                  " to " + c.line->text);
    }
  }
}

bool is_probe(const Line& l) { return l.kind == Kind::kProbeId || l.kind == Kind::kProbeKey; }

// ------------------------------------------------------------- daemon

class Daemon {
 public:
  /// Starts argv[0]; its standard error goes to `err_path`.
  Daemon(const std::vector<std::string>& argv, const std::string& err_path) {
    int in[2], out[2];
    if (pipe2(in, O_CLOEXEC) != 0 || pipe2(out, O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe2 failed");
    }
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, in[0], 0);
    posix_spawn_file_actions_adddup2(&fa, out[1], 1);
    posix_spawn_file_actions_addopen(&fa, 2, err_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                                     0644);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    start_ns_ = now_ns();
    const int rc = posix_spawn(&pid_, args[0], &fa, nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(in[0]);
    close(out[1]);
    to_ = in[1];
    from_ = out[0];
    if (rc != 0) {
      close(to_);
      close(from_);
      throw std::runtime_error("cannot start " + argv[0] + ": " + std::strerror(rc));
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (to_ >= 0) close(to_);
    if (pid_ > 0 && !reaped_) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (from_ >= 0) close(from_);
  }

  std::int64_t start_ns() const { return start_ns_; }

  void write_all(const char* data, std::size_t n) {
    while (n > 0) {
      const ssize_t w = ::write(to_, data, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("daemon closed its input");
      }
      data += w;
      n -= static_cast<std::size_t>(w);
    }
  }

  /// Next response line and when it arrived.
  std::string read_line(std::int64_t* at) {
    for (;;) {
      const std::size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        std::string line = buf_.substr(pos_, nl - pos_);
        pos_ = nl + 1;
        if (at != nullptr) *at = stamp_;
        return line;
      }
      buf_.erase(0, pos_);
      pos_ = 0;
      char chunk[65536];
      const ssize_t r = ::read(from_, chunk, sizeof chunk);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) throw std::runtime_error("daemon closed its output");
      stamp_ = now_ns();
      buf_.append(chunk, static_cast<std::size_t>(r));
    }
  }

  /// Close its input, wait for it to exit; returns its peak RSS in MiB.
  double finish() {
    close(to_);
    to_ = -1;
    int status = 0;
    rusage ru{};
    if (wait4(pid_, &status, 0, &ru) != pid_) throw std::runtime_error("wait4 failed");
    reaped_ = true;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("daemon exited abnormally");
    }
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
  }

 private:
  pid_t pid_ = -1;
  bool reaped_ = false;
  int to_ = -1;
  int from_ = -1;
  std::int64_t start_ns_ = 0;
  std::int64_t stamp_ = 0;
  std::string buf_;
  std::size_t pos_ = 0;
};

struct Session {
  double setup_s = 0.0;            ///< spawn until the first reply
  std::vector<std::string> replies;
  std::vector<char> right;         ///< reply_correct of each reply
  std::vector<std::int64_t> due, sent, received;  ///< timed lines only
  double b2b_s = 0.0;              ///< back-to-back: first write to last timed reply
  double peak_rss_mb = 0.0;
  std::string runlog;
};

/// One daemon session over the whole log. rate <= 0 sends the timed lines
/// back to back instead of on a schedule.
Session run_session(const Options& opt, const Log& log, double rate, const std::string& tag,
                    const std::string& decision_trace) {
  Session s;
  s.runlog = opt.workdir + "/runlog-" + tag + ".csv";
  std::vector<std::string> argv = {opt.service, "--method", "easy", "--seed",
                                   std::to_string(opt.seed), "--obs", "--runlog-out", s.runlog};
  if (!decision_trace.empty()) {
    argv.push_back("--trace-out");
    argv.push_back(decision_trace);
  }
  Daemon d(argv, opt.workdir + "/daemon.err");
  s.replies.resize(log.lines.size());
  const std::string first = log.lines[0].text + "\n";
  d.write_all(first.data(), first.size());
  std::int64_t at = 0;
  s.replies[0] = d.read_line(&at);
  s.setup_s = static_cast<double>(at - d.start_ns()) * 1e-9;

  const std::size_t b = log.timed_begin, e = log.timed_end, n = e - b;
  s.due.resize(n);
  s.sent.resize(n);
  s.received.resize(n);
  const std::int64_t t0 = now_ns() + 1000000;  // 1 ms to start both threads
  for (std::size_t i = 0; i < n; ++i) {
    s.due[i] = rate > 0.0 ? t0 + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate)
                          : t0;
  }
  std::string error;
  std::thread reader([&] {
    try {
      for (std::size_t i = 0; i < n; ++i) s.replies[b + i] = d.read_line(&s.received[i]);
    } catch (const std::exception& ex) {
      error = ex.what();
    }
  });
  try {
    std::string batch;
    std::size_t i = 0;
    while (i < n) {
      std::int64_t now = now_ns();
      if (s.due[i] > now) {
        // Sleep, never spin: a spinning client steals the daemon's CPU on
        // this small shared machine.
        std::this_thread::sleep_for(std::chrono::nanoseconds(s.due[i] - now));
        continue;
      }
      // Every line that is due goes out in one write.
      batch.clear();
      const std::size_t first_i = i;
      while (i < n && s.due[i] <= now) batch += log.lines[b + i++].text + "\n";
      d.write_all(batch.data(), batch.size());
      now = now_ns();
      for (std::size_t k = first_i; k < i; ++k) s.sent[k] = now;
    }
  } catch (const std::exception& ex) {
    if (error.empty()) error = ex.what();
  }
  reader.join();
  if (!error.empty()) throw std::runtime_error("session " + tag + ": " + error);
  s.b2b_s = static_cast<double>(s.received[n - 1] - t0) * 1e-9;
  for (std::size_t i = e; i < log.lines.size(); ++i) {
    const std::string line = log.lines[i].text + "\n";
    d.write_all(line.data(), line.size());
    s.replies[i] = d.read_line(nullptr);
  }
  s.peak_rss_mb = d.finish();
  s.right.resize(log.lines.size());
  for (std::size_t i = 0; i < log.lines.size(); ++i) {
    s.right[i] = reply_correct(log.lines[i], parse_reply(s.replies[i])) ? 1 : 0;
  }
  return s;
}

/// Latency of each timed line, from when it was due; a wrong reply misses
/// every limit.
std::vector<double> latencies_us(const Log& log, const Session& s) {
  std::vector<double> out(s.due.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = s.right[log.timed_begin + i] != 0 ? static_cast<double>(s.received[i] - s.due[i]) * 1e-3
                   : std::numeric_limits<double>::infinity();
  }
  return out;
}

std::vector<double> lateness_us(const Session& s) {
  std::vector<double> out(s.due.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<double>(s.sent[i] - s.due[i]) * 1e-3;
  }
  return out;
}

/// Counts failed operations and checks every reply, the schedule rebuilt
/// from the run log, and that the drain reply is the same in every session.
/// With `self_test`, the checker must also catch corrupted copies of it.
/// Why probes failed, as observed.
using ProbeTally = std::map<std::string, std::size_t>;

std::string probe_failure(const Line& line, const std::string& reply) {
  const util::JsonValue r = parse_reply(reply);
  if (line.kind == Kind::kProbeId &&
      r.string_or("error", "").find("-2147483648") != std::string::npos) {
    return "id read as -2147483648";
  }
  if (line.kind == Kind::kProbeKey && ok(r) && r.string_or("op", "") == "query") {
    return "misspelt key ignored, answered as a session query";
  }
  return "other: " + reply.substr(0, 80);
}

void check_session(const Log& log, const Session& s, const std::string& tag,
                   std::string& drain_reference, Result& result, bool self_test,
                   ProbeTally& probes) {
  result.attempted += log.lines.size();
  for (std::size_t i = 0; i < log.lines.size(); ++i) {
    if (s.right[i] != 0) continue;
    if (is_probe(log.lines[i])) {
      ++result.failed;
      ++probes[probe_failure(log.lines[i], s.replies[i])];
    } else {
      result.fail("session " + tag + ": request " + std::to_string(i) + " " + log.lines[i].text +
                  " got " + s.replies[i]);
      return;
    }
  }
  const std::string& drain = s.replies.back();
  const util::JsonValue drained = parse_reply(drain);
  const util::JsonValue& drain_metrics = drained.at("metrics");
  if (drain_reference.empty()) drain_reference = drain;
  if (drain != drain_reference) {
    result.fail("session " + tag + ": drain differs between sessions");
  }

  // Rebuild the schedule from the run log and the jobs that were sent.
  std::ifstream f(s.runlog);
  std::string row;
  std::getline(f, row);
  if (row != "job_id,submit_time,start_time,end_time,wait,turnaround,nodes,killed_at_walltime") {
    result.fail("session " + tag + ": unexpected run log header " + row);
    return;
  }
  std::vector<sim::CompletedJob> records;
  while (std::getline(f, row)) {
    std::istringstream in(row);
    std::string c[8];
    for (auto& cell : c) std::getline(in, cell, ',');
    const auto id = static_cast<sim::JobId>(std::stol(c[0]));
    if (id < 1 || static_cast<std::size_t>(id) > log.submitted.size()) {
      result.fail("session " + tag + ": run log names unknown job " + c[0]);
      return;
    }
    sim::CompletedJob r;
    r.job = log.submitted[static_cast<std::size_t>(id - 1)];
    r.job.submit_time = std::strtod(c[1].c_str(), nullptr);
    r.start_time = std::strtod(c[2].c_str(), nullptr);
    r.end_time = std::strtod(c[3].c_str(), nullptr);
    r.job.nodes = std::stoi(c[6]);
    r.killed_at_walltime = c[7] == "1";
    records.push_back(r);
  }
  std::vector<sim::Job> expected;
  for (const sim::Job& j : log.submitted) {
    if (log.cancelled.count(j.id) == 0) expected.push_back(j);
  }
  ScheduleCheck check;
  check.expected = &expected;
  check.records = &records;
  check.cluster = sim::ClusterSpec::paper_default();
  check.reported = {drain_metrics.at("Makespan").as_number(),
                    drain_metrics.at("Avg Wait").as_number(),
                    drain_metrics.at("Avg Turnaround").as_number(),
                    drain_metrics.at("Node Util").as_number()};
  for (const std::string& bad : check_schedule(check)) {
    result.fail("session " + tag + ": check " + bad + " failed");
  }
  if (drained.at("completed").as_number() != static_cast<double>(expected.size())) {
    result.fail("session " + tag + ": drain reports a different completed count");
  }
  if (self_test) checker_self_test(check, result);
}

/// The checkpoint written after the timed phase restores into a second
/// daemon that answers the same query and drains to the same result.
void check_restore(const Options& opt, const Log& log, const Session& s, Result& result) {
  const std::string path = parse_reply(s.replies[log.timed_end]).at("path").as_string();
  Daemon d({opt.service, "--restore", path}, opt.workdir + "/daemon.err");
  const std::string lines = "{\"op\":\"query\"}\n{\"op\":\"drain\"}\n";
  d.write_all(lines.data(), lines.size());
  const std::string query = d.read_line(nullptr);
  const std::string drain = d.read_line(nullptr);
  d.finish();
  if (query != s.replies[log.timed_end + 1]) {
    result.fail("restored daemon answers query differently: " + query);
  }
  if (drain != s.replies.back()) result.fail("restored daemon drains differently");
}

/// Latency measures of one session.
struct SessionLatency {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double tail_us = 0.0;   ///< median over the last tenth of the requests
  std::vector<double> lateness_us;
};

SessionLatency session_latency(const Log& log, const Session& s) {
  const std::vector<double> lat = latencies_us(log, s);
  SessionLatency out;
  out.p50_us = median(lat);
  out.p99_us = quantile(lat, 0.99);
  out.tail_us = median({lat.end() - static_cast<std::ptrdiff_t>(lat.size() / 10), lat.end()});
  out.lateness_us = lateness_us(s);
  return out;
}

/// Highest offered rate of one sweep whose p99 stays within the limit with
/// no growing backlog (the last tenth's median also within the limit),
/// interpolated on p99 between the last passing and the first failing rate.
/// Latency counts from when each line was due, so a generator held back by
/// a full pipe is charged to the daemon.
double sweep_max_rps(const std::vector<SessionLatency>& sweep) {
  double prev_rate = 0.0, prev_p99 = 0.0;
  for (std::size_t k = 0; k < sweep.size(); ++k) {
    const double p99 = sweep[k].p99_us;
    if (p99 > kLatencyLimitUs || sweep[k].tail_us > kLatencyLimitUs) {
      if (k == 0) return 0.0;
      const double y = std::isfinite(p99) ? std::max(p99, kLatencyLimitUs) : kLatencyLimitUs;
      if (y <= prev_p99) return prev_rate;
      return prev_rate + (kLatencyLimitUs - prev_p99) * (kLadder[k] - prev_rate) / (y - prev_p99);
    }
    prev_rate = kLadder[k];
    prev_p99 = p99;
  }
  return prev_rate;
}

// ---------------------------------------------------------- in-process

struct Replay {
  double wall_s = 0.0;  ///< timed lines only
  std::vector<std::string> replies;
  std::string decisions;
  std::size_t runlog_rows = 0;
};

/// The log replayed in-process with the daemon's config; `spans` times each
/// parse and handle call when set.
Replay replay(const Options& opt, const Log& log, SpanLog* spans, const std::string& tag) {
  obs::set_enabled(true);
  service::ServiceEngine engine(daemon_config(opt.seed));
  auto runlog = std::make_shared<obs::RunLog>(
      obs::make_file_sink(opt.workdir + "/replay-" + tag + ".csv"),
      service::ServiceEngine::runlog_columns());
  engine.set_runlog(runlog);
  Replay r;
  r.replies.resize(log.lines.size());
  bool shutdown = false;
  static const char* const kOpNames[] = {"submit", "advance", "query", "query", "cancel",
                                         "stats", "probe", "probe", "checkpoint", "drain"};
  std::int64_t t0 = 0;
  for (std::size_t i = 0; i < log.lines.size(); ++i) {
    if (i == log.timed_begin) t0 = now_ns();
    if (i == log.timed_end) r.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    const Line& line = log.lines[i];
    const auto id = static_cast<std::uint32_t>(i);
    ScopedSpan request(spans, "request", "bench", id);
    try {
      service::Request req;
      {
        ScopedSpan span(spans, "parse_request", "service", id);
        req = service::parse_request(line.text);
      }
      const char* name = kOpNames[static_cast<int>(line.kind)];
      ScopedSpan span(spans, name, line.kind == Kind::kStats ? "obs" : "service", id);
      r.replies[i] = service::handle_request(engine, req, shutdown);
    } catch (const service::ProtocolError& e) {
      r.replies[i] = service::render_error(e.what());
    }
  }
  r.decisions = service::render_decision_trace(engine.schedule_view());
  r.runlog_rows = runlog->rows();
  return r;
}

}  // namespace

void run_rjms_stream(const Options& opt, Result& result) {
  signal(SIGPIPE, SIG_IGN);
  reply_check_self_test(result);
  const Log log = build_log(opt.seed, opt.workdir + "/checkpoint.json");
  const std::size_t timed = log.timed_end - log.timed_begin;
  std::printf("rjms_stream: %zu requests per session (%zu timed, %zu probes), %zu jobs, "
              "%zu cancels, seed %llu\n",
              log.lines.size(), timed, log.probes, log.submitted.size(), log.cancelled.size(),
              static_cast<unsigned long long>(opt.seed));

  const double deadline = now_s() + opt.seconds;
  std::vector<double> setup, b2b, rss, replay_walls;
  Replay traced;
  std::vector<double> ref_p50, ref_p99, ref_late, max_rps;
  std::vector<std::vector<double>> rate_p50(kLadder.size()), rate_p99(kLadder.size());
  std::size_t invalid = 0;
  std::string drain;
  ProbeTally probes;
  std::size_t rounds = 0;
  SpanLog spans;
  // A round is kReferenceSessions sessions at the reference rate, one at
  // every other rate and kBackToBackSessions back-to-back sessions; the
  // traced run adds an in-process replay.
  do {
    const std::string r = std::to_string(rounds);
    std::vector<SessionLatency> sweep;
    for (std::size_t step = 0; step < kLadder.size() + kReferenceSessions - 1; ++step) {
      const std::size_t k = step < kReferenceSessions ? 0 : step - kReferenceSessions + 1;
      const std::string tag = "r" + r + "_" + std::to_string(step);
      const bool reference = step == 0 && rounds == 0;
      Session s = run_session(opt, log, kLadder[k], tag,
                              opt.trace && reference ? opt.workdir + "/decisions.txt" : "");
      check_session(log, s, tag, drain, result, reference, probes);
      if (reference) check_restore(opt, log, s, result);
      setup.push_back(s.setup_s);
      if (k == 0) rss.push_back(s.peak_rss_mb);
      SessionLatency l = session_latency(log, s);
      if (k == 0) {
        // The reference measurement is valid only if the generator kept to
        // its schedule.
        if (quantile(l.lateness_us, 0.99) > kLatencyLimitUs) {
          ++invalid;
        } else {
          ref_p50.push_back(l.p50_us);
          ref_p99.push_back(l.p99_us);
          ref_late.insert(ref_late.end(), l.lateness_us.begin(), l.lateness_us.end());
        }
      }
      rate_p50[k].push_back(l.p50_us);
      rate_p99[k].push_back(l.p99_us);
      if (k == sweep.size()) sweep.push_back(std::move(l));  // first session of each rate
      if (opt.trace && reference) {
        // The in-process replay must answer exactly as the daemon did.
        const Replay first = replay(opt, log, nullptr, "check");
        for (std::size_t i = 0; i < log.lines.size(); ++i) {
          if (log.lines[i].kind != Kind::kStats && first.replies[i] != s.replies[i]) {
            result.fail("in-process replay differs from the daemon at request " +
                        std::to_string(i));
            break;
          }
        }
        std::ifstream f(opt.workdir + "/decisions.txt");
        const std::string daemon_decisions((std::istreambuf_iterator<char>(f)),
                                           std::istreambuf_iterator<char>());
        if (daemon_decisions != first.decisions) {
          result.fail("in-process decision trace differs from the daemon's");
        }
      }
    }
    for (std::size_t b = 0; b < kBackToBackSessions; ++b) {
      const std::string tag = "b2b" + r + "_" + std::to_string(b);
      Session s = run_session(opt, log, 0.0, tag, "");
      check_session(log, s, tag, drain, result, false, probes);
      setup.push_back(s.setup_s);
      b2b.push_back(s.b2b_s);
    }
    max_rps.push_back(sweep_max_rps(sweep));
    if (opt.trace) {
      replay_walls.push_back(replay(opt, log, nullptr, "u" + r).wall_s);
      if (rounds == 0) traced = replay(opt, log, &spans, "t");
    }
    ++rounds;
  } while (now_s() < deadline);

  std::printf("open loop at %.0f req/s: generator lateness p50 %.1f us, p99 %.1f us over %zu "
              "lines; %zu sessions invalid (generator behind by more than %.0f us)\n",
              kLadder[0], median(ref_late), quantile(ref_late, 0.99), ref_late.size(), invalid,
              kLatencyLimitUs);
  if (ref_p99.empty()) result.fail("every reference session fell behind its schedule");
  for (std::size_t k = 0; k < kLadder.size(); ++k) {
    std::printf("  %6.0f req/s offered: median session p50 %9.1f us, p99 %9.1f us (%zu sessions)\n",
                kLadder[k], median(rate_p50[k]), median(rate_p99[k]), rate_p99[k].size());
  }
  for (const auto& [why, n] : probes) std::printf("failed probes: %zu (%s)\n", n, why.c_str());
  std::map<std::string, double> m;
  const util::JsonValue drained = parse_reply(drain);
  // Best of the run: other tenants of this shared machine stall threads for
  // milliseconds at a time; interference only ever adds time.
  const double wall = *std::min_element(b2b.begin(), b2b.end());
  m["wall_s"] = wall;
  m["decisions_per_s"] = drained.at("decisions").as_number() / wall;
  if (!opt.trace) {
    m["setup_s"] = median(setup);
    m["peak_rss_mb"] = median(rss);
    m["makespan_s"] = drained.at("metrics").at("Makespan").as_number();
    m["avg_wait_s"] = drained.at("metrics").at("Avg Wait").as_number();
    std::printf("samples: %zu reference sessions of %zu timed requests, %zu sweeps, %zu set-ups, "
                "%zu back-to-back sessions\n",
                ref_p99.size(), timed, max_rps.size(), setup.size(), b2b.size());
    result.emit(kEndToEnd, m);
    return;
  }
  if (!opt.trace_out.empty()) spans.write_chrome(opt.trace_out);
  const std::vector<std::int64_t> self = spans.self_times();
  std::vector<double> submit, advance;
  double parse = 0.0, advance_s = 0.0, query_s = 0.0, drain_s = 0.0, stats_s = 0.0;
  double named = 0.0;
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const Span& s = spans.spans()[i];
    const std::string_view name(s.name);
    const double sec = static_cast<double>(self[i]) * 1e-9;
    if (std::string_view(s.cat) != "bench") named += sec;
    if (name == "parse_request") parse += sec;
    if (name == "submit") submit.push_back(sec * 1e6);
    if (name == "advance") {
      advance.push_back(sec * 1e6);
      advance_s += sec;
    }
    if (name == "query") query_s += sec;
    if (name == "drain") drain_s += sec;
    if (name == "stats") stats_s += sec;
  }
  double stats_bytes = 0.0;
  for (std::size_t i = 0; i < log.lines.size(); ++i) {
    if (log.lines[i].kind == Kind::kStats) stats_bytes += static_cast<double>(traced.replies[i].size());
  }
  const double traced_total =
      static_cast<double>(spans.spans().back().end_ns - spans.spans().front().start_ns) * 1e-9;
  m["sim.steps"] = parse_reply(traced.replies[log.timed_end + 1]).at("steps").as_number();
  m["service.parse_us_per_req"] = parse * 1e6 / static_cast<double>(log.lines.size());
  m["service.submit_p99_us"] = quantile(submit, 0.99);
  m["service.advance_s"] = advance_s;
  m["service.advance_p99_us"] = quantile(advance, 0.99);
  m["service.query_s"] = query_s;
  m["service.drain_s"] = drain_s;
  m["obs.stats_s"] = stats_s;
  m["obs.stats_bytes"] = stats_bytes;
  m["obs.runlog_rows"] = static_cast<double>(traced.runlog_rows);
  m["apps.io_us_per_req"] =
      (median(b2b) - median(replay_walls)) * 1e6 / static_cast<double>(timed);
  // Set by this machine's scheduling stalls more than by the daemon, so
  // reported here, ungated, rather than as end-to-end metrics.
  m["client.req_p50_us"] = *std::min_element(ref_p50.begin(), ref_p50.end());
  m["client.req_p99_us"] = *std::min_element(ref_p99.begin(), ref_p99.end());
  m["client.max_rps"] = *std::max_element(max_rps.begin(), max_rps.end());
  m["client.send_late_p50_us"] = median(ref_late);
  m["client.send_late_p99_us"] = quantile(ref_late, 0.99);
  m["unattributed_s"] = traced_total - named;
  m["trace_overhead_s"] = traced.wall_s - median(replay_walls);
  std::printf("traced: named layers %.4f s of %.4f s (%.2f%%)\n", named, traced_total,
              100.0 * named / traced_total);
  if (named < 0.95 * traced_total) {
    result.fail("named layers cover less than 95% of the traced wall time");
  }
  result.emit(kPerLayer, m);
}

}  // namespace e2e
