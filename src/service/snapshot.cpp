#include "service/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

#include "service/protocol.hpp"
#include "util/json_parser.hpp"
#include "util/json_writer.hpp"
#include "util/string_utils.hpp"

namespace reasched::service {

namespace {

constexpr int kSnapshotVersion = 1;

const char* op_name(ServiceOp::Kind kind) {
  switch (kind) {
    case ServiceOp::Kind::kSubmit: return "submit";
    case ServiceOp::Kind::kCancel: return "cancel";
    case ServiceOp::Kind::kAdvance: return "advance";
    case ServiceOp::Kind::kDrain: return "drain";
    case ServiceOp::Kind::kReplay: return "replay";
  }
  return "?";  // unreachable
}

std::string digest_hex(std::uint64_t digest) {
  return util::format("%016llx", static_cast<unsigned long long>(digest));
}

double exact_number(const util::JsonValue& v, const char* key) {
  if (!v.contains(key) || !v.at(key).is_number()) {
    throw SnapshotError(util::format("snapshot: missing numeric field \"%s\"", key));
  }
  return v.at(key).as_number();
}

[[noreturn]] void io_fail(const char* what, const std::string& path, int err) {
  throw SnapshotError(
      util::format("snapshot: %s %s failed (%s)", what, path.c_str(), std::strerror(err)));
}

/// Make a completed rename in the directory holding `path` durable.
void sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                          : slash == 0               ? std::string("/")
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) io_fail("open of directory", dir, errno);
  const int synced = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (synced != 0) io_fail("fsync of directory", dir, err);
}

template <typename T>
T exact_integral(const util::JsonValue& v, const char* key) {
  return integral_field<T>(exact_number(v, key), key, "");
}

}  // namespace

std::string snapshot_to_json(const ServiceEngine& engine) {
  const ServiceConfig& config = engine.config();
  util::JsonWriter w;
  w.begin_object();
  w.kv("version", kSnapshotVersion);

  w.key("config").begin_object();
  w.kv("method", config.method.to_string());
  w.kv("seed", std::to_string(config.seed));
  w.key("engine").begin_object();
  w.kv("max_invalid_retries", config.engine.max_invalid_retries);
  w.kv("feedback_enabled", config.engine.feedback_enabled);
  w.kv("record_traces", config.engine.record_traces);
  w.kv("enforce_walltime", config.engine.enforce_walltime);
  w.key("cluster").begin_object();
  w.kv("total_nodes", config.engine.cluster.total_nodes);
  w.kv_exact("total_memory_gb", config.engine.cluster.total_memory_gb);
  w.kv_exact("watts_per_busy_node", config.engine.cluster.watts_per_busy_node);
  w.kv_exact("watts_per_idle_node", config.engine.cluster.watts_per_idle_node);
  w.end_object();
  w.end_object();
  w.key("stream").begin_object();
  w.kv("scenario", config.stream.scenario.to_string());
  w.kv("batch_jobs", config.stream.batch_jobs);
  w.kv("max_batches", config.stream.max_batches);
  w.kv_exact("rate_scale", config.stream.rate_scale);
  w.end_object();
  w.end_object();

  w.key("ops").begin_array();
  for (const ServiceOp& op : engine.ops()) {
    w.begin_object();
    w.kv("op", op_name(op.kind));
    switch (op.kind) {
      case ServiceOp::Kind::kSubmit:
        w.key("job");
        job_to_json(w, op.job);
        break;
      case ServiceOp::Kind::kCancel: w.kv("id", op.id); break;
      case ServiceOp::Kind::kAdvance: w.kv_exact("to", op.to); break;
      case ServiceOp::Kind::kDrain: break;
      case ServiceOp::Kind::kReplay:
        w.key("jobs").begin_array();
        for (const sim::Job& j : op.jobs) job_to_json(w, j);
        w.end_array();
        break;
    }
    w.end_object();
  }
  w.end_array();

  w.kv("digest", digest_hex(engine.state_digest()));
  w.end_object();
  return std::move(w).str();
}

void save_snapshot(const ServiceEngine& engine, const std::string& path) {
  // Crash-consistent: the text goes to a sibling temporary file, is flushed
  // to disk, and only then renamed over `path` in one step. A crash at any
  // instant leaves either the previous snapshot or the new one, each whole.
  const std::string text = snapshot_to_json(engine) + '\n';
  const std::string tmp = path + ".tmp";
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(tmp.c_str(), "w"), &std::fclose);
  if (f == nullptr) io_fail("open of", tmp, errno);
  const bool written = std::fwrite(text.data(), 1, text.size(), f.get()) == text.size() &&
                       std::fflush(f.get()) == 0 && ::fsync(::fileno(f.get())) == 0 &&
                       std::fclose(f.release()) == 0 &&
                       std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!written) {
    const int err = errno;
    f.reset();
    ::unlink(tmp.c_str());
    io_fail("write of", path, err);
  }
  sync_parent_dir(path);
}

std::unique_ptr<ServiceEngine> restore_snapshot_text(const std::string& json) {
  util::JsonValue doc;
  try {
    doc = util::parse_json(json);
  } catch (const std::exception& e) {
    throw SnapshotError(util::format("snapshot: invalid JSON (%s)", e.what()));
  }
  if (!doc.is_object()) throw SnapshotError("snapshot: expected a JSON object");
  const double version = exact_number(doc, "version");
  if (version != kSnapshotVersion) {
    throw SnapshotError(util::format("snapshot: unsupported version %g", version));
  }
  if (!doc.contains("config") || !doc.at("config").is_object()) {
    throw SnapshotError("snapshot: missing \"config\" object");
  }
  const util::JsonValue& cfg = doc.at("config");

  ServiceConfig config;
  try {
    config.method = harness::MethodSpec::parse(cfg.at("method").as_string());
    config.seed = std::stoull(cfg.at("seed").as_string());
    const util::JsonValue& eng = cfg.at("engine");
    config.engine.max_invalid_retries = exact_integral<int>(eng, "max_invalid_retries");
    config.engine.feedback_enabled = eng.at("feedback_enabled").as_bool();
    config.engine.record_traces = eng.at("record_traces").as_bool();
    config.engine.enforce_walltime = eng.at("enforce_walltime").as_bool();
    const util::JsonValue& cluster = eng.at("cluster");
    config.engine.cluster.total_nodes = exact_integral<int>(cluster, "total_nodes");
    config.engine.cluster.total_memory_gb = exact_number(cluster, "total_memory_gb");
    config.engine.cluster.watts_per_busy_node = exact_number(cluster, "watts_per_busy_node");
    config.engine.cluster.watts_per_idle_node = exact_number(cluster, "watts_per_idle_node");
    const util::JsonValue& stream = cfg.at("stream");
    const auto batch_jobs = exact_integral<std::size_t>(stream, "batch_jobs");
    if (batch_jobs > 0) {
      config.stream = workload::make_stream_spec(
          stream.at("scenario").as_string(), batch_jobs,
          exact_integral<std::size_t>(stream, "max_batches"),
          exact_number(stream, "rate_scale"));
    }
  } catch (const SnapshotError&) {
    throw;
  } catch (const std::exception& e) {
    throw SnapshotError(util::format("snapshot: bad config (%s)", e.what()));
  }

  auto engine = std::make_unique<ServiceEngine>(config);

  if (!doc.contains("ops") || !doc.at("ops").is_array()) {
    throw SnapshotError("snapshot: missing \"ops\" array");
  }
  const util::JsonValue::Array& ops = doc.at("ops").as_array();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const util::JsonValue& entry = ops[i];
    ServiceOp op;
    try {
      const std::string& kind = entry.at("op").as_string();
      if (kind == "submit") {
        op.kind = ServiceOp::Kind::kSubmit;
        op.job = job_from_json(entry.at("job"));
      } else if (kind == "cancel") {
        op.kind = ServiceOp::Kind::kCancel;
        op.id = exact_integral<sim::JobId>(entry, "id");
      } else if (kind == "advance") {
        op.kind = ServiceOp::Kind::kAdvance;
        op.to = exact_number(entry, "to");
      } else if (kind == "drain") {
        op.kind = ServiceOp::Kind::kDrain;
      } else if (kind == "replay") {
        op.kind = ServiceOp::Kind::kReplay;
        for (const util::JsonValue& j : entry.at("jobs").as_array()) {
          op.jobs.push_back(job_from_json(j));
        }
      } else {
        throw SnapshotError(util::format("snapshot: unknown op \"%s\"", kind.c_str()));
      }
      engine->apply(op);
    } catch (const SnapshotError&) {
      throw;
    } catch (const std::exception& e) {
      throw SnapshotError(
          util::format("snapshot: replay of op %zu failed (%s)", i, e.what()));
    }
  }

  if (!doc.contains("digest") || !doc.at("digest").is_string()) {
    throw SnapshotError("snapshot: missing \"digest\"");
  }
  const std::string recomputed = digest_hex(engine->state_digest());
  const std::string& stored = doc.at("digest").as_string();
  if (recomputed != stored) {
    throw SnapshotError(util::format(
        "snapshot: digest mismatch after replay (stored %s, recomputed %s) - the restoring "
        "build does not reproduce the checkpointed session bit-for-bit",
        stored.c_str(), recomputed.c_str()));
  }
  return engine;
}

std::unique_ptr<ServiceEngine> load_snapshot(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw SnapshotError("snapshot: cannot open " + path);
  std::ostringstream buffer;
  buffer << f.rdbuf();
  return restore_snapshot_text(buffer.str());
}

}  // namespace reasched::service
