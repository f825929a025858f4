#include "service/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <string_view>
#include <utility>

#include "util/json_writer.hpp"
#include "util/string_utils.hpp"

namespace reasched::service {

namespace {

double require_number(const util::JsonValue& v, const char* key) {
  if (!v.contains(key) || !v.at(key).is_number()) {
    throw ProtocolError(util::format("request: missing or non-numeric field \"%s\"", key));
  }
  return v.at(key).as_number();
}

/// Ids, users, groups and dependency entries all share sim::JobId's range.
sim::JobId id_from(const util::JsonValue& v, const char* key) {
  return integral_field<sim::JobId>(require_number(v, key), key);
}

/// Refuse any key of `obj` outside `accepted`, naming it and listing the
/// accepted ones - a misspelt field must not silently fall back to a default.
void accept_only(const util::JsonValue& obj, std::initializer_list<std::string_view> accepted,
                 const char* what = "field") {
  for (const auto& [key, value] : obj.as_object()) {
    if (std::find(accepted.begin(), accepted.end(), key) != accepted.end()) continue;
    std::string list;
    for (const std::string_view a : accepted) {
      if (!list.empty()) list += ", ";
      list += a;
    }
    throw ProtocolError(util::format("request: unknown %s \"%s\" (accepted: %s)", what,
                                     key.c_str(), list.c_str()));
  }
}

}  // namespace

template <typename T>
T integral_field(double raw, const char* key, const char* prefix) {
  // NaN fails the first test. Both ends of the range are exact doubles (zero
  // or a power of two), so the cast below is always in range.
  if (raw != std::nearbyint(raw)) {
    throw ProtocolError(util::format("%sfield \"%s\" must be an integer", prefix, key));
  }
  const double lo = static_cast<double>(std::numeric_limits<T>::min());
  const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);  // max + 1
  if (raw < lo || raw >= hi) {
    throw ProtocolError(util::format("%sfield \"%s\" value %s out of range", prefix, key,
                                     util::format_double_exact(raw).c_str()));
  }
  return static_cast<T>(raw);
}

template int integral_field<int>(double, const char*, const char*);
template std::size_t integral_field<std::size_t>(double, const char*, const char*);

void job_to_json(util::JsonWriter& w, const sim::Job& job) {
  w.begin_object();
  w.kv("id", job.id);
  w.kv("user", job.user);
  w.kv("group", job.group);
  w.kv_exact("submit_time", job.submit_time);
  w.kv_exact("duration", job.duration);
  w.kv_exact("walltime", job.walltime);
  w.kv("nodes", job.nodes);
  w.kv_exact("memory_gb", job.memory_gb);
  w.key("dependencies").begin_array();
  for (const sim::JobId dep : job.dependencies) w.value(dep);
  w.end_array();
  w.end_object();
}

sim::Job job_from_json(const util::JsonValue& v) {
  if (!v.is_object()) throw ProtocolError("request: \"job\" must be an object");
  // Exactly the fields job_to_json writes, so snapshots restore unchanged.
  const std::initializer_list<std::string_view> job_fields = {
      "id", "user", "group", "submit_time", "duration", "walltime", "nodes", "memory_gb",
      "dependencies"};
  accept_only(v, job_fields, "job field");
  sim::Job job;
  job.duration = require_number(v, "duration");
  job.walltime = v.number_or("walltime", job.duration);
  job.nodes = integral_field<int>(require_number(v, "nodes"), "nodes");
  job.memory_gb = v.number_or("memory_gb", 1.0);
  job.submit_time = v.number_or("submit_time", 0.0);
  if (v.contains("id")) job.id = id_from(v, "id");
  if (v.contains("user")) job.user = id_from(v, "user");
  if (v.contains("group")) job.group = id_from(v, "group");
  if (v.contains("dependencies")) {
    const util::JsonValue& deps = v.at("dependencies");
    if (!deps.is_array()) throw ProtocolError("request: \"dependencies\" must be an array");
    for (std::size_t i = 0; i < deps.size(); ++i) {
      if (!deps.at(i).is_number()) {
        throw ProtocolError("request: \"dependencies\" entries must be job ids");
      }
      job.dependencies.push_back(
          integral_field<sim::JobId>(deps.at(i).as_number(), "dependencies"));
    }
  }
  return job;
}

Request parse_request(const std::string& line) {
  util::JsonValue doc;
  try {
    doc = util::parse_json(line);
  } catch (const std::exception& e) {
    throw ProtocolError(util::format("request: invalid JSON (%s)", e.what()));
  }
  if (!doc.is_object()) throw ProtocolError("request: expected a JSON object");
  if (!doc.contains("op") || !doc.at("op").is_string()) {
    throw ProtocolError("request: missing string field \"op\"");
  }
  const std::string& op = doc.at("op").as_string();
  Request req;
  if (op == "submit") {
    req.op = Request::Op::kSubmit;
    accept_only(doc, {"op", "job"});
    if (!doc.contains("job")) throw ProtocolError("request: submit needs a \"job\" object");
    req.job = job_from_json(doc.at("job"));
  } else if (op == "query") {
    req.op = Request::Op::kQuery;
    accept_only(doc, {"op", "id"});
    if (doc.contains("id")) {
      req.has_id = true;
      req.id = id_from(doc, "id");
    }
  } else if (op == "cancel") {
    req.op = Request::Op::kCancel;
    accept_only(doc, {"op", "id"});
    req.id = id_from(doc, "id");
  } else if (op == "advance") {
    req.op = Request::Op::kAdvance;
    accept_only(doc, {"op", "to"});
    req.to = require_number(doc, "to");
  } else if (op == "drain") {
    req.op = Request::Op::kDrain;
    accept_only(doc, {"op"});
  } else if (op == "checkpoint") {
    req.op = Request::Op::kCheckpoint;
    accept_only(doc, {"op", "path"});
    if (!doc.contains("path") || !doc.at("path").is_string()) {
      throw ProtocolError("request: checkpoint needs a string \"path\"");
    }
    req.path = doc.at("path").as_string();
  } else if (op == "stats") {
    req.op = Request::Op::kStats;
    accept_only(doc, {"op"});
  } else if (op == "shutdown") {
    req.op = Request::Op::kShutdown;
    accept_only(doc, {"op"});
  } else {
    throw ProtocolError(util::format(
        "request: unknown op \"%s\" (submit|query|cancel|advance|drain|checkpoint|stats|shutdown)",
        op.c_str()));
  }
  return req;
}

namespace {

void status_fields(util::JsonWriter& w, const ServiceStatus& s) {
  w.kv_exact("clock", s.clock);
  w.kv_exact("now", s.engine_now);
  w.kv("steps", static_cast<long long>(s.steps));
  w.kv("admitted", s.n_admitted);
  w.kv("buffered", s.n_buffered);
  w.kv("waiting", s.n_waiting);
  w.kv("running", s.n_running);
  w.kv("completed", s.n_completed);
  w.kv("cancelled", s.n_cancelled);
  w.kv("decisions", s.n_decisions);
  w.kv("stream_emitted", s.stream_emitted);
  w.kv("drained", s.drained);
}

}  // namespace

std::string render_submit(sim::JobId id) {
  util::JsonWriter w;
  w.begin_object().kv("ok", true).kv("op", "submit").kv("id", id).end_object();
  return std::move(w).str();
}

std::string render_cancel(const std::vector<sim::JobId>& cancelled) {
  util::JsonWriter w;
  w.begin_object().kv("ok", true).kv("op", "cancel");
  w.key("cancelled").begin_array();
  for (const sim::JobId id : cancelled) w.value(id);
  w.end_array().end_object();
  return std::move(w).str();
}

std::string render_status(const ServiceStatus& s) {
  util::JsonWriter w;
  w.begin_object().kv("ok", true).kv("op", "query");
  status_fields(w, s);
  w.end_object();
  return std::move(w).str();
}

std::string render_job_state(sim::JobId id, sim::JobState state) {
  util::JsonWriter w;
  w.begin_object().kv("ok", true).kv("op", "query").kv("id", id);
  w.kv("state", sim::to_string(state));
  w.end_object();
  return std::move(w).str();
}

std::string render_advance(const ServiceStatus& s) {
  util::JsonWriter w;
  w.begin_object().kv("ok", true).kv("op", "advance");
  status_fields(w, s);
  w.end_object();
  return std::move(w).str();
}

std::string render_drain(const DrainResult& result) {
  util::JsonWriter w;
  w.begin_object().kv("ok", true).kv("op", "drain");
  w.kv("completed", result.schedule.completed.size());
  w.kv_exact("final_time", result.schedule.final_time);
  w.kv("decisions", result.schedule.n_decisions);
  w.key("metrics").begin_object();
  for (const metrics::Metric m : metrics::all_metrics()) {
    w.kv_exact(metrics::to_string(m), result.metrics.get(m));
  }
  w.end_object().end_object();
  return std::move(w).str();
}

std::string render_checkpoint(const std::string& path, std::uint64_t digest) {
  util::JsonWriter w;
  w.begin_object().kv("ok", true).kv("op", "checkpoint").kv("path", path);
  w.kv("digest", util::format("%016llx", static_cast<unsigned long long>(digest)));
  w.end_object();
  return std::move(w).str();
}

std::string render_stats(bool obs_enabled, const obs::RegistrySnapshot& registry,
                         const obs::TraceStats& spans) {
  util::JsonWriter w;
  w.begin_object().kv("ok", true).kv("op", "stats");
  w.kv("obs_enabled", obs_enabled);
  w.key("counters").begin_object();
  for (const auto& [name, value] : registry.counters) w.kv(name, static_cast<long long>(value));
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, value] : registry.gauges) w.kv_exact(name, value);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : registry.histograms) {
    w.key(name).begin_object();
    w.key("bounds").begin_array();
    for (const double b : h.bounds) w.value(b);
    w.end_array();
    w.key("counts").begin_array();
    for (const std::uint64_t c : h.counts) w.value(static_cast<long long>(c));
    w.end_array();
    w.kv("count", static_cast<long long>(h.count));
    w.kv_exact("sum", h.sum);
    w.end_object();
  }
  w.end_object();
  w.key("spans").begin_object();
  w.kv("recorded", spans.recorded);
  w.kv("dropped", spans.dropped);
  w.kv("capacity", spans.capacity);
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

std::string render_shutdown() {
  util::JsonWriter w;
  w.begin_object().kv("ok", true).kv("op", "shutdown").end_object();
  return std::move(w).str();
}

std::string render_error(const std::string& message) {
  util::JsonWriter w;
  w.begin_object().kv("ok", false).kv("error", message).end_object();
  return std::move(w).str();
}

std::string render_decision_trace(const sim::ScheduleResult& schedule) {
  std::string out;
  for (const sim::DecisionRecord& rec : schedule.decisions) {
    util::JsonWriter w;
    w.begin_object();
    w.kv_exact("t", rec.time);
    w.kv("action", rec.action.to_string());
    w.kv("accepted", rec.accepted);
    w.end_object();
    out += w.str();
    out += '\n';
  }
  return out;
}

}  // namespace reasched::service
