#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "service/service_engine.hpp"
#include "sim/job.hpp"
#include "util/json_parser.hpp"
#include "util/json_writer.hpp"

namespace reasched::service {

/// The RJMS protocol boundary: newline-delimited JSON over stdin/stdout.
/// One request line in, one response line out, in order. Requests:
///
///   {"op":"submit","job":{"duration":60,"nodes":4,...}}   -> {"ok":true,"op":"submit","id":1}
///   {"op":"query"}                                        -> session status
///   {"op":"query","id":3}                                 -> one job's state
///   {"op":"cancel","id":3}                                -> cancelled id cascade
///   {"op":"advance","to":3600}                            -> process events up to t
///   {"op":"drain"}                                        -> run to completion + metrics
///   {"op":"checkpoint","path":"snap.json"}                -> write a snapshot
///   {"op":"stats"}                                        -> live telemetry snapshot
///   {"op":"shutdown"}                                     -> close the session
///
/// Every error - parse failure, unknown op, rejected operation - is a
/// `{"ok":false,"error":"..."}` line; the session keeps serving. Doubles in
/// responses that feed state (times, digests) are round-trip exact.

/// Malformed request line (bad JSON, missing fields, unknown op). The
/// message is safe to echo back to the client verbatim.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Request {
  enum class Op { kSubmit, kQuery, kCancel, kAdvance, kDrain, kCheckpoint, kStats, kShutdown };
  Op op = Op::kQuery;
  sim::Job job;          ///< kSubmit
  bool has_id = false;   ///< kQuery: id present?
  sim::JobId id = 0;     ///< kQuery / kCancel
  double to = 0.0;       ///< kAdvance
  std::string path;      ///< kCheckpoint
};

/// Parse one request line; throws ProtocolError naming what is wrong.
Request parse_request(const std::string& line);

/// `raw` as a T (int or std::size_t) when it is an integer inside T's range.
/// Otherwise throws ProtocolError naming the field, and the value when it
/// is out of range: `<prefix>field "nodes" value 1e+10 out of range`. Every
/// integer field read from JSON - request ids, job fields, the snapshot's
/// counts - goes through this one check.
template <typename T>
T integral_field(double raw, const char* key, const char* prefix = "request: ");

/// Job JSON codec shared by the protocol and the snapshot format. Emits
/// every field with round-trip-exact doubles; parsing fills defaults
/// (id 0 = assign, walltime = duration) and throws ProtocolError on
/// missing/ill-typed required fields (duration, nodes).
void job_to_json(util::JsonWriter& w, const sim::Job& job);
sim::Job job_from_json(const util::JsonValue& v);

/// Response renderers - each returns one complete JSON line (no newline).
std::string render_submit(sim::JobId id);
std::string render_cancel(const std::vector<sim::JobId>& cancelled);
std::string render_status(const ServiceStatus& status);
std::string render_job_state(sim::JobId id, sim::JobState state);
std::string render_advance(const ServiceStatus& status);
std::string render_drain(const DrainResult& result);
std::string render_checkpoint(const std::string& path, std::uint64_t digest);
/// Live telemetry snapshot as one JSON line: the registry's counters,
/// gauges and histograms (name-sorted) plus span-ring occupancy. Purely
/// observational - nothing here feeds the digest, the op log or a decision.
std::string render_stats(bool obs_enabled, const obs::RegistrySnapshot& registry,
                         const obs::TraceStats& spans);
std::string render_shutdown();
std::string render_error(const std::string& message);

/// The decision trace as JSON lines with exact times - the artifact CI
/// diffs bit-for-bit between an uninterrupted run and a
/// checkpoint/restore/resume run.
std::string render_decision_trace(const sim::ScheduleResult& schedule);

}  // namespace reasched::service
