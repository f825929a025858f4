#pragma once

#include <memory>
#include <stdexcept>
#include <string>

#include "service/service_engine.hpp"

namespace reasched::service {

/// Checkpoint/restart via deterministic replay. A snapshot is NOT a dump of
/// engine internals: it is the ServiceConfig plus the logged operation
/// sequence plus a digest of the observable state. Restore rebuilds a fresh
/// ServiceEngine from the config, re-applies every op, and verifies the
/// recomputed digest against the stored one - bit-identical by construction,
/// because every component (engine, schedulers, solvers, workload
/// generation) is deterministic (the determinism lint enforces this
/// statically; the checkpoint golden test enforces it dynamically).
///
/// This model sidesteps serializing arbitrary scheduler/solver internals at
/// the cost of replay time proportional to the session so far - the right
/// trade for scheduling sessions, where ops are few and decisions are
/// cheap. Limitation: methods must be deterministic; a live HTTP LLM client
/// (llm/http_client) cannot be checkpointed this way (the simulated-profile
/// agents can - their latency/decision draws are seeded).
///
/// All doubles travel round-trip exact (util::format_double_exact); the
/// seed travels as a decimal string (JSON numbers cannot hold a full
/// uint64).

/// Malformed snapshot: bad JSON, unsupported version, or - the important
/// one - a digest mismatch after replay, meaning the restoring build does
/// not reproduce the checkpointed session bit-for-bit.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Serialize the session (config + op log + state digest) as one JSON doc.
std::string snapshot_to_json(const ServiceEngine& engine);

/// snapshot_to_json + write to `path` atomically: the text is written and
/// fsynced to `<path>.tmp`, which is then renamed over `path`, so a crash
/// or a failed save leaves the previous snapshot intact. Throws
/// SnapshotError on I/O failure (no `.tmp` is left behind).
void save_snapshot(const ServiceEngine& engine, const std::string& path);

/// Rebuild a session from snapshot text: construct from the embedded
/// config, re-apply every op, verify the digest. Throws SnapshotError on
/// malformed input or digest mismatch.
std::unique_ptr<ServiceEngine> restore_snapshot_text(const std::string& json);

/// Read `path` and restore_snapshot_text it.
std::unique_ptr<ServiceEngine> load_snapshot(const std::string& path);

}  // namespace reasched::service
