#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/wallclock.hpp"
#include "util/json_writer.hpp"

namespace reasched::obs {

namespace {

/// Small dense per-thread id for trace rows: threads are numbered in first-
/// use order, so exported traces group spans by worker instead of printing
/// opaque pthread handles.
int this_thread_id() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

TraceRecorder::TraceRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder g;
  return g;
}

void TraceRecorder::record(SpanRecord rec) {
  util::MutexLock lock(mu_);
  if (ring_.size() < capacity_) {
    // Grow on demand, doubling but never past the bound.
    if (ring_.size() == ring_.capacity()) {
      ring_.reserve(std::min(capacity_, std::max<std::size_t>(64, 2 * ring_.size())));
    }
    ring_.push_back(std::move(rec));
  } else {
    ring_[next_] = std::move(rec);
  }
  next_ = (next_ + 1) % capacity_;
  ++total_;
}

std::vector<SpanRecord> TraceRecorder::snapshot() const {
  util::MutexLock lock(mu_);
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  // Oldest slot: with a full ring the next overwrite target is the oldest.
  const std::size_t start = ring_.size() < capacity_ ? 0 : next_;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(start + i) % capacity_]);
  }
  return out;
}

TraceStats TraceRecorder::stats() const {
  util::MutexLock lock(mu_);
  TraceStats s;
  s.recorded = ring_.size();
  s.dropped = total_ - s.recorded;
  s.capacity = capacity_;
  return s;
}

void TraceRecorder::clear() {
  util::MutexLock lock(mu_);
  ring_ = {};
  next_ = 0;
  total_ = 0;
}

std::string TraceRecorder::chrome_trace_json() const {
  const std::vector<SpanRecord> spans = snapshot();
  util::JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const SpanRecord& s : spans) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("cat", s.cat);
    w.kv("ph", "X");
    w.kv("ts", s.start_us);
    w.kv("dur", s.dur_us);
    w.kv("pid", 1);
    w.kv("tid", s.tid);
    w.key("args");
    w.begin_object();
    if (s.sim_time >= 0.0) w.kv("sim_time", s.sim_time);
    for (const auto& [k, v] : s.args) w.kv(k, v);
    for (const auto& [k, v] : s.sargs) w.kv(k, v);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.end_object();
  return std::move(w).str();
}

void TraceRecorder::save_chrome_trace(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("TraceRecorder::save_chrome_trace: cannot open " + path);
  f << chrome_trace_json() << '\n';
}

Span Span::begin(TraceRecorder& recorder, std::string name, std::string cat) {
  Span s;
  s.recorder_ = &recorder;
  s.record_.name = std::move(name);
  s.record_.cat = std::move(cat);
  s.record_.tid = this_thread_id();
  s.record_.start_us = monotonic_us();
  return s;
}

Span::Span(Span&& other) noexcept
    : recorder_(other.recorder_), record_(std::move(other.record_)) {
  other.recorder_ = nullptr;
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    end();
    recorder_ = other.recorder_;
    record_ = std::move(other.record_);
    other.recorder_ = nullptr;
  }
  return *this;
}

Span::~Span() { end(); }

void Span::arg(std::string key, double value) {
  if (recorder_ != nullptr) record_.args.emplace_back(std::move(key), value);
}

void Span::sarg(std::string key, std::string value) {
  if (recorder_ != nullptr) record_.sargs.emplace_back(std::move(key), std::move(value));
}

void Span::set_sim_time(double t) {
  if (recorder_ != nullptr) record_.sim_time = t;
}

void Span::end() {
  if (recorder_ == nullptr) return;
  record_.dur_us = monotonic_us() - record_.start_us;
  TraceRecorder* recorder = recorder_;
  recorder_ = nullptr;
  recorder->record(std::move(record_));
}

}  // namespace reasched::obs
