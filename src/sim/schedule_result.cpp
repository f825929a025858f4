#include "sim/schedule_result.hpp"

#include <stdexcept>

#include "util/string_utils.hpp"

namespace reasched::sim {

const std::string& TraceText::str() const {
  static const std::string kEmpty;
  return text_ != nullptr ? *text_ : kEmpty;
}

const CompletedJob& ScheduleResult::find(JobId id) const {
  for (const auto& c : completed) {
    if (c.job.id == id) return c;
  }
  throw std::out_of_range(util::format("ScheduleResult: job %d not found", id));
}

std::vector<double> ScheduleResult::wait_times() const {
  std::vector<double> out;
  out.reserve(completed.size());
  for (const auto& c : completed) out.push_back(c.wait_time());
  return out;
}

std::vector<double> ScheduleResult::turnaround_times() const {
  std::vector<double> out;
  out.reserve(completed.size());
  for (const auto& c : completed) out.push_back(c.turnaround_time());
  return out;
}

}  // namespace reasched::sim
