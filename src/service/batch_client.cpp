#include "harness/experiment.hpp"

#include "core/react_agent.hpp"
#include "service/service_engine.hpp"

namespace reasched::harness {

// harness::run_method is *declared* in harness/experiment.hpp but *defined*
// here in the service layer: the batch harness is one client of the
// scheduling service (PR 8), and the layering contract (layer_lint.py) says
// service may include harness, never the reverse. The harness declares the
// seam; the layer that owns ServiceEngine binds it. Linking is unaffected -
// every binary that uses run_method links the one reasched archive.
RunOutcome run_method(const std::vector<sim::Job>& jobs, const MethodSpec& method,
                      std::uint64_t seed, const sim::EngineConfig& engine_config) {
  // The batch harness is one client of the scheduling service: a replay
  // session that loads the whole trace and drains it. ServiceEngine drives
  // the same sim::EngineCore steps sim::Engine::run performs, so batch
  // results are bit-identical to the pre-service harness (pinned by the
  // golden tests) while every harness run exercises the service path.
  service::ServiceConfig config;
  config.method = method;
  config.engine = engine_config;
  config.seed = seed;
  service::ServiceEngine session(config);
  session.replay(jobs);

  RunOutcome outcome;
  if (const auto* agent = dynamic_cast<const core::ReActAgent*>(&session.scheduler())) {
    OverheadSummary o;
    const llm::Transcript& t = agent->transcript();
    o.n_calls = t.n_calls();
    o.n_successful = t.n_successful();
    o.total_elapsed_s = t.total_elapsed_successful();
    o.latencies = t.successful_latencies();
    o.prompt_tokens = t.total_prompt_tokens();
    o.completion_tokens = t.total_completion_tokens();
    outcome.overhead = std::move(o);
  }
  // Last: the schedule moves out of the expiring session.
  service::DrainResult drained = std::move(session).take_outcome();
  outcome.schedule = std::move(drained.schedule);
  outcome.metrics = drained.metrics;
  return outcome;
}

}  // namespace reasched::harness
