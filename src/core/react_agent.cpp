#include "core/react_agent.hpp"

#include "core/action_parser.hpp"
#include "util/logging.hpp"

namespace reasched::core {

ReActAgent::ReActAgent(std::shared_ptr<llm::Client> client, llm::ModelProfile profile,
                       AgentConfig config)
    : client_(std::move(client)),
      profile_(std::move(profile)),
      config_(config),
      prompt_builder_(config) {}

void ReActAgent::reset() {
  scratchpad_.clear();
  transcript_.clear();
  last_thought_.clear();
  last_prompt_.clear();
  window_scratch_.clear();
  parse_failures_ = 0;
  client_->reset();
}

sim::Action ReActAgent::decide(const sim::DecisionContext& ctx) {
  // 1. Render prompt. With the scratchpad disabled (ablation) the history
  //    section is blank every step. The planning window (when bounded)
  //    selects which waiting jobs the prompt lists - and therefore which
  //    candidates the model can act on.
  const bool bounded = config_.window.select(ctx.waiting, window_scratch_);
  const std::vector<std::uint32_t>* window = bounded ? &window_scratch_ : nullptr;
  const std::string scratchpad_text =
      config_.scratchpad_enabled ? scratchpad_.render(config_.scratchpad_token_budget)
                                 : std::string("(nothing yet)\n");
  last_prompt_ = prompt_builder_.build(ctx, scratchpad_text, window);

  // 2. Query the model. The structured side channel carries the same state
  //    the prompt describes (see llm::PromptContext).
  llm::PromptContext pctx;
  pctx.decision = &ctx;
  pctx.scratchpad_entries = scratchpad_.size();
  pctx.window = window;
  if (config_.scratchpad_enabled) pctx.recently_rejected = scratchpad_.rejected_at(ctx.now);

  llm::Request request;
  // The prompt travels by move and comes back for last_prompt(): a copy of
  // the whole prompt per decision churned the heap and fragmented what a
  // run retains (its schedule).
  request.prompt = std::move(last_prompt_);
  request.max_tokens = profile_.max_completion_tokens;
  request.temperature = profile_.temperature;
  request.context = &pctx;
  const llm::Response response = client_->complete(request);
  last_prompt_ = std::move(request.prompt);

  // 3. Parse the ReAct completion.
  const ParsedResponse parsed = parse_response(response.text);
  last_thought_ = parsed.thought;

  sim::Action action;
  if (parsed.action) {
    action = *parsed.action;
  } else {
    // Unusable response: fail safe with Delay and tell the scratchpad why,
    // so the next prompt shows the model its formatting mistake.
    ++parse_failures_;
    action = sim::Action::delay();
    LOG_DEBUG("ReActAgent: parse failure: " << parsed.error);
    scratchpad_.record_note(ctx.now,
                           "Response could not be parsed (" + parsed.error +
                               "); defaulted to Delay. Use 'Action: <action>'.");
  }

  if (parsed.action) scratchpad_.record_decision(ctx.now, parsed.thought, action);

  llm::CallRecord record;
  record.sim_time = ctx.now;
  record.latency_seconds = response.latency_seconds;
  record.prompt_tokens = response.prompt_tokens;
  record.completion_tokens = response.completion_tokens;
  record.action = action.type;
  record.accepted = false;  // verdict arrives via on_accepted/on_feedback
  transcript_.add(record);
  return action;
}

void ReActAgent::on_accepted(const sim::Action& action, const sim::DecisionContext& ctx) {
  (void)action;
  (void)ctx;
  if (transcript_.n_calls() > 0) transcript_.set_last_verdict(true);
  scratchpad_.record_verdict(true, {});
}

void ReActAgent::on_feedback(const std::string& feedback, const sim::DecisionContext& ctx) {
  (void)ctx;
  if (transcript_.n_calls() > 0) transcript_.set_last_verdict(false);
  scratchpad_.record_verdict(false, feedback);
}

}  // namespace reasched::core
