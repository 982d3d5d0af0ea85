#include "cep/engine.h"

#include "cep/adaptive_engine.h"
#include "cep/lazy_engine.h"
#include "cep/nfa_engine.h"
#include "cep/tree_engine.h"

namespace dlacep {

EngineStats EngineStats::operator-(const EngineStats& before) const {
  EngineStats d;
  d.events_processed = events_processed - before.events_processed;
  d.partial_matches = partial_matches - before.partial_matches;
  d.matches_emitted = matches_emitted - before.matches_emitted;
  d.transitions = transitions - before.transitions;
  d.partial_matches_pruned =
      partial_matches_pruned - before.partial_matches_pruned;
  d.budget_aborts = budget_aborts - before.budget_aborts;
  d.evaluations = evaluations - before.evaluations;
  d.elapsed_seconds = elapsed_seconds - before.elapsed_seconds;
  return d;
}

EngineStats& EngineStats::operator+=(const EngineStats& delta) {
  events_processed += delta.events_processed;
  partial_matches += delta.partial_matches;
  matches_emitted += delta.matches_emitted;
  transitions += delta.transitions;
  partial_matches_pruned += delta.partial_matches_pruned;
  budget_aborts += delta.budget_aborts;
  evaluations += delta.evaluations;
  elapsed_seconds += delta.elapsed_seconds;
  return *this;
}

Status CepEngine::EvaluatePlans(
    std::span<const Event> events, MatchSet* out,
    const EngineOptions& options, size_t num_plans,
    const std::function<void(size_t, MatchSet*, EngineBudget*)>&
        eval_plan) {
  DLACEP_CHECK(out != nullptr);
  Stopwatch watch;
  EngineBudget budget(options);
  MatchSet local;
  MatchSet* sink = budget.armed() ? &local : out;
  for (size_t i = 0; i < num_plans && !budget.exceeded(); ++i) {
    eval_plan(i, sink, &budget);
  }
  stats_.events_processed += events.size();
  ++stats_.evaluations;
  stats_.elapsed_seconds += watch.ElapsedSeconds();
  if (budget.exceeded()) {
    ++stats_.budget_aborts;
    return budget.ToStatus(name().c_str());
  }
  if (budget.armed()) out->Merge(local);
  return Status::Ok();
}

Status EngineBudget::ToStatus(const char* engine) const {
  std::string msg(engine);
  if (pm_budget_ > 0 && pm_created_ > pm_budget_) {
    msg += ": partial-match budget of " + std::to_string(pm_budget_) +
           " exhausted";
  } else {
    msg += ": deadline of " + std::to_string(deadline_seconds_) +
           "s exceeded";
  }
  return Status::BudgetExceeded(std::move(msg));
}

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kNfa: return "nfa";
    case EngineKind::kTree: return "zstream-tree";
    case EngineKind::kLazy: return "lazy";
    case EngineKind::kAdaptive: return "adaptive";
  }
  return "?";
}

StatusOr<std::unique_ptr<CepEngine>> CreateEngine(
    EngineKind kind, const Pattern& pattern, const EngineOptions& options) {
  switch (kind) {
    case EngineKind::kNfa: {
      auto engine = NfaEngine::Create(pattern, options);
      if (!engine.ok()) return engine.status();
      return std::unique_ptr<CepEngine>(std::move(engine).value());
    }
    case EngineKind::kTree: {
      auto engine = TreeEngine::Create(pattern, options);
      if (!engine.ok()) return engine.status();
      return std::unique_ptr<CepEngine>(std::move(engine).value());
    }
    case EngineKind::kLazy: {
      auto engine = LazyEngine::Create(pattern, options);
      if (!engine.ok()) return engine.status();
      return std::unique_ptr<CepEngine>(std::move(engine).value());
    }
    case EngineKind::kAdaptive: {
      auto engine = AdaptiveEngine::Create(pattern, options);
      if (!engine.ok()) return engine.status();
      return std::unique_ptr<CepEngine>(std::move(engine).value());
    }
  }
  return Status::InvalidArgument("unknown engine kind");
}

}  // namespace dlacep
