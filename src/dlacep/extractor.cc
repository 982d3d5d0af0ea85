#include "dlacep/extractor.h"

#include <algorithm>

#include "obs/stages.h"

namespace dlacep {

void PublishEngineStats(const std::string& engine, const EngineStats& stats,
                        uint64_t matches) {
  obs::CepEvents(engine)->Increment(stats.events_processed);
  obs::CepPartialMatches(engine)->Increment(stats.partial_matches);
  obs::CepPartialMatchesPruned(engine)->Increment(
      stats.partial_matches_pruned);
  obs::CepTransitions(engine)->Increment(stats.transitions);
  obs::CepMatches(engine)->Increment(matches);
  obs::CepBudgetAborts(engine)->Increment(stats.budget_aborts);
}

CepExtractor::CepExtractor(const Pattern& pattern, EngineKind engine_kind,
                           const EngineOptions& options) {
  auto engine = CreateEngine(engine_kind, pattern, options);
  DLACEP_CHECK_MSG(engine.ok(), engine.status().ToString());
  engine_ = std::move(engine).value();
  if (engine_kind == EngineKind::kAdaptive) {
    adaptive_ = static_cast<AdaptiveEngine*>(engine_.get());
    const std::string label = options.pattern_label;
    adaptive_->set_selection_hook([label](EngineKind kind) {
      obs::EngineSelected(EngineKindName(kind), label)->Increment();
    });
  }
}

Status CepExtractor::Extract(std::vector<const Event*> marked,
                             MatchSet* out) {
  DLACEP_CHECK(out != nullptr);
  // Duplicate marks (overlapping assembler windows) are erased before the
  // relay (paper §4.2) and arrival order restored.
  std::sort(marked.begin(), marked.end(),
            [](const Event* a, const Event* b) { return a->id < b->id; });
  marked.erase(std::unique(marked.begin(), marked.end(),
                           [](const Event* a, const Event* b) {
                             return a->id == b->id;
                           }),
               marked.end());
  std::vector<Event> filtered;
  filtered.reserve(marked.size());
  for (const Event* e : marked) {
    if (!e->is_blank()) filtered.push_back(*e);
  }
  const EngineStats before = engine_->stats();
  const size_t matches_before = out->size();
  const Status status = engine_->Evaluate(
      std::span<const Event>(filtered.data(), filtered.size()), out);
  // Engine stats accumulate across Evaluate() calls and reset between
  // runs; the labelled counters want the monotone per-call delta.
  PublishEngineStats(engine_->name(), engine_->stats() - before,
                     out->size() - matches_before);
  return status;
}

}  // namespace dlacep
