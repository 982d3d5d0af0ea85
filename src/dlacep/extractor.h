// CEP extractor (paper §4.4).
//
// Marked events keep their unique increasing arrival ids. The extractor
// concatenates the deduplicated marked events into a filtered stream and
// evaluates it with an exact CEP engine whose count-window constraint is
// enforced over event *ids*, not stream positions — the paper's
// mechanism guaranteeing that (NEG-free) DLACEP output is a subset of
// the exact match set: a match spans at most W-1 id units no matter how
// many unmarked events were dropped in between.

#ifndef DLACEP_DLACEP_EXTRACTOR_H_
#define DLACEP_DLACEP_EXTRACTOR_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cep/adaptive_engine.h"
#include "cep/engine.h"
#include "pattern/pattern.h"

namespace dlacep {

/// Adds `stats` (the work of one or more Evaluate() calls) and `matches`
/// (the distinct matches they added) to the dlacep_cep_*_total counters
/// labelled with `engine`.
void PublishEngineStats(const std::string& engine, const EngineStats& stats,
                        uint64_t matches);

class CepExtractor {
 public:
  /// `engine_kind` defaults to the NFA engine; Fig 12 style setups may
  /// plug the tree, lazy, or adaptive engine instead. With
  /// EngineKind::kAdaptive the selector's decisions are published to
  /// dlacep_engine_selected_total{engine,pattern} under
  /// options.pattern_label.
  CepExtractor(const Pattern& pattern,
               EngineKind engine_kind = EngineKind::kNfa,
               const EngineOptions& options = EngineOptions{});

  /// Deduplicates `marked` (by id), sorts by arrival, and extracts all
  /// matches. The returned set is merged into `out`.
  Status Extract(std::vector<const Event*> marked, MatchSet* out);

  /// Feeds one closed assembler window into the adaptive selector's
  /// frequency estimator (no-op for static engines). The online runtime
  /// calls this from the router so observation order — and therefore
  /// the selection trail — is deterministic at every shard count.
  void ObserveWindow(std::span<const Event> events) {
    if (adaptive_ != nullptr) adaptive_->ObserveWindow(events);
  }

  const EngineStats& stats() const { return engine_->stats(); }
  void ResetStats() { engine_->ResetStats(); }

  /// Non-null iff the extractor runs the adaptive engine.
  AdaptiveEngine* adaptive() { return adaptive_; }
  const AdaptiveEngine* adaptive() const { return adaptive_; }

 private:
  std::unique_ptr<CepEngine> engine_;
  AdaptiveEngine* adaptive_ = nullptr;  ///< typed alias, not owned
};

}  // namespace dlacep

#endif  // DLACEP_DLACEP_EXTRACTOR_H_
