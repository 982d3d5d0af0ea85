// Runtime-adaptive engine selection (ROADMAP item 4).
//
// AdaptiveEngine is a CepEngine that owns one instance of every static
// engine the pattern supports (the NFA always; the tree and lazy
// engines when the pattern is inside their SEQ/CONJ/DISJ-of-primitives
// class) and delegates each Evaluate() to the currently cheapest one.
//
// The cost model ranks candidates by expected work per event. For an
// engine that has already run, the observed EngineStats estimate
// (transitions + partial_matches) / events_processed is used directly.
// For one that hasn't, the plan-cost model (pattern/selectivity.h) prices
// the plan the engine runs — chain order, rarest-first order, join tree —
// from the runtime per-type frequency counts with unit selectivities,
// scaled by the incumbent's observed/modelled ratio so the two kinds of
// estimate share units. A challenger must undercut the incumbent by the
// hysteresis factor before the selection switches.
//
// Re-evaluation cadence: every adaptive_reselect_windows observations.
// An observation is either an explicit ObserveWindow() call (the online
// runtime feeds each router-closed window — deterministic, off the
// worker threads) or, when no caller ever feeds windows, each
// Evaluate() span observes itself (the batch extractor and the serving
// chunk loop). Both observation streams are pure functions of the event
// stream, and the delegate merges matches the same way it would
// standalone, so adaptive runs — including budget aborts, which are the
// selected delegate's verbatim — stay byte-identical to every static
// engine.
//
// Snapshot()/Restore() persist the selection + frequency state for the
// checkpoint path: a resumed run re-observes the remaining windows from
// the same counters and lands on the same final selection.

#ifndef DLACEP_CEP_ADAPTIVE_ENGINE_H_
#define DLACEP_CEP_ADAPTIVE_ENGINE_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cep/engine.h"
#include "cep/frequency.h"
#include "cep/lazy_engine.h"

namespace dlacep {

/// Checkpoint-serializable selector state.
struct AdaptiveSnapshot {
  int32_t selected = 0;  ///< EngineKind of the current selection
  uint64_t windows_observed = 0;
  uint64_t switches = 0;
  uint8_t external_feed = 0;
  std::vector<std::pair<int32_t, double>> frequencies;
};

class AdaptiveEngine : public CepEngine {
 public:
  /// Never fails on a validated pattern: shapes outside the tree/lazy
  /// class simply leave the NFA as the only candidate.
  static StatusOr<std::unique_ptr<AdaptiveEngine>> Create(
      const Pattern& pattern, const EngineOptions& options);

  std::string name() const override { return "adaptive"; }

  Status Evaluate(std::span<const Event> events, MatchSet* out) override;

  /// Feeds one closed window into the frequency estimator and, every
  /// adaptive_reselect_windows observations, re-evaluates the engine
  /// choice. Calling this puts the selector into external-feed mode:
  /// Evaluate() stops observing its own spans.
  void ObserveWindow(std::span<const Event> events);

  /// Called with the chosen kind after every (re)selection decision,
  /// switch or not — the owner publishes it to obs. Runs on the thread
  /// that triggered the decision.
  void set_selection_hook(std::function<void(EngineKind)> hook) {
    hook_ = std::move(hook);
  }

  EngineKind selected_kind() const {
    return candidates_[selected_].kind;
  }
  uint64_t switches() const { return switches_; }

  AdaptiveSnapshot Snapshot() const;
  Status Restore(const AdaptiveSnapshot& snapshot);

 private:
  struct Candidate {
    EngineKind kind;
    std::unique_ptr<CepEngine> engine;
    LazyEngine* lazy = nullptr;  ///< typed alias when kind == kLazy
  };

  AdaptiveEngine(Pattern pattern, EngineOptions options);

  /// Cost-model pass over the span just observed: pick the cheapest
  /// candidate (with hysteresis), decay the frequency counts, push the
  /// fresh estimate into the lazy chain, and fire the selection hook.
  void Reselect(std::span<const Event> events);
  double CostOf(const Candidate& candidate, double window,
                double calibration) const;
  /// Modelled work per event of `kind`'s plan on the current frequency
  /// estimate, over windows of `window` events.
  double ModelCost(EngineKind kind, double window) const;

  Pattern pattern_;
  EngineOptions options_;
  std::vector<LinearPlan> plans_;
  std::vector<Candidate> candidates_;
  TypeFrequencyEstimator frequencies_;
  size_t selected_ = 0;  ///< index into candidates_; 0 is the NFA
  uint64_t windows_observed_ = 0;
  uint64_t switches_ = 0;
  bool external_feed_ = false;
  std::function<void(EngineKind)> hook_;
};

}  // namespace dlacep

#endif  // DLACEP_CEP_ADAPTIVE_ENGINE_H_
