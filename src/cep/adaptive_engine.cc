#include "cep/adaptive_engine.h"

#include <algorithm>
#include <numeric>

#include "cep/nfa_engine.h"
#include "cep/tree_engine.h"
#include "pattern/selectivity.h"

namespace dlacep {

namespace {

// A challenger engine must undercut the incumbent's modelled cost by
// this factor before the selector switches — hysteresis against
// flapping on near-ties.
constexpr double kHysteresis = 0.9;

}  // namespace

AdaptiveEngine::AdaptiveEngine(Pattern pattern, EngineOptions options)
    : pattern_(std::move(pattern)), options_(std::move(options)) {}

StatusOr<std::unique_ptr<AdaptiveEngine>> AdaptiveEngine::Create(
    const Pattern& pattern, const EngineOptions& options) {
  std::unique_ptr<AdaptiveEngine> engine(
      new AdaptiveEngine(pattern, options));
  auto plans = CompilePlans(engine->pattern_);
  if (!plans.ok()) return plans.status();
  engine->plans_ = std::move(plans).value();

  // The NFA handles every validated pattern and anchors the candidate
  // set at index 0 — the initial selection before any traffic is seen.
  auto nfa = NfaEngine::Create(engine->pattern_, options);
  if (!nfa.ok()) return nfa.status();
  Candidate base;
  base.kind = EngineKind::kNfa;
  base.engine = std::move(nfa).value();
  engine->candidates_.push_back(std::move(base));

  // Tree and lazy join the pool only when the pattern is inside their
  // supported class; Kleene/NEG/group-repeat shapes degrade to an
  // NFA-only pool instead of failing the adaptive engine.
  auto tree = TreeEngine::Create(engine->pattern_, options);
  if (tree.ok()) {
    Candidate c;
    c.kind = EngineKind::kTree;
    c.engine = std::move(tree).value();
    engine->candidates_.push_back(std::move(c));
  }
  auto lazy = LazyEngine::Create(engine->pattern_, options);
  if (lazy.ok()) {
    Candidate c;
    c.kind = EngineKind::kLazy;
    c.engine = std::move(lazy).value();
    c.lazy = static_cast<LazyEngine*>(c.engine.get());
    engine->candidates_.push_back(std::move(c));
  }
  return engine;
}

double AdaptiveEngine::ModelCost(EngineKind kind, double window) const {
  const auto counts = frequencies_.Snapshot();
  double cost = 0.0;
  for (const LinearPlan& plan : plans_) {
    const size_t n = plan.num_positions();
    PlanStatistics stats;
    stats.rates = PositionRates(plan, counts);
    stats.pair_sel.assign(n, std::vector<double>(n, 1.0));
    if (kind == EngineKind::kTree) {
      cost += PriceTree(stats, window, plan.ordered()).cost;
      continue;
    }
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    // The lazy candidate orders its chain by the rates of the same counts
    // halved (exactly) by Decay(), so this is the order it runs.
    if (kind == EngineKind::kLazy) order = RarestFirstOrder(stats.rates);
    cost += OrderPrice(stats, window, order, plan.ordered());
  }
  // Each plan also reads every event once; on sparse windows that read
  // dominates and leaves no engine a margin over the incumbent.
  return static_cast<double>(plans_.size()) + cost / window;
}

double AdaptiveEngine::CostOf(const Candidate& candidate, double window,
                              double calibration) const {
  const EngineStats& s = candidate.engine->stats();
  if (s.evaluations > 0 && s.events_processed > 0) {
    // The engine has run: trust the measured work per event (the
    // per-evaluate estimate normalized by span size).
    return static_cast<double>(s.transitions + s.partial_matches) /
           static_cast<double>(s.events_processed);
  }
  return ModelCost(candidate.kind, window) * calibration;
}

void AdaptiveEngine::Reselect(std::span<const Event> events) {
  const double window = WindowEvents(pattern_.window(), events);
  // Calibrate modelled estimates against the incumbent's measurements
  // (when it has any), so observed and modelled costs share units and
  // a systematic model error common to all engines cancels.
  const Candidate& incumbent = candidates_[selected_];
  double calibration = 1.0;
  const EngineStats& istats = incumbent.engine->stats();
  if (istats.evaluations > 0 && istats.events_processed > 0) {
    const double modelled = ModelCost(incumbent.kind, window);
    const double observed = CostOf(incumbent, window, 1.0);
    if (modelled > 0.0 && observed > 0.0) {
      calibration = std::clamp(observed / modelled, 0.1, 10.0);
    }
  }

  const double incumbent_cost = CostOf(incumbent, window, calibration);
  size_t best = selected_;
  // A challenger must beat the incumbent by the hysteresis margin.
  double best_cost = incumbent_cost * kHysteresis;
  for (size_t i = 0; i < candidates_.size(); ++i) {
    if (i == selected_) continue;
    const double cost = CostOf(candidates_[i], window, calibration);
    if (cost < best_cost) {
      best = i;
      best_cost = cost;
    }
  }
  if (best != selected_) {
    selected_ = best;
    ++switches_;
  }

  // Age the estimate and push the fresh chain ordering into the lazy
  // candidate (reordering is a no-op while it isn't selected).
  frequencies_.Decay();
  for (Candidate& c : candidates_) {
    if (c.lazy != nullptr) c.lazy->SetTypeFrequencies(frequencies_.Snapshot());
  }
  if (hook_) hook_(candidates_[selected_].kind);
}

void AdaptiveEngine::ObserveWindow(std::span<const Event> events) {
  external_feed_ = true;
  frequencies_.ObserveSpan(events);
  ++windows_observed_;
  const size_t k = std::max<size_t>(1, options_.adaptive_reselect_windows);
  if (windows_observed_ % k == 0) Reselect(events);
}

Status AdaptiveEngine::Evaluate(std::span<const Event> events,
                                MatchSet* out) {
  DLACEP_CHECK(out != nullptr);
  if (!external_feed_) {
    // No router is feeding windows (batch extraction, serving chunks):
    // each evaluated span is one observation, and the very first span
    // already informs the selection so a single batch Evaluate() still
    // benefits from the cost model.
    frequencies_.ObserveSpan(events);
    ++windows_observed_;
    const size_t k = std::max<size_t>(1, options_.adaptive_reselect_windows);
    if (windows_observed_ == 1 || windows_observed_ % k == 0) Reselect(events);
  }
  Candidate& c = candidates_[selected_];
  // Delegate verbatim — `out` semantics, all-or-nothing budget aborts,
  // and reusability after an abort are exactly the selected engine's.
  const EngineStats before = c.engine->stats();
  const Status status = c.engine->Evaluate(events, out);
  stats_ += c.engine->stats() - before;
  return status;
}

AdaptiveSnapshot AdaptiveEngine::Snapshot() const {
  AdaptiveSnapshot snap;
  snap.selected = static_cast<int32_t>(selected_kind());
  snap.windows_observed = windows_observed_;
  snap.switches = switches_;
  snap.external_feed = external_feed_ ? 1 : 0;
  snap.frequencies = frequencies_.Snapshot();
  return snap;
}

Status AdaptiveEngine::Restore(const AdaptiveSnapshot& snapshot) {
  size_t index = candidates_.size();
  for (size_t i = 0; i < candidates_.size(); ++i) {
    if (static_cast<int32_t>(candidates_[i].kind) == snapshot.selected) {
      index = i;
      break;
    }
  }
  if (index == candidates_.size()) {
    return Status::FailedPrecondition(
        "checkpointed engine selection is not a candidate for this "
        "pattern");
  }
  selected_ = index;
  windows_observed_ = snapshot.windows_observed;
  switches_ = snapshot.switches;
  external_feed_ = snapshot.external_feed != 0;
  frequencies_.Restore(snapshot.frequencies);
  for (Candidate& c : candidates_) {
    if (c.lazy != nullptr) c.lazy->SetTypeFrequencies(frequencies_.Snapshot());
  }
  return Status::Ok();
}

}  // namespace dlacep
