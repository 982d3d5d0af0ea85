// The CEP evaluation-engine interface.
//
// All engines consume a finite span of events (sorted by arrival id) and
// produce the deduplicated set of full matches. Each engine counts the
// partial matches it creates — the paper's §3.2 cost measure C_ECEP — so
// benches can report both wall-clock throughput and the analytic cost.

#ifndef DLACEP_CEP_ENGINE_H_
#define DLACEP_CEP_ENGINE_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cep/match.h"
#include "common/timer.h"
#include "pattern/pattern.h"
#include "pattern/plan.h"

namespace dlacep {

/// Counters accumulated across Evaluate() calls (ResetStats() clears).
struct EngineStats {
  uint64_t events_processed = 0;
  /// Partial matches created: NFA prefixes, tree intermediate join
  /// results, or lazy search nodes — the engine's unit of work.
  uint64_t partial_matches = 0;
  /// Full matches emitted before deduplication.
  uint64_t matches_emitted = 0;
  /// Extension attempts: candidate (partial match, event) combinations
  /// the engine examined — NFA edge traversals, tree join probes, lazy
  /// chain steps. The per-operator cost the latency histograms can't
  /// see (many attempts never create a partial match).
  uint64_t transitions = 0;
  /// Candidates rejected by a pruning check (time-window, predicate, or
  /// contiguity) before becoming partial matches.
  uint64_t partial_matches_pruned = 0;
  /// Evaluate() calls aborted with kBudgetExceeded (partial-match budget
  /// or wall-clock deadline). The engine stays reusable after an abort.
  uint64_t budget_aborts = 0;
  /// Evaluate() calls completed or aborted — the denominator of the
  /// per-evaluate work estimate the adaptive selector's cost model
  /// consumes.
  uint64_t evaluations = 0;
  double elapsed_seconds = 0.0;

  double throughput() const {
    return Throughput(static_cast<double>(events_processed),
                      elapsed_seconds);
  }

  /// Observed work (extension attempts + stored partials) per Evaluate()
  /// call; 0 until the engine has run once.
  double work_per_evaluate() const {
    return evaluations == 0
               ? 0.0
               : static_cast<double>(transitions + partial_matches) /
                     static_cast<double>(evaluations);
  }

  /// Field-wise difference and sum: `after - before` is the work of the
  /// calls in between, and += folds such a delta into another engine's
  /// counters.
  EngineStats operator-(const EngineStats& before) const;
  EngineStats& operator+=(const EngineStats& delta);
};

enum class EngineKind {
  kNfa,       ///< skip-till-any-match NFA (the baseline ECEP mechanism)
  kTree,      ///< ZStream-style cost-based tree engine
  kLazy,      ///< lazy (frequency-ordered) evaluation
  kAdaptive,  ///< runtime-adaptive selection over the static engines
};

const char* EngineKindName(EngineKind kind);

/// Tuning knobs common to all engines.
///
/// partial_match_budget and deadline_seconds are the only limits on
/// exact extraction: an engine never drops a candidate to save work, so
/// a run either returns every match or aborts with kBudgetExceeded.
struct EngineOptions {
  /// Hard budget on partial matches created in one Evaluate() call,
  /// summed across plans. 0 disables. Exhausting it aborts the call
  /// with kBudgetExceeded: no partial output is merged, the abort is
  /// deterministic (counted work, not wall clock), and the engine
  /// remains reusable — the next Evaluate() starts fresh.
  uint64_t partial_match_budget = 0;
  /// Wall-clock deadline for one Evaluate() call, in seconds. 0
  /// disables. Checked cooperatively every ~1k work units, so an abort
  /// is prompt but the exact abort point is timing-dependent — callers
  /// needing determinism should gate on partial_match_budget instead.
  double deadline_seconds = 0.0;

  // --- Adaptive selection (EngineKind::kAdaptive) --------------------
  /// Windows observed between cost-model re-evaluations (the "K" of the
  /// online reselection cadence). Also the decay period of the type
  /// frequency estimator.
  size_t adaptive_reselect_windows = 16;
  /// Label for dlacep_engine_selected_total{engine,pattern}; callers
  /// that serve several patterns set a distinguishing name here.
  std::string pattern_label = "query";
};

/// Per-Evaluate() cooperative budget tracker shared by all engines.
///
/// Engines call OnPartialMatch() for every partial match they create and
/// OnWork() for every extension attempt; both return false once a budget
/// is blown, after which the engine unwinds promptly (checking
/// exceeded() at loop heads) and CepEngine::EvaluatePlans() returns
/// ToStatus(). The partial-match budget is a deterministic counter; the
/// deadline samples the wall clock only every kDeadlineCheckInterval
/// work units to keep the hot path free of clock reads.
class EngineBudget {
 public:
  explicit EngineBudget(const EngineOptions& options)
      : pm_budget_(options.partial_match_budget),
        deadline_seconds_(options.deadline_seconds) {}

  bool OnPartialMatch() {
    if (pm_budget_ > 0 && ++pm_created_ > pm_budget_) exceeded_ = true;
    return !exceeded_;
  }

  bool OnWork() {
    if (deadline_seconds_ > 0.0 &&
        (++work_ % kDeadlineCheckInterval) == 0 &&
        watch_.ElapsedSeconds() > deadline_seconds_) {
      exceeded_ = true;
    }
    return !exceeded_;
  }

  bool exceeded() const { return exceeded_; }

  /// Whether either budget is set; an unarmed budget never blows.
  bool armed() const { return pm_budget_ > 0 || deadline_seconds_ > 0.0; }

  /// The kBudgetExceeded status describing which budget blew.
  Status ToStatus(const char* engine) const;

 private:
  static constexpr uint64_t kDeadlineCheckInterval = 1024;

  const uint64_t pm_budget_;
  const double deadline_seconds_;
  Stopwatch watch_;
  uint64_t pm_created_ = 0;
  uint64_t work_ = 0;
  bool exceeded_ = false;
};

/// Evaluation-engine base. Implementations are single-threaded (matching
/// the paper's single-core measurement protocol) and keep no state across
/// Evaluate() calls except the stats counters.
class CepEngine {
 public:
  virtual ~CepEngine() = default;

  virtual std::string name() const = 0;

  /// Evaluates `events` (sorted by id) and merges all full matches into
  /// `out`. Timing and counters accumulate into stats().
  virtual Status Evaluate(std::span<const Event> events, MatchSet* out) = 0;

  const EngineStats& stats() const { return stats_; }
  void ResetStats() { stats_ = EngineStats{}; }

 protected:
  /// The Evaluate() body of the static engines: calls `eval_plan(i,
  /// found, budget)` for each plan i < num_plans under one EngineBudget
  /// and stops at the first blown budget. Every plan appends its matches,
  /// unsorted and possibly repeated, to the one per-call `found` buffer;
  /// on success it is sorted, deduplicated and merged into `out` once.
  /// An abort discards it and leaves `out` untouched; the call then
  /// counts one budget_abort and returns kBudgetExceeded.
  /// events_processed, evaluations and elapsed_seconds count the call
  /// whether or not it aborts.
  Status EvaluatePlans(
      std::span<const Event> events, MatchSet* out,
      const EngineOptions& options, size_t num_plans,
      const std::function<void(size_t, std::vector<Match>*,
                               EngineBudget*)>& eval_plan);

  EngineStats stats_;
};

/// Creates an engine for `pattern`. The pattern is copied; the engine
/// owns everything it needs. Fails when the pattern shape is outside the
/// engine's supported class (see each engine's header).
StatusOr<std::unique_ptr<CepEngine>> CreateEngine(
    EngineKind kind, const Pattern& pattern,
    const EngineOptions& options = EngineOptions{});

}  // namespace dlacep

#endif  // DLACEP_CEP_ENGINE_H_
