// Concept-drift handling (paper §4.3, future-work strategy 1: periodic
// model retraining).
//
// The trained filter's decisions are only as good as the statistical
// match between the training stream and the live stream. DriftMonitor
// tracks a cheap online proxy — the filter's marking rate over a sliding
// budget of recent windows — and flags a drift when it departs from the
// training-time reference by more than a tolerance band.
// EvaluateWithRetraining wires the monitor to an EventNetworkFilter: on
// every flagged drift it relabels a recent stream segment with exact CEP
// and fine-tunes the filter on it (warm start — weights are NOT
// reinitialized, the transfer-learning shortcut the paper suggests for
// mild drifts).

#ifndef DLACEP_DLACEP_DRIFT_H_
#define DLACEP_DLACEP_DRIFT_H_

#include <cstddef>
#include <deque>

#include "dlacep/assembler.h"
#include "dlacep/config.h"
#include "dlacep/filter.h"

namespace dlacep {

class EventNetworkFilter;

/// Sliding-window drift detector over the filter marking rate.
class DriftMonitor {
 public:
  /// `reference_rate`: fraction of events marked on the training data.
  /// `tolerance`: absolute deviation that counts as drift.
  /// `window_budget`: number of recent assembler windows to average.
  DriftMonitor(double reference_rate, double tolerance,
               size_t window_budget);

  /// Records one assembler window's marks; returns true when the
  /// smoothed marking rate has left the tolerance band (and resets the
  /// trigger so consecutive calls don't re-fire until re-armed by
  /// ResetReference or more data).
  bool Observe(const std::vector<int>& marks);

  /// Re-anchors the reference to the currently observed rate (call after
  /// retraining).
  void ResetReference();

  double observed_rate() const;
  double reference_rate() const { return reference_rate_; }

 private:
  double reference_rate_;
  double tolerance_;
  size_t window_budget_;
  std::deque<std::pair<size_t, size_t>> history_;  ///< (marked, total)
  size_t marked_sum_ = 0;
  size_t total_sum_ = 0;
};

/// Outcome of one adaptive evaluation pass.
struct AdaptiveResult {
  MatchSet matches;
  size_t drifts_detected = 0;
  size_t retrainings = 0;
  double retrain_seconds = 0.0;
};

/// Evaluates `stream` with `filter` (an event-network filter: the
/// fine-tuning uses per-event labels), watching for drift; whenever the
/// monitor fires, the most recent `retrain_events` events are relabeled
/// with exact CEP and the filter is fine-tuned for
/// `config.train.max_epochs` epochs (warm start). Matches are extracted
/// exactly as in DlacepPipeline.
AdaptiveResult EvaluateWithRetraining(
    const Pattern& pattern, EventNetworkFilter* filter,
    const Featurizer& featurizer, const EventStream& stream,
    DriftMonitor* monitor, size_t retrain_events,
    const DlacepConfig& config);

}  // namespace dlacep

#endif  // DLACEP_DLACEP_DRIFT_H_
