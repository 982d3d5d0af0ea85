// Runtime per-type frequency estimation for lazy chain ordering and the
// adaptive engine selector.
//
// The estimator keeps one decayed count per event type: ObserveSpan()
// adds one per event, Decay() halves every count. The adaptive selector
// calls Decay() once per reselection period, so recent traffic
// dominates while the estimate never forgets a type entirely.
// Everything is plain counter arithmetic on an ordered map — no wall
// clock, no randomness — so two runs fed the same event sequence
// produce bit-identical estimates, which is what keeps adaptive engine
// selection (and checkpoint resume) deterministic.

#ifndef DLACEP_CEP_FREQUENCY_H_
#define DLACEP_CEP_FREQUENCY_H_

#include <map>
#include <span>
#include <utility>
#include <vector>

#include "stream/event.h"

namespace dlacep {

class TypeFrequencyEstimator {
 public:
  /// Adds one count per non-blank event in `events`.
  void ObserveSpan(std::span<const Event> events) {
    for (const Event& e : events) {
      if (!e.is_blank()) counts_[e.type] += 1.0;
    }
  }

  /// Halves every count; called once per estimation period.
  void Decay() {
    for (auto& [type, count] : counts_) count *= 0.5;
  }

  /// Deterministic (type-ascending) snapshot, checkpoint-serializable.
  std::vector<std::pair<int32_t, double>> Snapshot() const {
    return {counts_.begin(), counts_.end()};
  }

  void Restore(std::span<const std::pair<int32_t, double>> entries) {
    counts_.clear();
    for (const auto& [type, count] : entries) counts_[type] = count;
  }

 private:
  std::map<TypeId, double> counts_;  ///< ordered for determinism
};

}  // namespace dlacep

#endif  // DLACEP_CEP_FREQUENCY_H_
