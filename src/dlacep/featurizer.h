// Event embedding (paper §4.3).
//
// Each primitive event becomes a feature vector of
//   [ compacted one-hot type | blank flag | standardized attributes
//     | standardized signed-log attributes ].
// The signed-log channel (sign(v)·log1p(|v|), standardized) makes the
// multiplicative band predicates that dominate the paper's queries
// (α·x.vol < y.vol < β·x.vol) *additive*, which a BiLSTM learns far more
// readily — the counterpart of the paper training on standardized
// volumes of a log-normal-ish quantity.
// The one-hot is compacted pattern-wise: every event type referenced by
// the pattern gets its own slot and all other types share one "other"
// slot (the paper's example: 500 types, 1 referenced → 2 categories).
// Numeric attributes are standardized with the mean/stddev of the
// training stream and clipped to ±kAttrBound. Blank (padding) events encode as zeros plus the blank
// flag — used by the simulated time-based-window experiment (Fig 14).

#ifndef DLACEP_DLACEP_FEATURIZER_H_
#define DLACEP_DLACEP_FEATURIZER_H_

#include <span>
#include <unordered_map>
#include <vector>

#include "nn/matrix.h"
#include "pattern/pattern.h"
#include "stream/stream.h"

namespace dlacep {

class Featurizer {
 public:
  /// Fits the standardizer on `train_stream` and compacts the type
  /// encoding to the types `pattern` references.
  Featurizer(const Pattern& pattern, const EventStream& train_stream);

  /// Multi-pattern variant (paper §4.3: several patterns semantically
  /// unified into one monitoring task): compaction signatures are formed
  /// over the union of all patterns' primitive type sets.
  Featurizer(const std::vector<std::vector<TypeId>>& type_sets,
             const EventStream& train_stream);

  /// Encodes a window of events as a T×feature_dim() matrix.
  Matrix Encode(std::span<const Event> window) const;

  size_t feature_dim() const { return feature_dim_; }
  size_t num_type_slots() const { return num_type_slots_; }

  /// The signed-log transform used for the second attribute channel.
  static double SignedLog(double v);

  /// Bound on both standardized attribute channels: about three times
  /// the largest value a simulated stream produces (~33 standard
  /// deviations, a shocked stock stream), so one extreme but finite
  /// input (say 1e300, ~1e3 on the signed-log channel) stays a moderate
  /// feature instead of driving a TCN's activations to inf. From ~500 on,
  /// a TCN's two CRF directions saturate at 0 and 1, whose 0.5 average
  /// ties the default threshold, so fp32 and fp64 could round the same
  /// window to different marks.
  static constexpr double kAttrBound = 100.0;

 private:
  std::unordered_map<TypeId, size_t> type_slot_;  ///< referenced types
  size_t num_type_slots_ = 0;  ///< referenced + 1 shared "other" slot
  size_t num_attrs_ = 0;
  size_t feature_dim_ = 0;
  std::vector<AttrStats> attr_stats_;
  std::vector<AttrStats> log_attr_stats_;
};

}  // namespace dlacep

#endif  // DLACEP_DLACEP_FEATURIZER_H_
