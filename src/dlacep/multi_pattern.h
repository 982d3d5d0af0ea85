// Multi-pattern monitoring (paper §4.3).
//
// "When there is more than one monitored pattern, we can train the
// network with samples labeled according to the monitoring requirement,
// thus semantically unifying the patterns into one": an event is labeled
// 1 iff it participates in a full match of ANY monitored pattern; a
// window is applicable iff it contains a match of any pattern. One
// filter network serves all patterns; the CEP extractor then runs each
// pattern's exact engine over the shared filtered stream.
//
// This is single-pattern DLACEP over a pattern set: training is the
// batch pipeline's TrainFilter() on the unified labels (labeler.h), and
// filtration is its FiltrationPass, so num_threads and the filtering
// ratio mean exactly what they mean for DlacepPipeline. Only
// the extraction differs: one extractor per pattern, built once.
//
// All patterns must share the schema and use count windows; the
// assembler is sized by the largest pattern window.

#ifndef DLACEP_DLACEP_MULTI_PATTERN_H_
#define DLACEP_DLACEP_MULTI_PATTERN_H_

#include <memory>
#include <vector>

#include "dlacep/config.h"
#include "dlacep/event_filter.h"
#include "dlacep/pipeline.h"

namespace dlacep {

/// Result of a multi-pattern evaluation: one match set per pattern, in
/// input order, plus the shared filtering statistics.
struct MultiPatternResult : FiltrationStats {
  std::vector<MatchSet> per_pattern;
};

/// A DLACEP system monitoring several patterns with one shared filter.
class MultiPatternDlacep {
 public:
  /// Trains the shared event network on `train_stream` (TrainFilter over
  /// all patterns), then builds one extractor per pattern.
  MultiPatternDlacep(std::vector<Pattern> patterns,
                     const EventStream& train_stream,
                     const DlacepConfig& config);

  MultiPatternResult Evaluate(const EventStream& stream);

  const BinaryMetrics& test_metrics() const {
    return training_.test_metrics;
  }
  const std::vector<Pattern>& patterns() const { return patterns_; }
  size_t max_window() const { return max_window_; }

  /// The shared filter network, for serving layers that drive it
  /// directly (src/serve registers it as the multi-head trunk). Owned
  /// by this object; valid for its lifetime.
  const EventNetworkFilter* filter() const {
    return static_cast<const EventNetworkFilter*>(filter_.get());
  }

 private:
  std::vector<Pattern> patterns_;
  size_t max_window_;
  FilterTraining training_;  ///< owns the featurizer filter_ reads
  std::unique_ptr<StreamFilter> filter_;
  FiltrationPass filtration_;
  std::vector<CepExtractor> extractors_;
};

}  // namespace dlacep

#endif  // DLACEP_DLACEP_MULTI_PATTERN_H_
