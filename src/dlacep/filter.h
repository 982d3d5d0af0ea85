// The stream-filter interface of the filtration-based ACEP system
// (paper §3.1, §4.3): given one assembler window, mark the events that
// should be relayed to the CEP extractor.

#ifndef DLACEP_DLACEP_FILTER_H_
#define DLACEP_DLACEP_FILTER_H_

#include <span>
#include <string>
#include <vector>

#include "dlacep/labeler.h"
#include "nn/metrics.h"
#include "nn/trainer.h"
#include "stream/stream.h"
#include "stream/window.h"

namespace dlacep {

class Featurizer;
class InferenceContext;

/// Sentinel mark value: the filter's scores were numerically invalid
/// (NaN/Inf) for this window, so no trustworthy relay decision exists.
/// Network filters return a whole-window vector of kInvalidMark instead
/// of silently thresholding NaN to 0 (which would drop every event). The
/// batch pipeline treats any nonzero mark as relay (conservative); the
/// online runtime's HealthGuard recognizes the sentinel, quarantines the
/// window (relaying it unfiltered), and flips into degraded mode.
inline constexpr int kInvalidMark = -1;

/// One window of a MarkBatchOnline() micro-batch: the events the online
/// runtime materialized for it, its position in the full stream, and
/// the overload threshold boost in force when it closed (windows inside
/// one batch may have closed under different overload levels).
struct OnlineWindow {
  const EventStream* events = nullptr;
  size_t stream_begin = 0;
  double threshold_boost = 0.0;
};

class StreamFilter {
 public:
  virtual ~StreamFilter() = default;

  virtual std::string name() const = 0;

  /// Per-event 0/1 marks for stream[range] (1 = relay).
  ///
  /// Mark() is const and must be re-entrant: when the pipeline runs
  /// with num_threads > 1 it invokes Mark() concurrently from worker
  /// threads, one assembler window per task. Implementations may only
  /// read shared state (model parameters, featurizer statistics) and
  /// must keep any scratch (tapes, rngs) local to the call, or
  /// serialize access internally.
  virtual std::vector<int> Mark(const EventStream& stream,
                                WindowRange range) const = 0;

  /// Mark() with a caller-provided reusable scratch arena. The pipeline
  /// threads one InferenceContext per worker through here so that
  /// network filters run allocation-free after the first window; `ctx`
  /// must not be shared across concurrent calls. Filters without a
  /// network (oracle, pass-through, shedding) ignore it.
  virtual std::vector<int> MarkWith(const EventStream& stream,
                                    WindowRange range,
                                    InferenceContext* ctx) const {
    (void)ctx;
    return Mark(stream, range);
  }

  /// Marks one assembler window that the online runtime has
  /// materialized as a standalone stream: `window` holds copies of the
  /// events (with their arrival ids) and `stream_begin` is the window's
  /// position in the full stream. The default forwards to MarkWith over
  /// the whole window, which is correct for any content-based filter;
  /// position-salted filters (random shedding) override it to recover
  /// their global salt, and network filters override it to honor
  /// `threshold_boost` — an overload-control increment added to their
  /// decision threshold so borderline entities are shed first (0 =
  /// normal operation). Same const/re-entrancy contract as Mark().
  virtual std::vector<int> MarkOnline(const EventStream& window,
                                      size_t stream_begin,
                                      InferenceContext* ctx,
                                      double threshold_boost) const {
    (void)stream_begin;
    (void)threshold_boost;
    return MarkWith(window, WindowRange{0, window.size()}, ctx);
  }

  /// Marks a micro-batch of assembler windows in one call, writing
  /// windows.size() mark vectors to `marks[0..B)` in window order. The
  /// default is a per-window MarkWith loop — exact legacy semantics for
  /// filters with nothing to batch (oracle, pass-through, shedding).
  /// Network filters override it to stack the windows' feature matrices
  /// batch-major and run the trunk once over the slab (nn/infer.h
  /// Forward); batched marks must equal the per-window marks byte for
  /// byte. Same const/re-entrancy contract as Mark();
  /// `ctx` must not be shared across concurrent calls.
  virtual void MarkBatchWith(const EventStream& stream,
                             std::span<const WindowRange> windows,
                             InferenceContext* ctx,
                             std::vector<int>* marks) const {
    for (size_t i = 0; i < windows.size(); ++i) {
      marks[i] = MarkWith(stream, windows[i], ctx);
    }
  }

  /// Batched twin of MarkOnline for the online runtime's
  /// batch-collection stage. The default loops MarkOnline — which keeps
  /// position-salted filters (random shedding) exactly deterministic —
  /// and network filters override it to batch the trunk forward while
  /// still applying each window's own threshold boost.
  virtual void MarkBatchOnline(std::span<const OnlineWindow> windows,
                               InferenceContext* ctx,
                               std::vector<int>* marks) const {
    for (size_t i = 0; i < windows.size(); ++i) {
      marks[i] = MarkOnline(*windows[i].events, windows[i].stream_begin, ctx,
                            windows[i].threshold_boost);
    }
  }
};

/// A filter backed by a trainable network. It owns the routing of every
/// marking entry point: each featurizes its window(s) under one
/// StageFeatureBuild span, then hands the features to the one decode
/// hook, DecodeSlab, which runs the network's Forward once over the
/// stacked slab. A single window (Mark, MarkWith, MarkOnline,
/// MarkFeaturesWith) is a micro-batch of one. Subclasses implement only
/// the network and its decode.
class TrainableFilter : public StreamFilter {
 public:
  /// `featurizer` is not owned and must outlive the filter.
  explicit TrainableFilter(const Featurizer* featurizer);

  std::vector<int> Mark(const EventStream& stream,
                        WindowRange range) const override;
  std::vector<int> MarkWith(const EventStream& stream, WindowRange range,
                            InferenceContext* ctx) const override;
  /// Content-based: `stream_begin` is ignored; `threshold_boost` is
  /// added to the decision threshold.
  std::vector<int> MarkOnline(const EventStream& window, size_t stream_begin,
                              InferenceContext* ctx,
                              double threshold_boost) const override;
  void MarkBatchWith(const EventStream& stream,
                     std::span<const WindowRange> windows,
                     InferenceContext* ctx,
                     std::vector<int>* marks) const override;
  void MarkBatchOnline(std::span<const OnlineWindow> windows,
                       InferenceContext* ctx,
                       std::vector<int>* marks) const override;

  /// Trains on pre-encoded samples (see BuildFilterDataset); returns the
  /// trainer's result.
  virtual TrainResult Fit(const std::vector<Sample>& samples,
                          const TrainConfig& config) = 0;

  /// Marks from pre-encoded features (used during evaluation so that the
  /// featurization cost is attributed to the filter). Const/re-entrant
  /// under the same contract as Mark().
  std::vector<int> MarkFeatures(const Matrix& features) const;

  /// MarkFeatures() with a caller-provided scratch arena (nullptr = use
  /// a call-local one). Same re-entrancy contract; a given `ctx` must
  /// not be shared across concurrent calls.
  std::vector<int> MarkFeaturesWith(const Matrix& features,
                                    InferenceContext* ctx) const;

  /// Golden-reference marks via the autograd tape forward (the training
  /// machinery). Slow — kept so equivalence tests and before/after
  /// benchmarks can pin the fast path against it; must produce the same
  /// thresholded marks as MarkFeatures().
  virtual std::vector<int> MarkFeaturesTape(const Matrix& features) const = 0;

  /// Must be called after mutating parameter values out-of-band
  /// (LoadParameters, snapshot restore) so the filter can repack its
  /// frozen inference weights; Fit() refreezes on its own.
  virtual void OnParamsChanged() {}

  virtual std::vector<Parameter*> Params() = 0;

  /// Evaluates filter quality on pre-encoded samples: the paper's
  /// entity-level P/R/F1 (§4.3) — entities are events for the event
  /// network and windows for the window network.
  virtual BinaryMetrics Score(const std::vector<Sample>& samples) const = 0;

 protected:
  /// Encodes every window of a micro-batch under one StageFeatureBuild
  /// span.
  std::vector<Matrix> Featurize(
      std::span<const std::span<const Event>> windows) const;
  /// The events of each online window, in order.
  static std::vector<std::span<const Event>> Views(
      std::span<const OnlineWindow> windows);

 private:
  /// Marks a non-empty micro-batch with one network Forward over the
  /// stacked slab, writing features.size() mark vectors to marks[0..B);
  /// window w's threshold is raised by boosts[w]. A window's marks must
  /// not depend on the batch it rides in. `ctx` may be null (use a
  /// call-local arena).
  virtual void DecodeSlab(std::span<const Matrix> features,
                          InferenceContext* ctx,
                          std::span<const double> boosts,
                          std::vector<int>* marks) const = 0;

  const Featurizer* featurizer_;  ///< not owned
};

}  // namespace dlacep

#endif  // DLACEP_DLACEP_FILTER_H_
