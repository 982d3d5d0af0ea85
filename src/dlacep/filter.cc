#include "dlacep/filter.h"

#include "common/logging.h"
#include "dlacep/featurizer.h"
#include "obs/stages.h"
#include "obs/trace.h"

namespace dlacep {

TrainableFilter::TrainableFilter(const Featurizer* featurizer)
    : featurizer_(featurizer) {
  DLACEP_CHECK(featurizer_ != nullptr);
}

std::vector<Matrix> TrainableFilter::Featurize(
    std::span<const std::span<const Event>> windows) const {
  obs::TraceSpan feature_span(obs::StageFeatureBuild());
  std::vector<Matrix> features;
  features.reserve(windows.size());
  for (std::span<const Event> window : windows) {
    features.push_back(featurizer_->Encode(window));
  }
  return features;
}

std::vector<std::span<const Event>> TrainableFilter::Views(
    std::span<const OnlineWindow> windows) {
  std::vector<std::span<const Event>> views;
  views.reserve(windows.size());
  for (const OnlineWindow& w : windows) {
    views.push_back(w.events->View(0, w.events->size()));
  }
  return views;
}

std::vector<int> TrainableFilter::Mark(const EventStream& stream,
                                       WindowRange range) const {
  return MarkWith(stream, range, nullptr);
}

std::vector<int> TrainableFilter::MarkWith(const EventStream& stream,
                                           WindowRange range,
                                           InferenceContext* ctx) const {
  std::vector<int> marks;
  MarkBatchWith(stream, {&range, 1}, ctx, &marks);
  return marks;
}

std::vector<int> TrainableFilter::MarkOnline(const EventStream& window,
                                             size_t stream_begin,
                                             InferenceContext* ctx,
                                             double threshold_boost) const {
  const OnlineWindow one{&window, stream_begin, threshold_boost};
  std::vector<int> marks;
  MarkBatchOnline({&one, 1}, ctx, &marks);
  return marks;
}

void TrainableFilter::MarkBatchWith(const EventStream& stream,
                                    std::span<const WindowRange> windows,
                                    InferenceContext* ctx,
                                    std::vector<int>* marks) const {
  if (windows.empty()) return;
  std::vector<std::span<const Event>> views;
  views.reserve(windows.size());
  for (const WindowRange& range : windows) {
    views.push_back(stream.View(range.begin, range.size()));
  }
  const std::vector<double> boosts(windows.size(), 0.0);
  DecodeSlab(Featurize(views), ctx, boosts, marks);
}

void TrainableFilter::MarkBatchOnline(std::span<const OnlineWindow> windows,
                                      InferenceContext* ctx,
                                      std::vector<int>* marks) const {
  if (windows.empty()) return;
  std::vector<double> boosts;
  boosts.reserve(windows.size());
  for (const OnlineWindow& w : windows) boosts.push_back(w.threshold_boost);
  DecodeSlab(Featurize(Views(windows)), ctx, boosts, marks);
}

std::vector<int> TrainableFilter::MarkFeatures(const Matrix& features) const {
  return MarkFeaturesWith(features, nullptr);
}

std::vector<int> TrainableFilter::MarkFeaturesWith(
    const Matrix& features, InferenceContext* ctx) const {
  const double no_boost = 0.0;
  std::vector<int> marks;
  DecodeSlab({&features, 1}, ctx, {&no_boost, 1}, &marks);
  return marks;
}

}  // namespace dlacep
