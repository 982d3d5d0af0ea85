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

Matrix TrainableFilter::Featurize(std::span<const Event> window) const {
  obs::TraceSpan feature_span(obs::StageFeatureBuild());
  return featurizer_->Encode(window);
}

std::vector<int> TrainableFilter::Mark(const EventStream& stream,
                                       WindowRange range) const {
  return MarkWith(stream, range, nullptr);
}

std::vector<int> TrainableFilter::MarkWith(const EventStream& stream,
                                           WindowRange range,
                                           InferenceContext* ctx) const {
  return Decode(Featurize(stream.View(range.begin, range.size())), ctx, 0.0);
}

std::vector<int> TrainableFilter::MarkOnline(const EventStream& window,
                                             size_t /*stream_begin*/,
                                             InferenceContext* ctx,
                                             double threshold_boost) const {
  return Decode(Featurize(window.View(0, window.size())), ctx,
                threshold_boost);
}

std::vector<int> TrainableFilter::MarkFeatures(const Matrix& features) const {
  return MarkFeaturesWith(features, nullptr);
}

std::vector<int> TrainableFilter::MarkFeaturesWith(
    const Matrix& features, InferenceContext* ctx) const {
  return Decode(features, ctx, 0.0);
}

}  // namespace dlacep
