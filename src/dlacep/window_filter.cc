#include "dlacep/window_filter.h"

#include <algorithm>
#include <cmath>

#include "nn/ops.h"
#include "obs/stages.h"
#include "obs/trace.h"

namespace dlacep {

WindowNetworkFilter::WindowNetworkFilter(const Featurizer* featurizer,
                                         const NetworkConfig& network,
                                         double window_threshold)
    : TrainableFilter(featurizer),
      window_threshold_(window_threshold),
      init_rng_(network.seed + 1),
      stack_("window.stack", featurizer->feature_dim(), network.hidden_dim,
             network.num_layers, &init_rng_),
      head_("window.head", stack_.out_dim(), 1, &init_rng_) {
  Refreeze();
}

void WindowNetworkFilter::Refreeze() {
  frozen_.stack = Freeze(stack_);
  frozen_.head = Freeze(head_);
}

void WindowNetworkFilter::OnParamsChanged() { Refreeze(); }

Var WindowNetworkFilter::Logit(Tape* tape,
                               const Matrix& features) const {
  Var h = stack_.Forward(tape, tape->Input(features));
  Var pooled = ops::MaxOverRows(h);
  return head_.Forward(tape, pooled);
}

Var WindowNetworkFilter::Loss(Tape* tape, const Sample& sample) {
  DLACEP_CHECK_EQ(sample.labels.size(), 1u);
  Matrix target(1, 1);
  target(0, 0) = static_cast<double>(sample.labels[0]);
  return ops::BceWithLogits(Logit(tape, sample.features), target);
}

std::vector<Parameter*> WindowNetworkFilter::Params() {
  std::vector<Parameter*> params = stack_.Params();
  for (Parameter* p : head_.Params()) params.push_back(p);
  return params;
}

double WindowNetworkFilter::WindowProbabilityTape(
    const Matrix& features) const {
  obs::TraceSpan forward_span(obs::StageNnForwardTape());
  Tape tape;
  const double logit = Logit(&tape, features).value()(0, 0);
  return 1.0 / (1.0 + std::exp(-logit));
}

namespace {

// A NaN probability would compare false against the threshold and mark
// the whole window inapplicable — a silent recall cliff. Map non-finite
// scores to the kInvalidMark sentinel instead.
std::vector<int> MarksForProbability(bool applicable, double probability,
                                     size_t n) {
  if (!std::isfinite(probability)) {
    return std::vector<int>(n, kInvalidMark);
  }
  return std::vector<int>(n, applicable ? 1 : 0);
}

}  // namespace

double WindowNetworkFilter::WindowProbability(const Matrix& features,
                                              InferenceContext* ctx) const {
  obs::TraceSpan forward_span(obs::StageNnForwardInfer());
  InferenceContext local;
  InferenceContext* c = ctx != nullptr ? ctx : &local;
  c->Reset();
  const MatrixF& h = frozen_.stack.Forward(c, FrozenInput(c, features));
  MatrixF& pooled = c->Acquire<float>(1, h.cols());
  for (size_t j = 0; j < h.cols(); ++j) {
    float best = h(0, j);
    for (size_t i = 1; i < h.rows(); ++i) best = std::max(best, h(i, j));
    pooled(0, j) = best;
  }
  MatrixF& logit = c->Acquire<float>(1, 1);
  frozen_.head.Forward(pooled, &logit);
  // The logit widens to double before the sigmoid, so the probability
  // is compared with the double threshold at the tape's precision.
  return 1.0 / (1.0 + std::exp(-static_cast<double>(logit(0, 0))));
}

std::vector<int> WindowNetworkFilter::Decode(const Matrix& features,
                                             InferenceContext* ctx,
                                             double threshold_boost) const {
  const double p = WindowProbability(features, ctx);
  return MarksForProbability(IsApplicable(p, threshold_boost), p,
                             features.rows());
}

std::vector<int> WindowNetworkFilter::MarkFeaturesTape(
    const Matrix& features) const {
  const double p = WindowProbabilityTape(features);
  return MarksForProbability(IsApplicable(p), p, features.rows());
}

TrainResult WindowNetworkFilter::Fit(const std::vector<Sample>& samples,
                                     const TrainConfig& config) {
  const TrainResult result = Train(this, samples, config);
  Refreeze();
  return result;
}

BinaryMetrics WindowNetworkFilter::Score(
    const std::vector<Sample>& samples) const {
  BinaryMetrics metrics;
  for (const Sample& sample : samples) {
    const int predicted =
        IsApplicable(WindowProbability(sample.features)) ? 1 : 0;
    metrics.Accumulate({predicted}, {sample.labels[0]});
  }
  return metrics;
}

}  // namespace dlacep
