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

double WindowNetworkFilter::WindowProbability(
    const Matrix& features) const {
  return SlabProbabilities({&features, 1}, nullptr)[0];
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

std::vector<double> WindowNetworkFilter::SlabProbabilities(
    std::span<const Matrix> features, InferenceContext* ctx) const {
  obs::TraceSpan forward_span(obs::StageNnForwardInfer());
  InferenceContext local;
  InferenceContext* c = ctx != nullptr ? ctx : &local;
  c->Reset();
  std::vector<size_t> offsets;
  const MatrixF& x_all = StackWindows(c, features, &offsets);
  const MatrixF& h = frozen_.stack.Forward(c, x_all, offsets);
  // Per-window column max pooling into one B×2H matrix, so the 1-unit
  // head runs as a single B-row GEMM (row-local → bit-identical logits).
  const size_t batch = features.size();
  MatrixF& pooled = c->Acquire<float>(batch, h.cols());
  for (size_t w = 0; w < batch; ++w) {
    for (size_t j = 0; j < h.cols(); ++j) {
      float best = h(offsets[w], j);
      for (size_t i = offsets[w] + 1; i < offsets[w + 1]; ++i) {
        best = std::max(best, h(i, j));
      }
      pooled(w, j) = best;
    }
  }
  MatrixF& logits = c->Acquire<float>(batch, 1);
  frozen_.head.Forward(pooled, &logits);
  // The logit widens to double before the sigmoid, so the probability
  // is compared with the double threshold at the tape's precision.
  std::vector<double> probabilities(batch);
  for (size_t w = 0; w < batch; ++w) {
    const double logit = logits(w, 0);
    probabilities[w] = 1.0 / (1.0 + std::exp(-logit));
  }
  return probabilities;
}

void WindowNetworkFilter::DecodeSlab(std::span<const Matrix> features,
                                     InferenceContext* ctx,
                                     std::span<const double> boosts,
                                     std::vector<int>* marks) const {
  const std::vector<double> p = SlabProbabilities(features, ctx);
  for (size_t w = 0; w < p.size(); ++w) {
    marks[w] = MarksForProbability(IsApplicable(p[w], boosts[w]), p[w],
                                   features[w].rows());
  }
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
