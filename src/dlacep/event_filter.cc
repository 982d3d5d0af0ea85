#include "dlacep/event_filter.h"

#include <algorithm>
#include <cmath>

#include "obs/stages.h"
#include "obs/trace.h"

namespace dlacep {

namespace {

bool IsTcn(const EventBackbone& backbone) {
  return backbone.kind == EventBackbone::Kind::kTcn;
}

std::string LayerName(const EventBackbone& backbone, const char* layer) {
  return std::string(IsTcn(backbone) ? "tcn." : "event.") + layer;
}

std::variant<StackedBiLstm, Tcn> MakeBackbone(const EventBackbone& backbone,
                                              size_t in_dim,
                                              const NetworkConfig& network,
                                              Rng* rng) {
  const std::string name = LayerName(backbone, "stack");
  if (IsTcn(backbone)) {
    return std::variant<StackedBiLstm, Tcn>(
        std::in_place_type<Tcn>, name, in_dim, network.hidden_dim,
        network.num_layers, backbone.kernel, rng);
  }
  return std::variant<StackedBiLstm, Tcn>(
      std::in_place_type<StackedBiLstm>, name, in_dim, network.hidden_dim,
      network.num_layers, rng);
}

size_t OutDim(const std::variant<StackedBiLstm, Tcn>& backbone) {
  return std::visit([](const auto& b) { return b.out_dim(); }, backbone);
}

}  // namespace

EventNetworkFilter::EventNetworkFilter(const Featurizer* featurizer,
                                       const NetworkConfig& network,
                                       double event_threshold,
                                       EventBackbone backbone)
    : TrainableFilter(featurizer),
      event_threshold_(event_threshold),
      init_rng_(network.seed + (IsTcn(backbone) ? 2 : 0)),
      backbone_(MakeBackbone(backbone, featurizer->feature_dim(), network,
                             &init_rng_)),
      head_fwd_(LayerName(backbone, "head_fwd"), OutDim(backbone_), 2,
                &init_rng_),
      head_bwd_(LayerName(backbone, "head_bwd"), OutDim(backbone_), 2,
                &init_rng_),
      crf_(LayerName(backbone, "crf"), 2, &init_rng_) {
  Refreeze();
}

std::string EventNetworkFilter::name() const {
  return std::holds_alternative<Tcn>(backbone_) ? "tcn-event-network"
                                                : "event-network";
}

void EventNetworkFilter::Refreeze() {
  frozen_.backbone = std::visit(
      [](const auto& b) -> std::variant<StackedBiLstmInfer, TcnInfer> {
        return Freeze(b);
      },
      backbone_);
  frozen_.head_fwd = Freeze(head_fwd_);
  frozen_.head_bwd = Freeze(head_bwd_);
}

void EventNetworkFilter::OnParamsChanged() { Refreeze(); }

std::pair<Var, Var> EventNetworkFilter::Emissions(
    Tape* tape, const Matrix& features) const {
  const Var x = tape->Input(features);
  Var h = std::visit([&](const auto& b) { return b.Forward(tape, x); },
                     backbone_);
  return {head_fwd_.Forward(tape, h), head_bwd_.Forward(tape, h)};
}

Var EventNetworkFilter::Loss(Tape* tape, const Sample& sample) {
  auto [emissions_f, emissions_b] = Emissions(tape, sample.features);
  return crf_.Nll(tape, emissions_f, emissions_b, sample.labels);
}

std::vector<Parameter*> EventNetworkFilter::Params() {
  std::vector<Parameter*> params =
      std::visit([](auto& b) { return b.Params(); }, backbone_);
  for (Parameter* p : head_fwd_.Params()) params.push_back(p);
  for (Parameter* p : head_bwd_.Params()) params.push_back(p);
  for (Parameter* p : crf_.Params()) params.push_back(p);
  return params;
}

std::vector<int> EventNetworkFilter::Threshold(const Matrix& marginals,
                                               double threshold) const {
  std::vector<int> marks(marginals.rows());
  for (size_t t = 0; t < marginals.rows(); ++t) {
    const double score = marginals(t, 1);
    if (!std::isfinite(score)) {
      // NaN compares false against any threshold, which would silently
      // drop the event. Surface the blown-up pass as a whole-window
      // sentinel instead; downstream either relays everything (batch) or
      // quarantines and degrades (online HealthGuard).
      return std::vector<int>(marginals.rows(), kInvalidMark);
    }
    marks[t] = score >= threshold ? 1 : 0;
  }
  return marks;
}

std::vector<Matrix> EventNetworkFilter::SlabMarginals(
    std::span<const Matrix> features, InferenceContext* ctx) const {
  obs::TraceSpan forward_span(obs::StageNnForwardInfer());
  InferenceContext local;
  InferenceContext* c = ctx != nullptr ? ctx : &local;
  c->Reset();
  std::vector<size_t> offsets;
  const MatrixF& x_all = StackWindows(c, features, &offsets);
  const MatrixF& h = std::visit(
      [&](const auto& b) -> const MatrixF& {
        return b.Forward(c, x_all, offsets);
      },
      frozen_.backbone);
  // The emission heads are row-local dot products (MatMulTransBInto),
  // so one stacked call over the slab equals per-window heads bit for
  // bit.
  MatrixF& emissions_f = c->Acquire<float>(offsets.back(), 2);
  MatrixF& emissions_b = c->Acquire<float>(offsets.back(), 2);
  frozen_.head_fwd.Forward(h, &emissions_f);
  frozen_.head_bwd.Forward(h, &emissions_b);

  // The CRF chains stay per-window and in double: slice each window's
  // emissions back out of the slab, widening them as they are copied.
  std::vector<Matrix> marginals;
  marginals.reserve(features.size());
  for (size_t w = 0; w < features.size(); ++w) {
    const size_t t_len = offsets[w + 1] - offsets[w];
    Matrix& ef = c->Acquire<double>(t_len, 2);
    Matrix& eb = c->Acquire<double>(t_len, 2);
    std::copy_n(emissions_f.data() + offsets[w] * 2, t_len * 2, ef.data());
    std::copy_n(emissions_b.data() + offsets[w] * 2, t_len * 2, eb.data());
    marginals.push_back(crf_.Marginals(ef, eb));
  }
  return marginals;
}

void EventNetworkFilter::DecodeSlab(std::span<const Matrix> features,
                                    InferenceContext* ctx,
                                    std::span<const double> boosts,
                                    std::vector<int>* marks) const {
  const std::vector<Matrix> marginals = SlabMarginals(features, ctx);
  for (size_t w = 0; w < marginals.size(); ++w) {
    marks[w] = Threshold(marginals[w], event_threshold_ + boosts[w]);
  }
}

void EventNetworkFilter::MarkBatchOnlineMultiHead(
    std::span<const OnlineWindow> windows, InferenceContext* ctx,
    std::span<const double> thresholds,
    std::vector<std::vector<std::vector<int>>>* marks) const {
  marks->assign(windows.size(), {});
  if (windows.empty()) return;
  const std::vector<Matrix> marginals =
      SlabMarginals(Featurize(Views(windows)), ctx);
  for (size_t w = 0; w < windows.size(); ++w) {
    (*marks)[w].resize(thresholds.size());
    for (size_t q = 0; q < thresholds.size(); ++q) {
      (*marks)[w][q] =
          Threshold(marginals[w], thresholds[q] + windows[w].threshold_boost);
    }
  }
}

std::vector<int> EventNetworkFilter::MarkFeaturesTape(
    const Matrix& features) const {
  obs::TraceSpan forward_span(obs::StageNnForwardTape());
  Tape tape;
  auto [emissions_f, emissions_b] = Emissions(&tape, features);
  return Threshold(crf_.Marginals(emissions_f.value(), emissions_b.value()),
                   event_threshold_);
}

TrainResult EventNetworkFilter::Fit(const std::vector<Sample>& samples,
                                    const TrainConfig& config) {
  const TrainResult result = Train(this, samples, config);
  Refreeze();
  return result;
}

BinaryMetrics EventNetworkFilter::Score(
    const std::vector<Sample>& samples) const {
  BinaryMetrics metrics;
  for (const Sample& sample : samples) {
    metrics.Accumulate(MarkFeatures(sample.features), sample.labels);
  }
  return metrics;
}

}  // namespace dlacep
