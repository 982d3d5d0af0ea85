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

Matrix EventNetworkFilter::WindowMarginals(const Matrix& features,
                                           InferenceContext* ctx) const {
  obs::TraceSpan forward_span(obs::StageNnForwardInfer());
  InferenceContext local;
  InferenceContext* c = ctx != nullptr ? ctx : &local;
  c->Reset();
  const MatrixF& x = FrozenInput(c, features);
  const MatrixF& h = std::visit(
      [&](const auto& b) -> const MatrixF& { return b.Forward(c, x); },
      frozen_.backbone);
  MatrixF& emissions_f = c->Acquire<float>(h.rows(), 2);
  MatrixF& emissions_b = c->Acquire<float>(h.rows(), 2);
  frozen_.head_fwd.Forward(h, &emissions_f);
  frozen_.head_bwd.Forward(h, &emissions_b);
  // The CRF chain runs in double: widen the emissions as they are
  // copied out of the float arena.
  Matrix& ef = c->Acquire<double>(h.rows(), 2);
  Matrix& eb = c->Acquire<double>(h.rows(), 2);
  std::copy_n(emissions_f.data(), emissions_f.size(), ef.data());
  std::copy_n(emissions_b.data(), emissions_b.size(), eb.data());
  return crf_.Marginals(ef, eb);
}

std::vector<int> EventNetworkFilter::Decode(const Matrix& features,
                                            InferenceContext* ctx,
                                            double threshold_boost) const {
  return Threshold(WindowMarginals(features, ctx),
                   event_threshold_ + threshold_boost);
}

std::vector<std::vector<int>> EventNetworkFilter::MarkOnlineMultiHead(
    const EventStream& window, InferenceContext* ctx,
    std::span<const double> thresholds, double threshold_boost) const {
  const Matrix marginals =
      WindowMarginals(Featurize(window.View(0, window.size())), ctx);
  std::vector<std::vector<int>> marks;
  marks.reserve(thresholds.size());
  for (const double threshold : thresholds) {
    marks.push_back(Threshold(marginals, threshold + threshold_boost));
  }
  return marks;
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
