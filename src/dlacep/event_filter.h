// The event-network filter (paper §4.3, Fig 7): a sequence backbone
// topped with a BI-CRF that labels every event of the input window as
// participating / not participating in a full match. The bidirectional
// CRF is fed by two separate linear emission heads (one per chain
// direction), and decoding takes the per-position argmax of the averaged
// posterior marginals against `event_threshold`.
//
// The backbone is the paper's stacked BiLSTM by default. The TCN
// alternative that the paper's preliminary experiments evaluated and
// rejected (§4.1: "BiLSTM was empirically shown to be superior to other
// approaches such as TCN") shares the head, decode and API;
// bench_ablation_backbone reproduces the comparison.

#ifndef DLACEP_DLACEP_EVENT_FILTER_H_
#define DLACEP_DLACEP_EVENT_FILTER_H_

#include <variant>

#include "dlacep/config.h"
#include "dlacep/featurizer.h"
#include "dlacep/filter.h"
#include "nn/crf.h"
#include "nn/infer.h"

namespace dlacep {

/// The event network's sequence backbone. Each keeps its own parameter
/// names and init seed, so saved models stay loadable: the BiLSTM's are
/// `event.*` seeded with NetworkConfig::seed, the TCN's `tcn.*` seeded
/// with seed + 2.
struct EventBackbone {
  enum class Kind { kBiLstm, kTcn };
  Kind kind = Kind::kBiLstm;
  size_t kernel = 3;  ///< TCN convolution width

  static EventBackbone Tcn(size_t kernel) { return {Kind::kTcn, kernel}; }
};

class EventNetworkFilter : public TrainableFilter, public SequenceModel {
 public:
  EventNetworkFilter(const Featurizer* featurizer,
                     const NetworkConfig& network, double event_threshold,
                     EventBackbone backbone = {});

  std::string name() const override;

  /// Multi-head decoding for the serving layer (src/serve): featurize
  /// one window and run trunk + emission heads once (as MarkOnline),
  /// then decode its shared CRF marginals against one threshold per
  /// registered query, the window's overload boost added to each.
  /// Element q is the window under query q's threshold and equals
  /// MarkOnline(window, ., ctx, thresholds[q] + threshold_boost -
  /// event_threshold) bit for bit — the trunk forward is
  /// query-independent.
  std::vector<std::vector<int>> MarkOnlineMultiHead(
      const EventStream& window, InferenceContext* ctx,
      std::span<const double> thresholds, double threshold_boost) const;
  double event_threshold() const { return event_threshold_; }
  std::vector<int> MarkFeaturesTape(const Matrix& features) const override;
  void OnParamsChanged() override;

  TrainResult Fit(const std::vector<Sample>& samples,
                  const TrainConfig& config) override;

  BinaryMetrics Score(const std::vector<Sample>& samples) const override;

  // SequenceModel:
  Var Loss(Tape* tape, const Sample& sample) override;
  std::vector<Parameter*> Params() override;

 private:
  std::vector<int> Decode(const Matrix& features, InferenceContext* ctx,
                          double threshold_boost) const override;
  /// CRF posterior marginals (T×2) of one window: the backbone and
  /// emission heads run on the frozen float path, the CRF in double.
  Matrix WindowMarginals(const Matrix& features, InferenceContext* ctx) const;
  std::pair<Var, Var> Emissions(Tape* tape, const Matrix& features) const;
  std::vector<int> Threshold(const Matrix& marginals,
                             double threshold) const;
  void Refreeze();

  double event_threshold_;
  Rng init_rng_;  ///< declared before the layers it initializes
  std::variant<StackedBiLstm, Tcn> backbone_;
  Dense head_fwd_;
  Dense head_bwd_;
  BiCrf crf_;
  /// Forward-only weights repacked at freeze time (constructor, end of
  /// Fit, OnParamsChanged). Read-only during Mark — shared across the
  /// pipeline's worker threads.
  struct FrozenModel {
    std::variant<StackedBiLstmInfer, TcnInfer> backbone;
    DenseInfer head_fwd;
    DenseInfer head_bwd;
  } frozen_;
};

}  // namespace dlacep

#endif  // DLACEP_DLACEP_EVENT_FILTER_H_
