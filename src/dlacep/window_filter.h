// The window-network filter (paper §4.3): stacked BiLSTM whose hidden
// sequence is max-pooled and classified by a linear layer with a sigmoid
// — a single applicable / not-applicable label per input window. An
// applicable window relays ALL of its events; an inapplicable one relays
// none. Coarser than the event network (lower filtering ratio, Fig 8)
// but cheaper to run and faster to train (§5.2 "Network training").

#ifndef DLACEP_DLACEP_WINDOW_FILTER_H_
#define DLACEP_DLACEP_WINDOW_FILTER_H_

#include "dlacep/config.h"
#include "dlacep/featurizer.h"
#include "dlacep/filter.h"
#include "nn/infer.h"
#include "nn/layers.h"

namespace dlacep {

class WindowNetworkFilter : public TrainableFilter, public SequenceModel {
 public:
  WindowNetworkFilter(const Featurizer* featurizer,
                      const NetworkConfig& network,
                      double window_threshold);

  std::string name() const override { return "window-network"; }

  std::vector<int> MarkFeaturesTape(const Matrix& features) const override;
  void OnParamsChanged() override;

  TrainResult Fit(const std::vector<Sample>& samples,
                  const TrainConfig& config) override;

  BinaryMetrics Score(const std::vector<Sample>& samples) const override;

  // SequenceModel:
  Var Loss(Tape* tape, const Sample& sample) override;
  std::vector<Parameter*> Params() override;

  /// Raw sigmoid probability that the window is applicable (fast path).
  double WindowProbability(const Matrix& features) const;
  /// Same probability via the tape forward — the golden reference the
  /// equivalence suite pins WindowProbability() against.
  double WindowProbabilityTape(const Matrix& features) const;

  /// The single decision predicate shared by inference-time marking and
  /// training-time scoring, so a threshold/hysteresis change can never
  /// silently diverge between the two. `threshold_boost` is the
  /// overload-control increment (0 in normal operation).
  bool IsApplicable(double probability, double threshold_boost = 0.0) const {
    return probability >= window_threshold_ + threshold_boost;
  }

 private:
  /// Each window's sigmoid probability (SlabProbabilities) against the
  /// threshold raised by its own boost.
  void DecodeSlab(std::span<const Matrix> features, InferenceContext* ctx,
                  std::span<const double> boosts,
                  std::vector<int>* marks) const override;
  /// One trunk Forward over the stacked feature slab, per-window max
  /// pooling into a B×2H matrix, a single B-row head GEMM, then each
  /// window's sigmoid. `ctx` may be null (use a call-local arena).
  std::vector<double> SlabProbabilities(std::span<const Matrix> features,
                                        InferenceContext* ctx) const;
  Var Logit(Tape* tape, const Matrix& features) const;
  void Refreeze();

  double window_threshold_;
  Rng init_rng_;
  StackedBiLstm stack_;
  Dense head_;
  /// Forward-only weights repacked at freeze time (constructor, end of
  /// Fit, OnParamsChanged); read-only during Mark.
  struct FrozenModel {
    StackedBiLstmInfer stack;
    DenseInfer head;
  } frozen_;
};

}  // namespace dlacep

#endif  // DLACEP_DLACEP_WINDOW_FILTER_H_
