// DLACEP configuration knobs and their paper defaults.

#ifndef DLACEP_DLACEP_CONFIG_H_
#define DLACEP_DLACEP_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "nn/trainer.h"

namespace dlacep {

/// Filter-network architecture. The paper's defaults (3 stacked BiLSTM
/// layers of hidden size 75, trained on a GPU for days) are scaled down
/// here so the full study runs on one CPU core in minutes; both knobs can
/// be set back to paper scale.
struct NetworkConfig {
  size_t hidden_dim = 16;  ///< paper: 75
  size_t num_layers = 2;   ///< paper: 3
  uint64_t seed = 99;
};

/// Training defaults tuned for the scaled-down models of this
/// reproduction. The paper trains with lr 1e-3 → 1e-4 and batch sizes
/// 512 → 256 on GPU-scale models; at hidden size 16 on CPU, a higher
/// rate and small batches converge in a fraction of the epochs.
inline TrainConfig DefaultDlacepTrainConfig() {
  TrainConfig config;
  config.max_epochs = 60;
  config.batch_size = 8;
  config.lr_initial = 3e-3;
  config.lr_final = 1e-3;
  return config;
}

/// End-to-end DLACEP configuration (paper §4.2, §5.1).
struct DlacepConfig {
  /// Events marked per evaluation step. 0 = the paper default 2·W.
  size_t mark_size = 0;
  /// Stream advance per evaluation step. 0 = the paper default W.
  size_t step_size = 0;

  /// Worker threads for the filtration stage. Every assembler window is
  /// an independent inference, so the pipeline hands windows out to up
  /// to this many workers (one of them the calling thread) and merges
  /// the per-window marks back in window order — the marked-event
  /// sequence, MatchSet, and filtering_ratio() are byte-identical to
  /// the sequential run (tests/determinism_test.cc). 1 = the calling
  /// thread alone (default); 0 = hardware concurrency.
  size_t num_threads = 1;

  NetworkConfig network;
  TrainConfig train = DefaultDlacepTrainConfig();

  /// Decision threshold on the event network's posterior marginal for
  /// the "participates" tag.
  double event_threshold = 0.5;
  /// Decision threshold on the window network's sigmoid output.
  double window_threshold = 0.5;

  /// Fraction of labeled samples used for training (the rest is the test
  /// split; paper: 70/30).
  double train_fraction = 0.7;
  uint64_t split_seed = 17;

  /// Training-set replication factor for samples that contain at least
  /// one positive label. The paper notes "class imbalance in favor of 0
  /// labeled events ... leads to overfiltering events at low amounts of
  /// data and epochs" (§5.2); at this reproduction's scaled-down data
  /// volumes the imbalance is harsher, and oversampling the applicable
  /// windows counteracts it. 1 = off.
  size_t oversample_positive = 1;

  /// §4.4: also label (and hence relay) events whose type appears under
  /// a NEG operator, so the extractor can suppress would-be false
  /// positives. Disabling this reproduces the paper's "large amount of
  /// false positive matches" failure mode (ablation).
  bool negation_aware_labeling = true;
};

}  // namespace dlacep

#endif  // DLACEP_DLACEP_CONFIG_H_
