// DNN input assembler (paper §4.2, Fig 4-6).
//
// The trained network evaluates the stream in steps of StepSize events,
// marking MarkSize events per step. With the paper's defaults
// (MarkSize = 2·W, StepSize = W) every pair of events at distance < W
// co-occurs in at least one sample, so no in-window match can be missed
// by windowing alone; larger MarkSize finds matches the original pattern
// window would reject (excess CEP work, Fig 6), larger StepSize skips
// stream positions (missed matches, Fig 5).
//
// ForWindow() is the one place the paper defaults are resolved: every
// layer that sizes an assembler from a pattern window (the batch
// pipeline, multi-pattern DLACEP, drift retraining, the online runtime
// and multi-query serving) passes its configured mark/step sizes, 0
// meaning the default, through it.

#ifndef DLACEP_DLACEP_ASSEMBLER_H_
#define DLACEP_DLACEP_ASSEMBLER_H_

#include <vector>

#include "common/status.h"
#include "stream/window.h"

namespace dlacep {

class InputAssembler {
 public:
  /// `mark_size` must be >= the pattern window W and `step_size` >=
  /// max(1, mark_size - W) for full coverage (checked by the pipeline,
  /// not here — ablation benches intentionally violate it).
  InputAssembler(size_t mark_size, size_t step_size)
      : mark_size_(mark_size), step_size_(step_size) {
    DLACEP_CHECK_GT(mark_size_, 0u);
    DLACEP_CHECK_GT(step_size_, 0u);
  }

  /// Sample windows over a stream of `stream_size` events.
  std::vector<WindowRange> Windows(size_t stream_size) const {
    if (stream_size == 0) return {};
    return CountWindows(stream_size, mark_size_, step_size_);
  }

  size_t mark_size() const { return mark_size_; }
  size_t step_size() const { return step_size_; }

  /// The assembler for pattern window W: `mark_size` and `step_size`
  /// as given, each 0 resolving to the paper default (2·W and W).
  static InputAssembler ForWindow(size_t w, size_t mark_size = 0,
                                  size_t step_size = 0) {
    return InputAssembler(mark_size != 0 ? mark_size : 2 * w,
                          step_size != 0 ? step_size : w);
  }

 private:
  size_t mark_size_;
  size_t step_size_;
};

}  // namespace dlacep

#endif  // DLACEP_DLACEP_ASSEMBLER_H_
