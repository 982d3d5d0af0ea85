// Forward-only inference engine: the tape-free fast path of the nn
// library.
//
// The autograd Tape (tape.h) is built for training: every op allocates a
// node, a gradient matrix, and a backward closure. None of that is
// needed to *run* a trained network, yet the DLACEP filtration stage
// calls the forward pass once per assembler window — millions of times
// per stream at production scale. This header provides the inference
// counterpart of each layer in layers.h:
//
//  * Frozen cells (`DenseInfer`, `LstmInfer`, `BiLstmInfer`,
//    `StackedBiLstmInfer`, `TcnInfer`) hold the layer's weights repacked
//    at freeze time into the layout its forward kernel wants: Dense and
//    TCN weights transposed so every output entry is a dot product of
//    contiguous rows (the layout MatMulTransBInto runs on); LSTM weights
//    kept gate-concatenated so the whole-sequence input projection is
//    one multi-row MatMulInto and one fused pass per step fills a
//    single reused 1×4H gate row. Freeze() snapshots the current parameter
//    values; a frozen cell does not track later parameter updates.
//
//  * The frozen trunk runs in single precision: Freeze() rounds the
//    trained double weights to float, FrozenInput() is the one point
//    where the featurizer's double features become the float input,
//    and every activation, gate row and cell state is a MatrixF.
//    Training, the tape, the CRF and the thresholds stay double; the
//    filters widen the trunk's outputs (emissions, window logits) back
//    to double at the head.
//
//  * `InferenceContext` is a reusable scratch arena. Activations and
//    gate rows are acquired from it in a deterministic per-model order,
//    so after the first window every buffer is already allocated at the
//    right capacity and subsequent windows run allocation-free. One
//    context per thread: contexts are not synchronized, the frozen
//    weights they read are shared and immutable.
//
//  * Every frozen sequence cell has one entry point, `Forward`, which
//    runs one window: the T×D features of one assembler window (paper
//    §4.2), as the input assembler hands them to the network. The LSTM
//    hoists the window's input projection into one T-row GEMM, then
//    runs the recurrence step by step; Dense is row-local and the TCN
//    convolution clamps at the window's edges. Callers that hold
//    several windows (the online runtime's per-call grouping) run one
//    Forward per window; the float GEMMs compute every entry as one
//    serial FMA chain (nn/matrix.h), so stacking windows into one
//    input would change no activation bit and buys nothing.
//
// The tape forward remains the golden reference. The two paths differ by
// fp32 rounding only, within the error bound derived in
// tests/infer_equivalence_test.cc; thresholded marks agree except where
// a tape score lies within that bound of the threshold.

#ifndef DLACEP_NN_INFER_H_
#define DLACEP_NN_INFER_H_

#include <deque>
#include <type_traits>
#include <vector>

#include "nn/layers.h"
#include "nn/matrix.h"

namespace dlacep {

/// Reusable per-thread scratch arena for forward-only passes. Reset()
/// rewinds the cursor; Acquire() hands out the next buffer slot,
/// reshaped to the requested size with its previous contents
/// unspecified. Because a frozen model acquires buffers in the same
/// order on every call, slot i always serves the same activation and
/// its capacity converges after the first (largest) window.
class InferenceContext {
 public:
  InferenceContext() = default;
  InferenceContext(const InferenceContext&) = delete;
  InferenceContext& operator=(const InferenceContext&) = delete;

  /// Rewinds the arena; previously acquired references become free for
  /// reuse (call once at the top of each forward pass). Consults the
  /// process-wide inference fault hook (see SetInferenceFaultHook), which
  /// is how the fault-injection harness poisons a forward pass.
  void Reset();

  /// Next scratch buffer of element type T (float for the trunk, double
  /// where a head widens for the CRF), reshaped to rows×cols. Contents
  /// unspecified — the producer must overwrite (or Fill) every entry.
  /// References stay valid until the slot is re-acquired after a
  /// Reset().
  template <typename T>
  MatrixT<T>& Acquire(size_t rows, size_t cols) {
    Pool<T>& pool = PoolOf<T>();
    if (pool.next == pool.slots.size()) pool.slots.emplace_back();
    MatrixT<T>& m = pool.slots[pool.next++];
    m.Resize(rows, cols);
    return m;
  }

  /// True when the current forward pass was poisoned by the fault hook.
  /// The trunk Forward implementations consult this and NaN-fill their
  /// output activation, simulating a numeric blow-up.
  bool poisoned() const { return poison_; }

 private:
  // Deque, not vector: Acquire hands out references while later calls
  // keep appending slots — references must survive growth (same
  // reasoning as Tape's node store). One slot sequence per element type.
  template <typename T>
  struct Pool {
    std::deque<MatrixT<T>> slots;
    size_t next = 0;
  };
  template <typename T>
  Pool<T>& PoolOf() {
    if constexpr (std::is_same_v<T, float>) {
      return float_pool_;
    } else {
      return double_pool_;
    }
  }
  Pool<float> float_pool_;
  Pool<double> double_pool_;
  // Set per forward pass by Reset() when the fault hook fires.
  bool poison_ = false;
};

/// Installs a process-wide fault hook consulted at every
/// InferenceContext::Reset(). When the hook returns true, that forward
/// pass is poisoned: the trunk's output activation is NaN-filled, which
/// propagates through heads/CRF into non-finite scores and the
/// kInvalidMark sentinel. Pass nullptr to clear. For fault-injection
/// tests only — not a production API. The hook must be thread-safe:
/// inference contexts reset concurrently on worker threads.
void SetInferenceFaultHook(bool (*hook)(void* ctx), void* ctx);

/// Frozen Dense: y = x·W + b with W stored transposed (out×in).
struct DenseInfer {
  MatrixF wt;  ///< out×in
  MatrixF b;   ///< 1×out
  /// out must be pre-shaped N×out_dim; fully overwritten.
  void Forward(const MatrixF& x, MatrixF* out) const;
};

/// Frozen LSTM cell. The input projection of the whole window is
/// hoisted out of the recurrence and computed as one GEMM (T×in ·
/// in×4H → T×4H, all four gates [i|f|g|o] side by side); each step is
/// then a single fused pass over a reused 1×4H gate row: bias +
/// precomputed input projection + h·Wh followed by the elementwise cell
/// update.
struct LstmInfer {
  size_t in_dim = 0;
  size_t hidden = 0;
  MatrixF wx;  ///< in×4H  (snapshot of Lstm's Wx: the hoisted T×in·in×4H
               ///<         projection rides MatMulInto's 4-row tiles)
  MatrixF wh;  ///< H×4H   (snapshot of Lstm's Wh: the recurrent update is
               ///<         a one-row MatMulInto whose 1×4H destination
               ///<         stays in registers across the reduction)
  MatrixF b;   ///< 1×4H
  /// Runs the recurrence over one window x (T×in, T > 0) and writes the
  /// hidden state rows into columns [col, col+H) of `out` (T×C,
  /// C >= col+H) at the same rows (reverse=true scans right-to-left,
  /// like the tape path). Scratch (gates, h, c) comes from `ctx`.
  void Forward(InferenceContext* ctx, const MatrixF& x, bool reverse,
               MatrixF* out, size_t col) const;
};

/// Frozen BiLSTM: forward and backward cells writing the two halves of
/// one T×2H output — no concat op, no intermediate copies.
struct BiLstmInfer {
  LstmInfer fwd;
  LstmInfer bwd;
  /// out must be pre-shaped T×2H; fully overwritten.
  void Forward(InferenceContext* ctx, const MatrixF& x, MatrixF* out) const;
};

/// Frozen stacked BiLSTM.
struct StackedBiLstmInfer {
  std::vector<BiLstmInfer> layers;
  /// Returns the last layer's T×2H activation, which lives in `ctx`
  /// until the next Reset(). Observes the windows-per-forward histogram
  /// (obs::NnBatchWindows), which reads 1 for every forward.
  const MatrixF& Forward(InferenceContext* ctx, const MatrixF& x) const;
};

/// Frozen TCN: centered dilated Conv1D + bias + ReLU per layer, with
/// each layer's (K·D_in)×hidden weight transposed to hidden×(K·D_in) so
/// tap k of output channel o is a contiguous row segment.
struct TcnInfer {
  struct Layer {
    MatrixF wt;  ///< hidden×(K·D_in)
    MatrixF b;   ///< 1×hidden
  };
  size_t kernel = 0;
  std::vector<Layer> layers;
  /// Returns the last layer's T×hidden activation (lives in `ctx`).
  /// Observes the windows-per-forward histogram.
  const MatrixF& Forward(InferenceContext* ctx, const MatrixF& x) const;
};

/// Magnitude at which FrozenInput saturates a feature. Features are
/// standardized, so real ones sit within a few units of zero, but a
/// finite CSV attribute may be as large as 1e308 and would round to
/// ±inf in float, turning gate sums into NaN. At 1e15 any weight above
/// 1e-13 in magnitude still drives its gate past saturation (|z| > 17
/// for the sigmoid, 9 for tanh, in fp32), so the gate saturates in the
/// same direction as the double tape's, while a reduction over n such
/// inputs stays below FLT_MAX (3.4e38) for any n·max|w| below 3e23.
inline constexpr float kFrozenInputBound = 1e15f;

/// Converts one window's T×D features into the float input of the
/// Forward entry points, acquired from `ctx`: the one double → float
/// conversion of the frozen path. Each feature is clamped to
/// ±kFrozenInputBound, then rounded; NaN passes through.
const MatrixF& FrozenInput(InferenceContext* ctx, const Matrix& features);

// Freeze-time repacking: snapshot the layer's current parameter values,
// rounded to float, into the transposed/fused inference layout. Call
// again after any
// parameter mutation (training step, LoadParameters) that should be
// visible to inference.
DenseInfer Freeze(const Dense& layer);
LstmInfer Freeze(const Lstm& layer);
BiLstmInfer Freeze(const BiLstm& layer);
StackedBiLstmInfer Freeze(const StackedBiLstm& layer);
TcnInfer Freeze(const Tcn& layer);

}  // namespace dlacep

#endif  // DLACEP_NN_INFER_H_
