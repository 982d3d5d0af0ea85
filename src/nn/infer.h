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
//    one register-tiled GEMM and one fused pass per step fills a single
//    reused 1×4H gate row. Freeze() snapshots the current parameter
//    values; a frozen cell does not track later parameter updates.
//
//  * `InferenceContext` is a reusable scratch arena. Activations and
//    gate rows are acquired from it in a deterministic per-model order,
//    so after the first window every buffer is already allocated at the
//    right capacity and subsequent windows run allocation-free. One
//    context per thread: contexts are not synchronized, the frozen
//    weights they read are shared and immutable.
//
//  * `ForwardBatch` entry points run B windows per call on one stacked
//    batch-major feature slab: the rows of window b occupy
//    [offsets[b], offsets[b+1]) of an ΣT×D input, `offsets` being the
//    B+1 exclusive prefix sums of the window lengths (offsets[0] = 0).
//    Batching converts the per-window matrix-vector work — the LSTM
//    recurrence above all — into matrix-matrix calls on the same
//    register-tiled kernels (one B×H·H×4H GEMM per time step instead
//    of B separate 1×H·H×4H products), and amortizes the hoisted input
//    projection into a single ΣT-row GEMM. Dense and TCN forwards are
//    row-local, so their batched results are the per-window results
//    bit for bit; the LSTM's stacked GEMMs may reassociate additions
//    across row-block boundaries, so batched activations match the
//    per-window path to <= 1e-9, not bitwise — thresholded marks stay
//    byte-identical (the same contract the tape/fast split already
//    relies on).
//
// The tape forward remains the golden reference: both paths must agree
// to <= 1e-9 elementwise (tests/infer_equivalence_test.cc).

#ifndef DLACEP_NN_INFER_H_
#define DLACEP_NN_INFER_H_

#include <deque>
#include <span>
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

  /// Next scratch buffer, reshaped to rows×cols. Contents unspecified —
  /// the producer must overwrite (or Fill) every entry. References stay
  /// valid until the slot is re-acquired after a Reset().
  Matrix& Acquire(size_t rows, size_t cols);

  size_t num_buffers() const { return pool_.size(); }

  /// True when the current forward pass was poisoned by the fault hook.
  /// The trunk Forward implementations consult this and NaN-fill their
  /// output activation, simulating a numeric blow-up.
  bool poisoned() const { return poison_; }

 private:
  // Deque, not vector: Acquire hands out references while later calls
  // keep appending slots — references must survive growth (same
  // reasoning as Tape's node store).
  std::deque<Matrix> pool_;
  size_t next_ = 0;
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
  Matrix wt;  ///< out×in
  Matrix b;   ///< 1×out
  /// out must be pre-shaped N×out_dim; fully overwritten.
  void Forward(const Matrix& x, Matrix* out) const;
  /// Batched forward over a stacked slab. Dense is row-local (every
  /// output row is a dot product of its own input row), so this IS
  /// Forward on the concatenated rows — bit-identical to B separate
  /// per-window calls. Kept as a named entry point so call sites read
  /// batch-shaped.
  void ForwardBatch(const Matrix& x_all, Matrix* out_all) const {
    Forward(x_all, out_all);
  }
};

/// Frozen LSTM cell. The input projection for the whole sequence is
/// hoisted out of the recurrence and computed as one blocked GEMM
/// (T×in · wxtᵗ → T×4H, all four gates [i|f|g|o] side by side); the
/// per-step work is then a single fused pass over a reused 1×4H gate
/// row: bias + precomputed input projection + h·Wh (a 1×H·H×4H GEMM on
/// the shared blocked kernel) followed by the elementwise cell update.
struct LstmInfer {
  size_t in_dim = 0;
  size_t hidden = 0;
  Matrix wx;  ///< in×4H  (snapshot of Lstm's Wx: the hoisted T×in·in×4H
              ///<         projection rides the register-tiled MatMulInto)
  Matrix wh;  ///< H×4H   (snapshot of Lstm's Wh: the recurrent update is
              ///<         an axpy over rows, vectorized across gates)
  Matrix b;   ///< 1×4H
  /// Runs the recurrence over x (T×in) and writes hidden state rows
  /// into columns [col, col+H) of `out` (T×C, C >= col+H), rows aligned
  /// to input order (reverse=true scans right-to-left, like the tape
  /// path). Scratch (gates, h, c) comes from `ctx`.
  void ForwardInto(InferenceContext* ctx, const Matrix& x, bool reverse,
                   Matrix* out, size_t col) const;
  /// Batched recurrence over B windows stacked in x_all (ΣT×in, window
  /// b at rows [offsets[b], offsets[b+1]), all lengths > 0). The B
  /// hidden/cell states advance in lockstep, so the recurrent term is
  /// one B×H·H×4H GEMM per time step; windows shorter than the batch
  /// maximum simply stop participating (their gate rows are zeroed so
  /// the shared GEMM stays finite, and their cell update is skipped).
  /// Output rows land at the same offsets in out_all (ΣT×C).
  void ForwardBatchInto(InferenceContext* ctx, const Matrix& x_all,
                        std::span<const size_t> offsets, bool reverse,
                        Matrix* out_all, size_t col) const;
};

/// Frozen BiLSTM: forward and backward cells writing the two halves of
/// one T×2H output slab — no concat op, no intermediate copies.
struct BiLstmInfer {
  LstmInfer fwd;
  LstmInfer bwd;
  /// out must be pre-shaped T×2H; fully overwritten.
  void Forward(InferenceContext* ctx, const Matrix& x, Matrix* out) const;
  /// Batched twin of Forward over a stacked slab (see ForwardBatchInto).
  void ForwardBatch(InferenceContext* ctx, const Matrix& x_all,
                    std::span<const size_t> offsets, Matrix* out_all) const;
};

/// Frozen stacked BiLSTM. Returns the last layer's T×2H activation,
/// which lives in `ctx` until the next Reset().
struct StackedBiLstmInfer {
  std::vector<BiLstmInfer> layers;
  const Matrix& Forward(InferenceContext* ctx, const Matrix& x) const;
  /// Batched forward over B windows stacked in x_all (batch-major, B+1
  /// prefix-sum `offsets`). Returns the last layer's ΣT×2H slab; window
  /// b's activation occupies rows [offsets[b], offsets[b+1]). Observes
  /// the batch-size histogram (obs::NnBatchWindows).
  const Matrix& ForwardBatch(InferenceContext* ctx, const Matrix& x_all,
                             std::span<const size_t> offsets) const;
};

/// Frozen TCN: centered dilated Conv1D + bias + ReLU per layer, with
/// each layer's (K·D_in)×hidden weight transposed to hidden×(K·D_in) so
/// tap k of output channel o is a contiguous row segment.
struct TcnInfer {
  struct Layer {
    Matrix wt;  ///< hidden×(K·D_in)
    Matrix b;   ///< 1×hidden
  };
  size_t kernel = 0;
  std::vector<Layer> layers;
  /// Returns the last layer's T×hidden activation (lives in `ctx`).
  const Matrix& Forward(InferenceContext* ctx, const Matrix& x) const;
  /// Batched forward over B stacked windows. Convolutions are
  /// position-local, so batching here is loop-level fusion over the
  /// slab with window-local boundary clamps: one pass keeps the layer
  /// weights cache-warm across all B windows, and every output row is
  /// the same arithmetic as the per-window Forward. Returns the last
  /// layer's ΣT×hidden slab. Observes the batch-size histogram.
  const Matrix& ForwardBatch(InferenceContext* ctx, const Matrix& x_all,
                             std::span<const size_t> offsets) const;
};

/// Stacks B windows' feature matrices (all with the same column count)
/// batch-major into one ΣT×D slab acquired from `ctx` — the input of the
/// ForwardBatch entry points — and sets `offsets` to its B+1 row prefix
/// sums. `windows` must be non-empty.
const Matrix& StackWindows(InferenceContext* ctx,
                           std::span<const Matrix> windows,
                           std::vector<size_t>* offsets);

// Freeze-time repacking: snapshot the layer's current parameter values
// into the transposed/fused inference layout. Call again after any
// parameter mutation (training step, LoadParameters) that should be
// visible to inference.
DenseInfer Freeze(const Dense& layer);
LstmInfer Freeze(const Lstm& layer);
BiLstmInfer Freeze(const BiLstm& layer);
StackedBiLstmInfer Freeze(const StackedBiLstm& layer);
TcnInfer Freeze(const Tcn& layer);

}  // namespace dlacep

#endif  // DLACEP_NN_INFER_H_
