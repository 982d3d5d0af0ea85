// Golden equivalence suite for the tape-free inference fast path
// (nn/infer.h): the autograd tape forward (double) is the reference
// implementation, and the frozen forward-only path (float) must
// reproduce it — activations within the fp32 error bound derived below,
// thresholded marks exactly — across random models, sequence lengths
// {1, 7, 64}, and all three network filter types. A grouped marking
// call gives each window the marks it gets alone. Also pins the
// InferenceContext reuse contract (recycling one arena across calls of
// different shapes must not change any result) and the 64-byte
// alignment of every float matrix and arena slab.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "dlacep/event_filter.h"
#include "dlacep/window_filter.h"
#include "nn/infer.h"
#include "nn/layers.h"
#include "nn/tape.h"
#include "test_util.h"

namespace dlacep {
namespace {

using testing_util::SmallStream;

const size_t kSeqLens[] = {1, 7, 64};

// ---------------------------------------------------------------------
// The fp32 error bound of the frozen path against the double tape.
//
// u = 2^-24 is float's unit roundoff. Write an activation's update as a
// pre-activation z = b + Σ_{k<n} a_k·w_k followed by an elementwise map
// of slope <= 1 (σ, tanh, ReLU, identity):
//  * Rounding a_k and w_k to float moves each product by <= 2u·|a_k w_k|,
//    and the serial fma chain adds Higham's γ_n <= n·u·Σ|a_k w_k| (first
//    order). With every term bounded by m = max|a|·max|w|, the
//    pre-activation is off by at most δz = (n + 2)·n·m·u.
//  * σ and tanh are evaluated from expf (libmvec: <= 4 ulp) with one add,
//    one divide and, for tanh, one subtract: <= 8u more on values in
//    [-1, 1]. A gate is off by at most δz + 8u.
//  * An LSTM step c_t = f·c_{t-1} + i·g, h_t = o·tanh(c_t) with every
//    factor in [-1, 1] adds at most three gate errors to c and two more
//    to h, plus a rounding each: <= 6·(δz + 8u) per step.
//  * First order, and assuming the recurrence does not expand an error
//    it carries (the forget gate is < 1 and σ' <= 1/4), the per-step
//    errors add over the T steps of a window and the L stacked layers.
// So after `steps` = L·T dependent updates (L for the position-local
// TCN and Dense) an activation is within
//     Fp32Bound(n, m, steps) = 6·steps·((n + 2)·n·m + 8)·u
// of the tape, n being the longest reduction of one update (in + H + 1
// for an LSTM gate). The bound comes from the shapes and the weights,
// not from observed deltas; those sit orders of magnitude below it.
constexpr double kU = 1.0 / (1 << 24);

double Fp32Bound(size_t n, double m, size_t steps) {
  const double nd = static_cast<double>(n);
  return 6.0 * static_cast<double>(steps) * ((nd + 2.0) * nd * m + 8.0) * kU;
}

double MaxAbs(const Matrix& m) {
  double worst = 0.0;
  for (size_t i = 0; i < m.size(); ++i) {
    worst = std::max(worst, std::abs(m.data()[i]));
  }
  return worst;
}

double MaxAbsWeight(const std::vector<Parameter*>& params) {
  double worst = 0.0;
  for (const Parameter* p : params) worst = std::max(worst, MaxAbs(p->value));
  return worst;
}

/// Runs one window through a frozen sequence cell.
template <typename Frozen>
Matrix ForwardOne(const Frozen& frozen, const Matrix& x) {
  InferenceContext ctx;
  ctx.Reset();
  return CastMatrix<double>(frozen.Forward(&ctx, FrozenInput(&ctx, x)));
}

// ---------------------------------------------------------------------
// Layer-level activation equivalence.

TEST(InferEquivalence, DenseMatchesTape) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    Dense dense("d", 5, 9, &rng);
    for (size_t t : kSeqLens) {
      const Matrix x = Matrix::Randn(t, 5, 1.0, &rng);
      Tape tape;
      const Matrix& ref = dense.Forward(&tape, tape.Input(x)).value();

      const DenseInfer frozen = Freeze(dense);
      MatrixF out(t, 9);
      frozen.Forward(CastMatrix<float>(x), &out);
      const double m = std::max(1.0, MaxAbs(x)) * MaxAbsWeight(dense.Params());
      EXPECT_LE(ref.MaxAbsDiff(CastMatrix<double>(out)),
                Fp32Bound(5 + 1, m, 1))
          << "seed " << seed << " T " << t;
    }
  }
}

TEST(InferEquivalence, StackedBiLstmMatchesTape) {
  for (uint64_t seed : {11u, 12u}) {
    Rng rng(seed);
    StackedBiLstm stack("s", 4, 6, 2, &rng);
    const StackedBiLstmInfer frozen = Freeze(stack);
    for (size_t t : kSeqLens) {
      const Matrix x = Matrix::Randn(t, 4, 1.0, &rng);
      Tape tape;
      const Matrix& ref = stack.Forward(&tape, tape.Input(x)).value();

      const Matrix out = ForwardOne(frozen, x);
      ASSERT_EQ(ref.rows(), out.rows());
      ASSERT_EQ(ref.cols(), out.cols());
      // Layer 2 reads the 2H = 12 wide layer-1 output: n = 12 + 6 + 1.
      const double m = std::max(1.0, MaxAbs(x)) * MaxAbsWeight(stack.Params());
      EXPECT_LE(ref.MaxAbsDiff(out), Fp32Bound(12 + 6 + 1, m, 2 * t))
          << "seed " << seed << " T " << t;
    }
  }
}

TEST(InferEquivalence, TcnMatchesTape) {
  for (uint64_t seed : {21u, 22u}) {
    Rng rng(seed);
    Tcn tcn("t", 3, 5, 2, 3, &rng);
    const TcnInfer frozen = Freeze(tcn);
    for (size_t t : kSeqLens) {
      const Matrix x = Matrix::Randn(t, 3, 1.0, &rng);
      Tape tape;
      const Matrix& ref = tcn.Forward(&tape, tape.Input(x)).value();

      const Matrix out = ForwardOne(frozen, x);
      ASSERT_EQ(ref.rows(), out.rows());
      ASSERT_EQ(ref.cols(), out.cols());
      // Layer 2 reduces K·hidden + 1 = 16 terms. Its inputs are layer 1's
      // ReLU outputs, bounded by (K·D_in + 1)·max|x|·max|w| = 10·A·W.
      const double a = std::max(1.0, MaxAbs(x));
      const double w = MaxAbsWeight(tcn.Params());
      const double m = std::max(a, 10.0 * a * w) * w;
      EXPECT_LE(ref.MaxAbsDiff(out), Fp32Bound(3 * 5 + 1, m, 2))
          << "seed " << seed << " T " << t;
    }
  }
}

// ---------------------------------------------------------------------
// The GEMMs, in both precisions: every entry is one serial FMA chain in
// ascending k — c = fma(a_k, b_k, c) from C's value for A·B and Aᵗ·B,
// from zero for the A·Bᵗ dot product — so a row's result does not
// depend on its tile, its neighbours or the dispatch. Checked against a
// scalar std::fma chain at shapes that hit every tile, panel, gather
// block and masked-tail path.

template <typename T>
MatrixT<T> RandomOf(size_t rows, size_t cols, Rng* rng) {
  return CastMatrix<T>(Matrix::Randn(rows, cols, 1.0, rng));
}

template <typename T>
MatrixT<T> RowOf(const MatrixT<T>& m, size_t r) {
  MatrixT<T> row(1, m.cols());
  std::copy_n(m.data() + r * m.cols(), m.cols(), row.data());
  return row;
}

template <typename T>
void CheckEveryEntryIsOneSerialFmaChain() {
  Rng rng(5);
  for (size_t m : {1u, 3u, 4u, 5u, 17u, 40u}) {
    for (size_t k : {1u, 7u, 64u}) {
      for (size_t n : {2u, 24u, 100u, 256u, 384u}) {
        const MatrixT<T> a = RandomOf<T>(m, k, &rng);
        const MatrixT<T> b = RandomOf<T>(k, n, &rng);
        const MatrixT<T> b_t = RandomOf<T>(n, k, &rng);
        const MatrixT<T> a_t = RandomOf<T>(k, m, &rng);
        const MatrixT<T> init = RandomOf<T>(m, n, &rng);
        MatrixT<T> prod = init;
        MatMulInto(a, b, &prod, /*accumulate=*/true);
        MatrixT<T> prod_t(m, n);
        MatMulTransBInto(a, b_t, &prod_t);
        MatrixT<T> prod_ta = init;
        if constexpr (std::is_same_v<T, double>) {
          MatMulTransAInto(a_t, b, &prod_ta, /*accumulate=*/true);
        }
        for (size_t i = 0; i < m; ++i) {
          MatrixT<T> row_prod = RowOf(init, i);
          MatMulInto(RowOf(a, i), b, &row_prod, /*accumulate=*/true);
          MatrixT<T> row_prod_t(1, n);
          MatMulTransBInto(RowOf(a, i), b_t, &row_prod_t);
          for (size_t j = 0; j < n; ++j) {
            T chain = init(i, j);
            T dot = 0;
            T chain_ta = init(i, j);
            for (size_t kk = 0; kk < k; ++kk) {
              chain = std::fma(a(i, kk), b(kk, j), chain);
              dot = std::fma(a(i, kk), b_t(j, kk), dot);
              chain_ta = std::fma(a_t(kk, i), b(kk, j), chain_ta);
            }
            ASSERT_EQ(prod(i, j), chain)
                << m << "x" << k << "x" << n << " (" << i << "," << j << ")";
            ASSERT_EQ(row_prod(0, j), chain);
            ASSERT_EQ(prod_t(i, j), dot)
                << m << "x" << k << "x" << n << " (" << i << "," << j << ")";
            ASSERT_EQ(row_prod_t(0, j), dot);
            if constexpr (std::is_same_v<T, double>) {
              ASSERT_EQ(prod_ta(i, j), chain_ta)
                  << m << "x" << k << "x" << n << " (" << i << "," << j
                  << ")";
            }
          }
        }
      }
    }
  }
}

// The frozen trunk's floats and the tape's doubles share the contract.
TEST(FrozenGemm, EveryEntryIsOneSerialFmaChain) {
  {
    SCOPED_TRACE("float");
    CheckEveryEntryIsOneSerialFmaChain<float>();
  }
  {
    SCOPED_TRACE("double");
    CheckEveryEntryIsOneSerialFmaChain<double>();
  }
}

// ---------------------------------------------------------------------
// Aligned storage: a float matrix's data() sits on a 64-byte boundary
// after construction, growth, copy and move, and so does every float
// slab the inference arena hands out. (Double storage, the tape's, is
// left to std::allocator; see MatrixStorage in nn/matrix.h.)

bool Aligned64(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
}

TEST(AlignedStorage, FloatMatrixDataIs64ByteAligned) {
  MatrixF m(3, 5);
  EXPECT_TRUE(Aligned64(m.data()));
  m.Resize(40, 33);  // growth reallocates
  EXPECT_TRUE(Aligned64(m.data()));
  MatrixF copy(m);
  EXPECT_TRUE(Aligned64(copy.data()));
  MatrixF assigned(1, 1);
  assigned = m;
  EXPECT_TRUE(Aligned64(assigned.data()));
  MatrixF moved(std::move(copy));
  EXPECT_TRUE(Aligned64(moved.data()));
  MatrixF move_assigned;
  move_assigned = std::move(assigned);
  EXPECT_TRUE(Aligned64(move_assigned.data()));
}

TEST(AlignedStorage, EveryFloatArenaSlabIs64ByteAligned) {
  InferenceContext ctx;
  // Odd shapes, growing and shrinking across passes.
  for (size_t pass = 0; pass < 3; ++pass) {
    ctx.Reset();
    for (size_t rows : {1u, 7u, 64u, 3u}) {
      EXPECT_TRUE(Aligned64(ctx.Acquire<float>(rows, 5 + 11 * pass).data()));
    }
  }
  // The slabs a real forward acquires: input, projections, gates, states.
  Rng rng(9);
  StackedBiLstm stack("s", 4, 6, 2, &rng);
  const StackedBiLstmInfer frozen = Freeze(stack);
  const Matrix x = Matrix::Randn(13, 4, 1.0, &rng);
  ctx.Reset();
  const MatrixF& input = FrozenInput(&ctx, x);
  EXPECT_TRUE(Aligned64(input.data()));
  EXPECT_TRUE(Aligned64(frozen.Forward(&ctx, input).data()));
}

// ---------------------------------------------------------------------
// Filter-level mark equivalence: fast path vs tape path, random models ×
// sequence lengths × all three filter types.

class InferFilterEquivalence : public ::testing::Test {
 protected:
  InferFilterEquivalence()
      : stream_(SmallStream(600, 77)),
        pattern_(testing_util::AscendingSeqPattern(stream_.schema_ptr(), 2,
                                                   8)),
        featurizer_(pattern_, stream_) {}

  Matrix RandomFeatures(size_t t, Rng* rng) const {
    return Matrix::Randn(t, featurizer_.feature_dim(), 1.0, rng);
  }

  /// Asserts fast-path == tape-path marks for every (seed, T) cell and
  /// checks that reusing one InferenceContext across the whole sweep
  /// (shrinking and growing T) changes nothing.
  void CheckFilter(const TrainableFilter& filter, uint64_t data_seed) {
    InferenceContext shared;
    Rng rng(data_seed);
    for (size_t t : kSeqLens) {
      const Matrix features = RandomFeatures(t, &rng);
      const std::vector<int> tape_marks = filter.MarkFeaturesTape(features);
      const std::vector<int> fast_marks = filter.MarkFeatures(features);
      const std::vector<int> reused_marks =
          filter.MarkFeaturesWith(features, &shared);
      ASSERT_EQ(tape_marks.size(), t);
      EXPECT_EQ(tape_marks, fast_marks) << "T " << t;
      EXPECT_EQ(tape_marks, reused_marks) << "T " << t;
    }
    // Second pass over the same shapes through the already-warm arena:
    // buffer recycling must be idempotent.
    Rng rng2(data_seed);
    for (size_t t : kSeqLens) {
      const Matrix features = RandomFeatures(t, &rng2);
      EXPECT_EQ(filter.MarkFeaturesTape(features),
                filter.MarkFeaturesWith(features, &shared))
          << "reused-arena pass, T " << t;
    }
  }

  /// Batched marks must equal per-window MarkWith marks exactly — for
  /// every grouping of the same window set (batch sizes 1, 2, 3, 8 over
  /// ten windows leave ragged tails of every flavor), all through ONE
  /// shared arena so buffer recycling across batch shapes is covered.
  void CheckFilterBatch(const StreamFilter& filter) {
    std::vector<WindowRange> windows;
    size_t begin = 0;
    for (size_t size : {16u, 1u, 64u, 7u, 16u, 3u, 33u, 16u, 9u, 5u}) {
      windows.push_back(WindowRange{begin, begin + size});
      begin += size / 2 + 1;  // overlapping, like the assembler's 2W/W
    }
    InferenceContext single;
    std::vector<std::vector<int>> expected(windows.size());
    for (size_t i = 0; i < windows.size(); ++i) {
      expected[i] = filter.MarkWith(stream_, windows[i], &single);
    }
    InferenceContext shared;
    for (size_t batch : {1u, 2u, 3u, 8u}) {
      std::vector<std::vector<int>> got(windows.size());
      for (size_t b = 0; b < windows.size(); b += batch) {
        const size_t count = std::min(batch, windows.size() - b);
        filter.MarkBatchWith(
            stream_,
            std::span<const WindowRange>(windows.data() + b, count),
            &shared, got.data() + b);
      }
      for (size_t i = 0; i < windows.size(); ++i) {
        EXPECT_EQ(expected[i], got[i])
            << "batch " << batch << " window " << i;
      }
    }
  }

  EventStream stream_;
  Pattern pattern_;
  Featurizer featurizer_;
};

TEST_F(InferFilterEquivalence, EventNetworkFilter) {
  for (uint64_t seed : {31u, 32u, 33u}) {
    NetworkConfig network;
    network.hidden_dim = 6 + seed % 5;
    network.num_layers = 1 + seed % 2;
    network.seed = seed;
    EventNetworkFilter filter(&featurizer_, network, 0.5);
    CheckFilter(filter, 1000 + seed);
  }
}

TEST_F(InferFilterEquivalence, EventNetworkFilterTcn) {
  for (uint64_t seed : {41u, 42u, 43u}) {
    NetworkConfig network;
    network.hidden_dim = 6 + seed % 5;
    network.num_layers = 1 + seed % 2;
    network.seed = seed;
    EventNetworkFilter filter(&featurizer_, network, 0.5,
                              EventBackbone::Tcn(3));
    CheckFilter(filter, 2000 + seed);
  }
}

TEST_F(InferFilterEquivalence, WindowNetworkFilter) {
  for (uint64_t seed : {51u, 52u, 53u}) {
    NetworkConfig network;
    network.hidden_dim = 6 + seed % 5;
    network.num_layers = 1 + seed % 2;
    network.seed = seed;
    WindowNetworkFilter filter(&featurizer_, network, 0.5);
    CheckFilter(filter, 3000 + seed);

    // The window probability itself — the pre-threshold activation —
    // must agree within the fp32 bound, not just the thresholded
    // decision. The trunk's reductions are at most D + 2H + H + 1 long;
    // the head reads 2H max-pooled trunk outputs (gain <= 2H·max|w| on
    // their errors) and adds its own 2H + 1 term rounding; the sigmoid's
    // slope is <= 1/4.
    Rng rng(4000 + seed);
    for (size_t t : kSeqLens) {
      const Matrix features = RandomFeatures(t, &rng);
      const size_t h = network.hidden_dim;
      const double w = MaxAbsWeight(filter.Params());
      const double trunk = Fp32Bound(featurizer_.feature_dim() + 3 * h + 1,
                                     std::max(1.0, MaxAbs(features)) * w,
                                     network.num_layers * t);
      const double bound =
          2.0 * static_cast<double>(h) * w * trunk + Fp32Bound(2 * h + 1, w, 1);
      EXPECT_NEAR(filter.WindowProbability(features),
                  filter.WindowProbabilityTape(features), bound)
          << "T " << t;
    }
  }
}

// ---------------------------------------------------------------------
// Grouped marking: the StreamFilter base loop MarkBatchWith must
// reproduce per-window MarkWith marks exactly for every grouping,
// across all three network kinds (BiLSTM event, TCN event, window).

TEST_F(InferFilterEquivalence, EventNetworkFilterBatchMarks) {
  for (uint64_t seed : {31u, 32u, 33u}) {
    NetworkConfig network;
    network.hidden_dim = 6 + seed % 5;
    network.num_layers = 1 + seed % 2;
    network.seed = seed;
    EventNetworkFilter filter(&featurizer_, network, 0.5);
    CheckFilterBatch(filter);
  }
}

TEST_F(InferFilterEquivalence, EventNetworkFilterTcnBatchMarks) {
  for (uint64_t seed : {41u, 42u, 43u}) {
    NetworkConfig network;
    network.hidden_dim = 6 + seed % 5;
    network.num_layers = 1 + seed % 2;
    network.seed = seed;
    EventNetworkFilter filter(&featurizer_, network, 0.5,
                              EventBackbone::Tcn(3));
    CheckFilterBatch(filter);
  }
}

TEST_F(InferFilterEquivalence, WindowNetworkFilterBatchMarks) {
  for (uint64_t seed : {51u, 52u, 53u}) {
    NetworkConfig network;
    network.hidden_dim = 6 + seed % 5;
    network.num_layers = 1 + seed % 2;
    network.seed = seed;
    WindowNetworkFilter filter(&featurizer_, network, 0.5);
    CheckFilterBatch(filter);
  }
}

// MarkBatchOnline with per-window threshold boosts must match the
// per-window MarkOnline it batches (the level-1 overload regime rides
// this path), for every network kind. The boost must also take effect
// on both paths: boost 0 marks some event, and a boost that lifts the
// threshold above 1 marks none.
TEST_F(InferFilterEquivalence, EventNetworkFilterBatchOnlineBoosts) {
  NetworkConfig network;
  network.hidden_dim = 8;
  network.num_layers = 2;
  network.seed = 71;
  const EventNetworkFilter bilstm(&featurizer_, network, 0.5);
  const EventNetworkFilter tcn(&featurizer_, network, 0.5,
                               EventBackbone::Tcn(3));
  const WindowNetworkFilter window(&featurizer_, network, 0.5);

  std::vector<std::shared_ptr<EventStream>> slices;
  size_t begin = 0;
  for (size_t size : {16u, 7u, 33u, 1u, 16u}) {
    slices.push_back(
        std::make_shared<EventStream>(stream_.Slice(begin, size)));
    begin += size / 2 + 1;
  }
  // Each window's boost from `boost_of(i)`; returns the per-window
  // MarkOnline marks after checking the batched marks equal them.
  auto mark = [&](const TrainableFilter& filter, auto boost_of) {
    std::vector<OnlineWindow> windows;
    for (size_t i = 0; i < slices.size(); ++i) {
      windows.push_back(OnlineWindow{slices[i].get(), 0, boost_of(i)});
    }
    InferenceContext single;
    std::vector<std::vector<int>> expected(windows.size());
    for (size_t i = 0; i < windows.size(); ++i) {
      expected[i] = filter.MarkOnline(*windows[i].events,
                                      windows[i].stream_begin, &single,
                                      windows[i].threshold_boost);
    }
    InferenceContext shared;
    std::vector<std::vector<int>> got(windows.size());
    filter.MarkBatchOnline(windows, &shared, got.data());
    for (size_t i = 0; i < windows.size(); ++i) {
      EXPECT_EQ(expected[i], got[i]) << "window " << i;
    }
    return expected;
  };
  auto marked = [](const std::vector<std::vector<int>>& marks) {
    size_t n = 0;
    for (const std::vector<int>& window : marks) {
      n += static_cast<size_t>(std::count(window.begin(), window.end(), 1));
    }
    return n;
  };

  for (const TrainableFilter* filter :
       {static_cast<const TrainableFilter*>(&bilstm),
        static_cast<const TrainableFilter*>(&tcn),
        static_cast<const TrainableFilter*>(&window)}) {
    SCOPED_TRACE(filter->name());
    mark(*filter, [](size_t i) { return i % 2 == 0 ? 0.0 : 0.2; });
    EXPECT_GT(marked(mark(*filter, [](size_t) { return 0.0; })), 0u);
    EXPECT_EQ(marked(mark(*filter, [](size_t) { return 0.6; })), 0u);
  }
}

// A finite but extreme attribute (CSV accepts any finite value) must
// keep every mark valid — no kInvalidMark quarantine — and equal to the
// double tape's, through both the batch and the online entry points, for
// the BiLSTM and TCN event networks and the window network. Two bounds
// keep it finite: Featurizer::Encode clips both standardized attribute
// channels to ±kAttrBound (without it the TCN's double tape scores the
// window non-finite), and FrozenInput saturates any feature beyond
// ±kFrozenInputBound, which would round to inf in float, where an inf
// meeting a zero weight or an opposite-sign inf in one sum gives NaN.
TEST_F(InferFilterEquivalence, ExtremeFiniteAttributeKeepsMarksFinite) {
  constexpr size_t kExtreme = 120;
  EventStream extreme(stream_.schema_ptr());
  for (size_t i = 0; i < stream_.size(); ++i) {
    Event event = stream_[i];
    if (i == kExtreme) event.attrs[0] = 1e300;
    extreme.AppendArrival(event);
  }
  NetworkConfig network;
  network.hidden_dim = 8;
  network.num_layers = 2;
  network.seed = 81;
  const EventNetworkFilter event_filter(&featurizer_, network, 0.5);
  const EventNetworkFilter tcn_filter(&featurizer_, network, 0.5,
                                      EventBackbone::Tcn(3));
  const WindowNetworkFilter window_filter(&featurizer_, network, 0.5);

  // The float input itself: a feature beyond float range is saturated,
  // not rounded to inf, and a NaN feature still passes through.
  Matrix features = featurizer_.Encode(extreme.View(kExtreme, 2));
  features(0, 0) = 1e300;
  features(1, 0) = std::numeric_limits<double>::quiet_NaN();
  InferenceContext input_ctx;
  const MatrixF& input = FrozenInput(&input_ctx, features);
  const float* row = input.data();
  EXPECT_EQ(*std::max_element(row, row + input.cols()), kFrozenInputBound);
  EXPECT_TRUE(std::isnan(input(1, 0)));

  // Windows around the extreme event, at its start, middle and end.
  const std::vector<WindowRange> ranges = {
      {kExtreme, kExtreme + 16}, {kExtreme - 7, kExtreme + 9},
      {kExtreme - 15, kExtreme + 1}, {kExtreme, kExtreme + 1}};
  std::vector<std::shared_ptr<EventStream>> slices;
  std::vector<OnlineWindow> online;
  for (const WindowRange& r : ranges) {
    slices.push_back(
        std::make_shared<EventStream>(extreme.Slice(r.begin, r.size())));
    online.push_back(OnlineWindow{slices.back().get(), r.begin, 0.0});
  }
  for (const TrainableFilter* filter :
       {static_cast<const TrainableFilter*>(&event_filter),
        static_cast<const TrainableFilter*>(&tcn_filter),
        static_cast<const TrainableFilter*>(&window_filter)}) {
    SCOPED_TRACE(filter->name());
    InferenceContext ctx;
    std::vector<std::vector<int>> batch(ranges.size());
    filter->MarkBatchWith(extreme, ranges, &ctx, batch.data());
    std::vector<std::vector<int>> streamed(ranges.size());
    filter->MarkBatchOnline(online, &ctx, streamed.data());
    for (size_t w = 0; w < ranges.size(); ++w) {
      const std::vector<int> tape = filter->MarkFeaturesTape(
          featurizer_.Encode(extreme.View(ranges[w].begin, ranges[w].size())));
      ASSERT_EQ(std::count(tape.begin(), tape.end(), kInvalidMark), 0)
          << "the double tape itself stays finite, window " << w;
      EXPECT_EQ(std::count(batch[w].begin(), batch[w].end(), kInvalidMark), 0)
          << "window " << w;
      EXPECT_EQ(batch[w], tape) << "window " << w;
      EXPECT_EQ(streamed[w], tape) << "window " << w;
    }
  }
}

// ---------------------------------------------------------------------
// End-to-end Mark: the stream-facing entry point (featurize + fast
// path) must be invariant to which context — none, fresh, or reused —
// serves the call.

TEST_F(InferFilterEquivalence, MarkIsInvariantToContextReuse) {
  NetworkConfig network;
  network.hidden_dim = 8;
  network.num_layers = 2;
  network.seed = 61;
  EventNetworkFilter filter(&featurizer_, network, 0.5);

  InferenceContext reused;
  for (size_t begin : {0u, 100u, 200u}) {
    for (size_t size : {1u, 7u, 64u}) {
      const WindowRange range{begin, begin + size};
      const std::vector<int> plain = filter.Mark(stream_, range);
      InferenceContext fresh;
      EXPECT_EQ(plain, filter.MarkWith(stream_, range, &fresh));
      EXPECT_EQ(plain, filter.MarkWith(stream_, range, &reused));
    }
  }
}

}  // namespace
}  // namespace dlacep
