// Golden equivalence suite for the tape-free inference fast path
// (nn/infer.h): the autograd tape forward is the reference
// implementation, and the frozen forward-only path must reproduce it —
// activations to within 1e-9 elementwise, thresholded marks exactly —
// across random models, sequence lengths {1, 7, 64}, and all three
// network filter types. Also pins the InferenceContext reuse contract:
// recycling one arena across calls of different shapes must not change
// any result.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
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

constexpr double kTol = 1e-9;
const size_t kSeqLens[] = {1, 7, 64};

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
      Matrix out(t, 9);
      frozen.Forward(x, &out);
      EXPECT_LE(ref.MaxAbsDiff(out), kTol) << "seed " << seed << " T " << t;
    }
  }
}

TEST(InferEquivalence, StackedBiLstmMatchesTape) {
  for (uint64_t seed : {11u, 12u}) {
    Rng rng(seed);
    StackedBiLstm stack("s", 4, 6, 2, &rng);
    const StackedBiLstmInfer frozen = Freeze(stack);
    InferenceContext ctx;
    for (size_t t : kSeqLens) {
      const Matrix x = Matrix::Randn(t, 4, 1.0, &rng);
      Tape tape;
      const Matrix& ref = stack.Forward(&tape, tape.Input(x)).value();

      ctx.Reset();
      const size_t offsets[] = {0, t};  // one window: a batch of one
      const Matrix& out = frozen.Forward(&ctx, x, offsets);
      ASSERT_EQ(ref.rows(), out.rows());
      ASSERT_EQ(ref.cols(), out.cols());
      EXPECT_LE(ref.MaxAbsDiff(out), kTol) << "seed " << seed << " T " << t;
    }
  }
}

TEST(InferEquivalence, TcnMatchesTape) {
  for (uint64_t seed : {21u, 22u}) {
    Rng rng(seed);
    Tcn tcn("t", 3, 5, 2, 3, &rng);
    const TcnInfer frozen = Freeze(tcn);
    InferenceContext ctx;
    for (size_t t : kSeqLens) {
      const Matrix x = Matrix::Randn(t, 3, 1.0, &rng);
      Tape tape;
      const Matrix& ref = tcn.Forward(&tape, tape.Input(x)).value();

      ctx.Reset();
      const size_t offsets[] = {0, t};  // one window: a batch of one
      const Matrix& out = frozen.Forward(&ctx, x, offsets);
      ASSERT_EQ(ref.rows(), out.rows());
      ASSERT_EQ(ref.cols(), out.cols());
      EXPECT_LE(ref.MaxAbsDiff(out), kTol) << "seed " << seed << " T " << t;
    }
  }
}

// ---------------------------------------------------------------------
// Batched inference: Forward over a ragged stacked slab must match the
// tape forward of each window on its own, row for row, to the
// suite-wide 1e-9 — the tape stays the golden reference whatever batch
// a window rides in.

std::vector<size_t> PrefixOffsets(const std::vector<size_t>& lens) {
  std::vector<size_t> offsets(1, 0);
  for (size_t len : lens) offsets.push_back(offsets.back() + len);
  return offsets;
}

Matrix StackWindows(const std::vector<Matrix>& windows) {
  size_t total = 0;
  for (const Matrix& w : windows) total += w.rows();
  const size_t cols = windows[0].cols();
  Matrix all(total, cols);
  size_t row = 0;
  for (const Matrix& w : windows) {
    std::copy_n(w.data(), w.rows() * cols, all.data() + row * cols);
    row += w.rows();
  }
  return all;
}

// Ragged on purpose: a length-1 window, a tail shorter than the batch
// max, and a repeat length — each window's recurrence and convolution
// edges must stay inside its own rows.
const std::vector<size_t> kRaggedLens = {7, 1, 64, 3, 7};

TEST(InferEquivalence, StackedBiLstmBatchMatchesSingle) {
  for (uint64_t seed : {11u, 12u}) {
    Rng rng(seed);
    StackedBiLstm stack("s", 4, 6, 2, &rng);
    const StackedBiLstmInfer frozen = Freeze(stack);

    std::vector<Matrix> windows;
    for (size_t t : kRaggedLens) {
      windows.push_back(Matrix::Randn(t, 4, 1.0, &rng));
    }
    std::vector<Matrix> refs;
    for (const Matrix& x : windows) {
      Tape tape;
      refs.push_back(stack.Forward(&tape, tape.Input(x)).value());
    }

    const Matrix x_all = StackWindows(windows);
    const std::vector<size_t> offsets = PrefixOffsets(kRaggedLens);
    InferenceContext ctx;
    ctx.Reset();
    const Matrix& out = frozen.Forward(&ctx, x_all, offsets);
    ASSERT_EQ(out.rows(), x_all.rows());
    for (size_t w = 0; w < kRaggedLens.size(); ++w) {
      const Matrix& ref = refs[w];
      ASSERT_EQ(ref.cols(), out.cols());
      for (size_t r = 0; r < ref.rows(); ++r) {
        for (size_t c = 0; c < ref.cols(); ++c) {
          EXPECT_NEAR(out(offsets[w] + r, c), ref(r, c), kTol)
              << "seed " << seed << " window " << w << " (" << r << ","
              << c << ")";
        }
      }
    }
  }
}

TEST(InferEquivalence, TcnBatchMatchesSingle) {
  for (uint64_t seed : {21u, 22u}) {
    Rng rng(seed);
    Tcn tcn("t", 3, 5, 2, 3, &rng);
    const TcnInfer frozen = Freeze(tcn);

    std::vector<Matrix> windows;
    for (size_t t : kRaggedLens) {
      windows.push_back(Matrix::Randn(t, 3, 1.0, &rng));
    }
    std::vector<Matrix> refs;
    for (const Matrix& x : windows) {
      Tape tape;
      refs.push_back(tcn.Forward(&tape, tape.Input(x)).value());
    }

    const Matrix x_all = StackWindows(windows);
    const std::vector<size_t> offsets = PrefixOffsets(kRaggedLens);
    InferenceContext ctx;
    ctx.Reset();
    const Matrix& out = frozen.Forward(&ctx, x_all, offsets);
    ASSERT_EQ(out.rows(), x_all.rows());
    for (size_t w = 0; w < kRaggedLens.size(); ++w) {
      const Matrix& ref = refs[w];
      for (size_t r = 0; r < ref.rows(); ++r) {
        for (size_t c = 0; c < ref.cols(); ++c) {
          EXPECT_NEAR(out(offsets[w] + r, c), ref(r, c), kTol)
              << "seed " << seed << " window " << w << " (" << r << ","
              << c << ")";
        }
      }
    }
  }
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
    // must agree to 1e-9, not just the thresholded decision.
    Rng rng(4000 + seed);
    for (size_t t : kSeqLens) {
      const Matrix features = RandomFeatures(t, &rng);
      EXPECT_NEAR(filter.WindowProbability(features),
                  filter.WindowProbabilityTape(features), kTol)
          << "T " << t;
    }
  }
}

// ---------------------------------------------------------------------
// Batched marking: MarkBatchWith must reproduce per-window MarkWith
// marks exactly for every batch grouping, across all three network
// kinds (BiLSTM event, TCN event, window).

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
