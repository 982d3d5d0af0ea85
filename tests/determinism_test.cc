// Reproducibility tests: all stochastic components are seeded, so
// training, filtering, and evaluation must be bit-identical across runs
// with the same configuration.

#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <thread>
#include <vector>

#include "dlacep/event_filter.h"
#include "dlacep/multi_pattern.h"
#include "dlacep/pipeline.h"
#include "nn/serialize.h"
#include "pattern/builder.h"
#include "test_util.h"

namespace dlacep {
namespace {

using testing_util::SmallStream;

Pattern TestPattern(std::shared_ptr<const Schema> schema) {
  PatternBuilder b(std::move(schema));
  auto root = b.Seq(b.Prim("A", "a"), b.Prim("B", "bb"));
  b.WhereCmp(1.0, "a", "vol", CmpOp::kLt, 1.0, "bb");
  return b.BuildOrDie(std::move(root), WindowSpec::Count(8));
}

TEST(Determinism, BuildDlacepIsBitReproducible) {
  const EventStream train = SmallStream(800, 201);
  const EventStream test = SmallStream(400, 202);
  const Pattern pattern = TestPattern(train.schema_ptr());

  DlacepConfig config;
  config.network.hidden_dim = 6;
  config.network.num_layers = 1;
  config.train.max_epochs = 6;

  auto run = [&] {
    BuiltDlacep built =
        BuildDlacep(pattern, train, FilterKind::kEventNetwork, config);
    return built.pipeline->Evaluate(test);
  };
  const PipelineResult a = run();
  const PipelineResult b = run();
  EXPECT_EQ(a.matches.size(), b.matches.size());
  EXPECT_EQ(a.marked_events, b.marked_events);
  auto it_a = a.matches.begin();
  auto it_b = b.matches.begin();
  for (; it_a != a.matches.end(); ++it_a, ++it_b) {
    EXPECT_EQ(it_a->ids, it_b->ids);
  }
}

TEST(Determinism, DifferentNetworkSeedsDiverge) {
  const EventStream train = SmallStream(800, 203);
  const Pattern pattern = TestPattern(train.schema_ptr());

  DlacepConfig a;
  a.network.hidden_dim = 6;
  a.network.num_layers = 1;
  a.train.max_epochs = 3;
  DlacepConfig b = a;
  b.network.seed = a.network.seed + 1;

  BuiltDlacep built_a =
      BuildDlacep(pattern, train, FilterKind::kEventNetwork, a);
  BuiltDlacep built_b =
      BuildDlacep(pattern, train, FilterKind::kEventNetwork, b);
  // Different initializations — loss trajectories should differ.
  EXPECT_NE(built_a.train_result.final_loss,
            built_b.train_result.final_loss);
}

TEST(Determinism, SavedFilterProducesIdenticalMarksAfterReload) {
  const EventStream train = SmallStream(800, 204);
  const EventStream probe = SmallStream(200, 205);
  const Pattern pattern = TestPattern(train.schema_ptr());

  NetworkConfig network;
  network.hidden_dim = 6;
  network.num_layers = 1;
  const Featurizer featurizer(pattern, train);
  EventNetworkFilter filter(&featurizer, network, 0.5);
  const InputAssembler assembler = InputAssembler::ForWindow(8);
  const FilterDataset dataset =
      BuildFilterDataset(pattern, train, assembler, featurizer, 0.9, 17);
  TrainConfig train_config;
  train_config.max_epochs = 5;
  filter.Fit(dataset.train_event, train_config);

  const WindowRange range{0, 64};
  const std::vector<int> marks_before = filter.Mark(probe, range);

  const std::string path = ::testing::TempDir() + "/filter_roundtrip.bin";
  ASSERT_TRUE(SaveParameters(filter.Params(), path).ok());

  // A fresh filter with different random init, restored from disk.
  NetworkConfig other = network;
  other.seed = network.seed + 99;
  EventNetworkFilter restored(&featurizer, other, 0.5);
  EXPECT_NE(restored.Mark(probe, range), marks_before);  // pre-load
  ASSERT_TRUE(LoadParameters(restored.Params(), path).ok());
  restored.OnParamsChanged();  // repack frozen inference weights
  EXPECT_EQ(restored.Mark(probe, range), marks_before);  // post-load
  std::remove(path.c_str());
}

/// Non-owning view so one trained filter can serve several pipelines
/// with different num_threads settings. Forwards the batch marking call
/// with the worker's arena, and records which thread marked each window
/// in a slot per window start that only one worker may write (a window
/// marked twice, or concurrently, shows up as a data race).
class BorrowedFilter : public StreamFilter {
 public:
  BorrowedFilter(const StreamFilter* inner,
                 std::vector<std::thread::id>* marked_by)
      : inner_(inner), marked_by_(marked_by) {}
  std::string name() const override { return inner_->name(); }
  std::vector<int> Mark(const EventStream& stream,
                        WindowRange range) const override {
    return inner_->Mark(stream, range);
  }
  void MarkBatchWith(const EventStream& stream,
                     std::span<const WindowRange> windows,
                     InferenceContext* ctx,
                     std::vector<int>* marks) const override {
    for (const WindowRange& range : windows) {
      (*marked_by_)[range.begin] = std::this_thread::get_id();
    }
    inner_->MarkBatchWith(stream, windows, ctx, marks);
  }

 private:
  const StreamFilter* inner_;
  std::vector<std::thread::id>* marked_by_;
};

/// Parallel filtration must be byte-identical to the sequential path:
/// same mark vector (merge order included), same dedup count, same
/// filtering ratio, same matches. Covered: the whole test stream at
/// hardware concurrency (num_threads = 0) and fixed counts, a four-window
/// prefix with more threads than windows, a stream shorter than one
/// mark window (one truncated window, which the calling thread marks
/// alone), and the empty stream (no window, no mark).
void ExpectThreadCountInvariance(FilterKind kind) {
  const EventStream train = SmallStream(800, 206);
  const EventStream test = SmallStream(400, 207);
  const Pattern pattern = TestPattern(train.schema_ptr());

  DlacepConfig config;
  config.network.hidden_dim = 6;
  config.network.num_layers = 1;
  config.train.max_epochs = 6;

  BuiltDlacep built = BuildDlacep(pattern, train, kind, config);
  const EventStream four_windows = test.Slice(0, 40);
  const EventStream short_stream = test.Slice(0, 10);
  const EventStream empty(test.schema_ptr());
  ASSERT_EQ(built.pipeline->assembler().Windows(four_windows.size()).size(),
            4u);
  ASSERT_EQ(built.pipeline->assembler().Windows(short_stream.size()).size(),
            1u);

  std::vector<std::thread::id> marked_by;
  auto evaluate = [&](const EventStream& stream, size_t num_threads) {
    marked_by.assign(stream.size(), std::thread::id());
    DlacepConfig threaded = config;
    threaded.num_threads = num_threads;
    DlacepPipeline pipeline(
        pattern,
        std::make_unique<BorrowedFilter>(&built.pipeline->filter(),
                                         &marked_by),
        threaded);
    return pipeline.Evaluate(stream);
  };

  const struct {
    const EventStream* stream;
    std::vector<size_t> thread_counts;
  } cases[] = {{&test, {0, 2, 4}},
               {&four_windows, {8}},
               {&short_stream, {4}},
               {&empty, {4}}};
  for (const auto& c : cases) {
    const PipelineResult sequential = evaluate(*c.stream, 1);
    for (const size_t num_threads : c.thread_counts) {
      SCOPED_TRACE("events=" + std::to_string(c.stream->size()) +
                   " num_threads=" + std::to_string(num_threads));
      const PipelineResult parallel = evaluate(*c.stream, num_threads);
      EXPECT_EQ(parallel.marked_ids, sequential.marked_ids);
      EXPECT_EQ(parallel.marked_events, sequential.marked_events);
      EXPECT_DOUBLE_EQ(parallel.filtering_ratio(),
                       sequential.filtering_ratio());
      ASSERT_EQ(parallel.matches.size(), sequential.matches.size());
      auto it_p = parallel.matches.begin();
      auto it_s = sequential.matches.begin();
      for (; it_s != sequential.matches.end(); ++it_p, ++it_s) {
        EXPECT_EQ(it_p->ids, it_s->ids);
      }
    }
  }
  // The one-window stream: its window was marked on the calling thread.
  evaluate(short_stream, 4);
  EXPECT_EQ(marked_by[0], std::this_thread::get_id());
  const PipelineResult none = evaluate(empty, 4);
  EXPECT_TRUE(none.marked_ids.empty());
  EXPECT_EQ(none.total_events, 0u);
}

TEST(Determinism, EventNetworkMarksAreThreadCountInvariant) {
  ExpectThreadCountInvariance(FilterKind::kEventNetwork);
}

TEST(Determinism, WindowNetworkMarksAreThreadCountInvariant) {
  ExpectThreadCountInvariance(FilterKind::kWindowNetwork);
}

// MultiPatternDlacep::Evaluate runs the pipeline's filtration pass, so
// it honors num_threads with the same byte-identity contract.
TEST(Determinism, MultiPatternMarksAreThreadCountInvariant) {
  const EventStream train = SmallStream(800, 208);
  const EventStream test = SmallStream(400, 209);
  std::vector<Pattern> patterns;
  patterns.push_back(TestPattern(train.schema_ptr()));
  {
    PatternBuilder b(train.schema_ptr());
    auto root = b.Seq(b.Prim("C", "c"), b.Prim("D", "d"));
    patterns.push_back(b.BuildOrDie(std::move(root), WindowSpec::Count(6)));
  }

  auto evaluate = [&](size_t num_threads) {
    DlacepConfig config;
    config.network.hidden_dim = 6;
    config.network.num_layers = 1;
    config.train.max_epochs = 4;
    config.num_threads = num_threads;
    MultiPatternDlacep system(patterns, train, config);
    return system.Evaluate(test);
  };

  const MultiPatternResult sequential = evaluate(1);
  ASSERT_EQ(sequential.per_pattern.size(), patterns.size());
  for (const size_t num_threads : {size_t{0}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("num_threads=" + std::to_string(num_threads));
    const MultiPatternResult parallel = evaluate(num_threads);
    EXPECT_EQ(parallel.marked_ids, sequential.marked_ids);
    EXPECT_EQ(parallel.marked_events, sequential.marked_events);
    ASSERT_EQ(parallel.per_pattern.size(), sequential.per_pattern.size());
    for (size_t p = 0; p < patterns.size(); ++p) {
      ASSERT_EQ(parallel.per_pattern[p].size(),
                sequential.per_pattern[p].size());
      auto it_p = parallel.per_pattern[p].begin();
      for (const Match& match : sequential.per_pattern[p]) {
        EXPECT_EQ(it_p->ids, match.ids);
        ++it_p;
      }
    }
  }
}

TEST(Determinism, RngStreamsAreStableAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
  EXPECT_DOUBLE_EQ(Rng(7).Normal(), Rng(7).Normal());
  EXPECT_EQ(Rng(9).Permutation(20), Rng(9).Permutation(20));
}

}  // namespace
}  // namespace dlacep
