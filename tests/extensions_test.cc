// Tests for the extension modules: load-shedding baseline filters,
// concept-drift monitoring + adaptive retraining, and multi-pattern
// monitoring with a shared filter.

#include <gtest/gtest.h>

#include "cep/oracle.h"
#include "dlacep/assembler.h"
#include "dlacep/drift.h"
#include "dlacep/extractor.h"
#include "dlacep/multi_pattern.h"
#include "dlacep/padding.h"
#include "dlacep/pipeline.h"
#include "dlacep/shedding_filter.h"
#include "pattern/builder.h"
#include "test_util.h"

namespace dlacep {
namespace {

using testing_util::SmallStream;

Pattern TypeOnlySeq(std::shared_ptr<const Schema> schema, size_t window) {
  PatternBuilder builder(std::move(schema));
  auto root = builder.Seq(builder.Prim("A", "a"), builder.Prim("B", "b"),
                          builder.Prim("C", "c"));
  return builder.BuildOrDie(std::move(root), WindowSpec::Count(window));
}

// ---------------------------------------------------------------------
// Shedding filters.

TEST(SheddingFilters, RandomSheddingKeepsRequestedFraction) {
  const EventStream stream = SmallStream(1000, 61);
  RandomSheddingFilter filter(0.3, 7);
  size_t kept = 0;
  for (const WindowRange& range : CountWindows(stream.size(), 50, 50)) {
    for (int m : filter.Mark(stream, range)) kept += m;
  }
  EXPECT_NEAR(static_cast<double>(kept) / 1000.0, 0.3, 0.06);
}

TEST(SheddingFilters, TypeSheddingKeepsExactlyRelevantTypes) {
  const EventStream stream = SmallStream(300, 62, /*num_types=*/6);
  const Pattern pattern = TypeOnlySeq(stream.schema_ptr(), 8);
  TypeSheddingFilter filter(pattern);
  const WindowRange range{0, 300};
  const std::vector<int> marks = filter.Mark(stream, range);
  for (size_t t = 0; t < 300; ++t) {
    const bool relevant = stream[t].type <= 2;  // A, B, C
    EXPECT_EQ(marks[t], relevant ? 1 : 0) << "at " << t;
  }
}

TEST(SheddingFilters, TypeSheddingLosesNoMatches) {
  const EventStream stream = SmallStream(400, 63, /*num_types=*/6);
  const Pattern pattern = TypeOnlySeq(stream.schema_ptr(), 8);
  DlacepConfig config;
  DlacepPipeline pipeline(
      pattern, std::make_unique<TypeSheddingFilter>(pattern), config);
  const PipelineResult result = pipeline.Evaluate(stream);
  const MatchSet exact = EnumerateAllMatches(
      pattern, {stream.events().data(), stream.size()});
  EXPECT_EQ(result.matches.size(), exact.size());
  EXPECT_GT(result.filtering_ratio(), 0.3);  // 3 of 6 types dropped
}

TEST(SheddingFilters, RandomSheddingLosesMatchesAtEqualRatio) {
  // The headline claim behind learned filtration: at a comparable
  // filtering ratio, content-blind shedding loses many matches.
  const EventStream stream = SmallStream(400, 64);
  const Pattern pattern = TypeOnlySeq(stream.schema_ptr(), 8);
  DlacepConfig config;
  DlacepPipeline pipeline(
      pattern, std::make_unique<RandomSheddingFilter>(0.5, 9), config);
  const PipelineResult result = pipeline.Evaluate(stream);
  const MatchSet exact = EnumerateAllMatches(
      pattern, {stream.events().data(), stream.size()});
  ASSERT_GT(exact.size(), 10u);
  const MatchSetMetrics quality = CompareMatchSets(exact, result.matches);
  EXPECT_LT(quality.recall, 0.6);   // heavy loss
  EXPECT_EQ(quality.precision, 1.0);  // still no false positives
}

// ---------------------------------------------------------------------
// Drift monitoring.

TEST(DriftMonitor, FiresOnlyOutsideToleranceAfterWarmup) {
  DriftMonitor monitor(/*reference_rate=*/0.5, /*tolerance=*/0.2,
                       /*window_budget=*/3);
  const std::vector<int> half = {1, 0, 1, 0};
  EXPECT_FALSE(monitor.Observe(half));  // warm-up
  EXPECT_FALSE(monitor.Observe(half));
  EXPECT_FALSE(monitor.Observe(half));  // rate 0.5 — in band
  const std::vector<int> none = {0, 0, 0, 0};
  EXPECT_FALSE(monitor.Observe(none));  // rate 0.33 — still in band
  EXPECT_TRUE(monitor.Observe(none));   // rate 0.17 — drift
  monitor.ResetReference();
  EXPECT_FALSE(monitor.Observe(none));  // re-anchored
}

TEST(DriftMonitor, ObservedRateTracksSlidingBudget) {
  DriftMonitor monitor(0.0, 1.0, 2);
  monitor.Observe({1, 1});
  monitor.Observe({0, 0});
  EXPECT_DOUBLE_EQ(monitor.observed_rate(), 0.5);
  monitor.Observe({0, 0});  // {1,1} slides out
  EXPECT_DOUBLE_EQ(monitor.observed_rate(), 0.0);
}

TEST(AdaptiveRetraining, RetrainsOnInjectedDriftAndKeepsExtracting) {
  // Train on a stream where the pattern types are common, then evaluate
  // on a stream whose type distribution shifted (types remapped), which
  // starves the filter and trips the marking-rate monitor.
  const EventStream train = SmallStream(1500, 65);
  const Pattern pattern = TypeOnlySeq(train.schema_ptr(), 8);

  DlacepConfig config;
  config.network.hidden_dim = 8;
  config.network.num_layers = 1;
  config.train.max_epochs = 8;

  const Featurizer featurizer(pattern, train);
  EventNetworkFilter filter(&featurizer, config.network,
                            config.event_threshold);
  const InputAssembler assembler = InputAssembler::ForWindow(8);
  const FilterDataset dataset =
      BuildFilterDataset(pattern, train, assembler, featurizer, 0.9, 17);
  filter.Fit(dataset.train_event, config.train);

  // Drifted stream: far fewer A/B/C events (types shifted up by 2).
  SyntheticConfig drifted_config;
  drifted_config.num_events = 1200;
  drifted_config.num_types = 5;
  drifted_config.seed = 66;
  EventStream drifted = GenerateSynthetic(drifted_config);

  DriftMonitor monitor(/*reference_rate=*/0.9, /*tolerance=*/0.15,
                       /*window_budget=*/5);
  const AdaptiveResult result = EvaluateWithRetraining(
      pattern, &filter, featurizer, drifted, &monitor,
      /*retrain_events=*/400, config);
  // The monitor must have fired at least once and triggered fine-tuning.
  EXPECT_GE(result.drifts_detected, 1u);
  EXPECT_GE(result.retrainings, 1u);
  // Output must still be a subset of the exact matches (NEG-free).
  const MatchSet exact = EnumerateAllMatches(
      pattern, {drifted.events().data(), drifted.size()});
  for (const Match& m : result.matches) {
    EXPECT_TRUE(exact.Contains(m));
  }
}

// ---------------------------------------------------------------------
// Padding (time-based window simulation).

TEST(Padding, RandomWindowsProduceFixedSizeChunks) {
  const EventStream source = SmallStream(100, 71);
  const EventStream padded = PadRandomWindows(source, 8, 3);
  EXPECT_EQ(padded.size() % 8, 0u);
  // Every real event survives, in order.
  std::vector<TypeId> original;
  for (const Event& e : source) original.push_back(e.type);
  std::vector<TypeId> kept;
  for (const Event& e : padded) {
    if (!e.is_blank()) kept.push_back(e.type);
  }
  EXPECT_EQ(kept, original);
  EXPECT_GT(PaddingRatio(padded), 0.0);
  EXPECT_LT(PaddingRatio(padded), 0.6);
}

TEST(Padding, TimeWindowsRespectTheSpan) {
  auto schema = MakeSyntheticSchema(2, 1);
  EventStream source(schema);
  for (double ts : {0.0, 1.0, 2.0, 10.0, 11.0, 30.0}) {
    source.Append(0, ts, {0.0});
  }
  const EventStream padded = PadTimeWindows(source, 2.5, 4);
  // Three windows: {0,1,2}, {10,11}, {30} — each padded to 4.
  EXPECT_EQ(padded.size(), 12u);
  // Window boundaries: positions 3, 6-7, 9-11 are blanks.
  EXPECT_TRUE(padded[3].is_blank());
  EXPECT_FALSE(padded[4].is_blank());
  EXPECT_TRUE(padded[6].is_blank());
  EXPECT_TRUE(padded[7].is_blank());
  EXPECT_FALSE(padded[8].is_blank());
  EXPECT_TRUE(padded[11].is_blank());
}

TEST(Padding, EmptyStreamStaysEmpty) {
  auto schema = MakeSyntheticSchema(2, 1);
  const EventStream empty(schema);
  EXPECT_EQ(PadRandomWindows(empty, 4, 1).size(), 0u);
  EXPECT_EQ(PadTimeWindows(empty, 1.0, 4).size(), 0u);
  EXPECT_DOUBLE_EQ(PaddingRatio(empty), 0.0);
}

// ---------------------------------------------------------------------
// Multi-pattern monitoring.

TEST(MultiPattern, SharedFilterServesBothPatternsWithoutFalsePositives) {
  const EventStream train = SmallStream(2500, 67);
  const EventStream test = SmallStream(700, 68);
  auto schema = train.schema_ptr();

  std::vector<Pattern> patterns;
  patterns.push_back(TypeOnlySeq(schema, 8));
  {
    PatternBuilder b(schema);
    auto root = b.Seq(b.Prim("D", "d"), b.Prim("E", "e"));
    patterns.push_back(b.BuildOrDie(std::move(root), WindowSpec::Count(6)));
  }

  DlacepConfig config;
  config.network.hidden_dim = 12;
  config.network.num_layers = 1;
  config.train.max_epochs = 45;
  config.event_threshold = 0.35;

  MultiPatternDlacep system(patterns, train, config);
  MultiPatternResult result = system.Evaluate(test);
  ASSERT_EQ(result.per_pattern.size(), 2u);

  for (size_t p = 0; p < patterns.size(); ++p) {
    const MatchSet exact = EnumerateAllMatches(
        patterns[p], {test.events().data(), test.size()});
    for (const Match& m : result.per_pattern[p]) {
      EXPECT_TRUE(exact.Contains(m)) << "pattern " << p;
    }
    // The unified filter must preserve a reasonable share of each
    // pattern's matches.
    const MatchSetMetrics quality =
        CompareMatchSets(exact, result.per_pattern[p]);
    EXPECT_GT(quality.recall, 0.5) << "pattern " << p;
  }
  EXPECT_GT(result.filtering_ratio(), 0.0);
}

TEST(MultiPattern, FastPathEvaluateMatchesLegacyTapeMarking) {
  // Evaluate now marks through the frozen-cell fast path (MarkWith /
  // MarkBatchWith); the autograd-tape Mark per window is the reference
  // it must reproduce bit for bit.
  const EventStream train = SmallStream(1200, 71);
  const EventStream test = SmallStream(500, 72);
  auto schema = train.schema_ptr();

  std::vector<Pattern> patterns;
  patterns.push_back(TypeOnlySeq(schema, 8));
  {
    PatternBuilder b(schema);
    auto root = b.Seq(b.Prim("D", "d"), b.Prim("E", "e"));
    patterns.push_back(b.BuildOrDie(std::move(root), WindowSpec::Count(6)));
  }

  DlacepConfig config;
  config.network.hidden_dim = 8;
  config.network.num_layers = 1;
  config.train.max_epochs = 5;
  MultiPatternDlacep system(patterns, train, config);

  const InputAssembler assembler(2 * system.max_window(),
                                 system.max_window());
  std::vector<const Event*> marked;
  for (const WindowRange& range : assembler.Windows(test.size())) {
    const std::vector<int> marks = system.filter()->Mark(test, range);
    for (size_t t = 0; t < marks.size(); ++t) {
      if (marks[t] != 0) marked.push_back(&test[range.begin + t]);
    }
  }
  std::vector<MatchSet> reference(patterns.size());
  for (size_t p = 0; p < patterns.size(); ++p) {
    CepExtractor extractor(patterns[p]);
    ASSERT_TRUE(extractor.Extract(marked, &reference[p]).ok());
  }

  const MultiPatternResult result = system.Evaluate(test);
  ASSERT_EQ(result.per_pattern.size(), patterns.size());
  for (size_t p = 0; p < patterns.size(); ++p) {
    EXPECT_EQ(result.per_pattern[p].size(), reference[p].size())
        << "pattern=" << p;
    EXPECT_EQ(result.per_pattern[p].IntersectionSize(reference[p]),
              reference[p].size())
        << "pattern=" << p;
  }
}

/// The two patterns of the multi-pattern tests: TypeOnlySeq(8) and
/// SEQ(D, E) within 6.
std::vector<Pattern> TwoPatterns(std::shared_ptr<const Schema> schema) {
  std::vector<Pattern> patterns;
  patterns.push_back(TypeOnlySeq(schema, 8));
  PatternBuilder b(schema);
  auto root = b.Seq(b.Prim("D", "d"), b.Prim("E", "e"));
  patterns.push_back(b.BuildOrDie(std::move(root), WindowSpec::Count(6)));
  return patterns;
}

DlacepConfig SmallMultiConfig() {
  DlacepConfig config;
  config.network.hidden_dim = 6;
  config.network.num_layers = 1;
  config.train.max_epochs = 4;
  return config;
}

// Regression: marked_events used to be the extractor's events_processed,
// which drops blank events, while PipelineResult::marked_events counts
// deduplicated stream positions with blanks included — so the two
// filtering ratios meant different things on a padded stream.
TEST(MultiPattern, MarkedEventsCountRelayedBlanksLikeThePipeline) {
  const EventStream train = SmallStream(600, 73);
  const EventStream test = PadTimeWindows(SmallStream(300, 74), 2.5, 4);
  ASSERT_GT(PaddingRatio(test), 0.0);

  DlacepConfig config = SmallMultiConfig();
  config.event_threshold = 0.0;  // every marginal passes: mark everything
  MultiPatternDlacep system(TwoPatterns(train.schema_ptr()), train, config);
  const MultiPatternResult result = system.Evaluate(test);
  EXPECT_EQ(result.total_events, test.size());
  EXPECT_EQ(result.marked_events, result.total_events);
  EXPECT_EQ(result.filtering_ratio(), 0.0);
}

// MultiPatternDlacep is single-pattern DLACEP over a pattern set: over
// one pattern it trains and evaluates exactly what BuildDlacep does.
TEST(MultiPattern, OnePatternEqualsBuildDlacep) {
  const EventStream train = SmallStream(800, 75);
  const EventStream test = SmallStream(400, 76);
  const Pattern pattern = TypeOnlySeq(train.schema_ptr(), 8);
  DlacepConfig config = SmallMultiConfig();
  config.oversample_positive = 3;

  BuiltDlacep built =
      BuildDlacep(pattern, train, FilterKind::kEventNetwork, config);
  MultiPatternDlacep multi({pattern}, train, config);

  auto& single = dynamic_cast<EventNetworkFilter&>(built.pipeline->filter());
  const std::vector<Parameter*> a = single.Params();
  const std::vector<Parameter*> b =
      const_cast<EventNetworkFilter*>(multi.filter())->Params();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i]->name, b[i]->name);
    EXPECT_EQ(a[i]->value.MaxAbsDiff(b[i]->value), 0.0) << a[i]->name;
  }
  EXPECT_EQ(built.test_metrics.true_positives,
            multi.test_metrics().true_positives);
  EXPECT_EQ(built.test_metrics.false_positives,
            multi.test_metrics().false_positives);
  EXPECT_EQ(built.test_metrics.false_negatives,
            multi.test_metrics().false_negatives);
  EXPECT_EQ(built.test_metrics.true_negatives,
            multi.test_metrics().true_negatives);

  for (const WindowRange& range :
       built.pipeline->assembler().Windows(test.size())) {
    EXPECT_EQ(single.Mark(test, range), multi.filter()->Mark(test, range))
        << "window at " << range.begin;
  }
  const PipelineResult one = built.pipeline->Evaluate(test);
  const MultiPatternResult many = multi.Evaluate(test);
  EXPECT_EQ(many.marked_ids, one.marked_ids);
  EXPECT_EQ(many.marked_events, one.marked_events);
  ASSERT_EQ(many.per_pattern.size(), 1u);
  ASSERT_EQ(many.per_pattern[0].size(), one.matches.size());
  auto it = many.per_pattern[0].begin();
  for (const Match& match : one.matches) {
    EXPECT_EQ(it->ids, match.ids);
    ++it;
  }
}

// The unified dataset of a pattern set encodes the same windows with the
// same split as each pattern's own dataset, and ORs their labels.
TEST(MultiPattern, UnifiedDatasetOrsPerPatternLabels) {
  const EventStream train = SmallStream(600, 77);
  const std::vector<Pattern> patterns = TwoPatterns(train.schema_ptr());
  std::vector<std::vector<TypeId>> type_sets;
  for (const Pattern& pattern : patterns) {
    for (auto& set : pattern.PrimitiveTypeSets()) type_sets.push_back(set);
  }
  const Featurizer featurizer(type_sets, train);
  const InputAssembler assembler = InputAssembler::ForWindow(8);

  const FilterDataset both =
      BuildFilterDataset(patterns, train, assembler, featurizer, 0.7, 17);
  const FilterDataset first =
      BuildFilterDataset(patterns[0], train, assembler, featurizer, 0.7, 17);
  const FilterDataset second =
      BuildFilterDataset(patterns[1], train, assembler, featurizer, 0.7, 17);

  auto expect_or = [](const std::vector<Sample>& merged,
                      const std::vector<Sample>& a,
                      const std::vector<Sample>& b) {
    ASSERT_EQ(merged.size(), a.size());
    ASSERT_EQ(merged.size(), b.size());
    for (size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(merged[i].features.MaxAbsDiff(a[i].features), 0.0);
      EXPECT_EQ(merged[i].features.MaxAbsDiff(b[i].features), 0.0);
      ASSERT_EQ(merged[i].labels.size(), a[i].labels.size());
      for (size_t t = 0; t < merged[i].labels.size(); ++t) {
        EXPECT_EQ(merged[i].labels[t], a[i].labels[t] | b[i].labels[t])
            << "sample " << i << " position " << t;
      }
    }
  };
  expect_or(both.train_event, first.train_event, second.train_event);
  expect_or(both.test_event, first.test_event, second.test_event);
  expect_or(both.train_window, first.train_window, second.train_window);
  expect_or(both.test_window, first.test_window, second.test_window);
  ASSERT_EQ(both.train_raw.size(), first.train_raw.size());
  size_t positives = 0;
  for (size_t i = 0; i < both.train_raw.size(); ++i) {
    EXPECT_EQ(both.train_raw[i].range.begin, first.train_raw[i].range.begin);
    EXPECT_EQ(both.train_raw[i].num_matches,
              first.train_raw[i].num_matches +
                  second.train_raw[i].num_matches);
    positives += both.train_raw[i].window_label;
  }
  EXPECT_GT(positives, 0u);
}

}  // namespace
}  // namespace dlacep
