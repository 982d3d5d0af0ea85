// End-to-end and component tests of the DLACEP core: assembler coverage,
// featurizer encoding, labeler ground truth, the no-false-positives
// guarantee, oracle-filter recall, pass-through equivalence with ECEP,
// and trained-network pipelines on learnable patterns.

#include <gtest/gtest.h>

#include <map>

#include "cep/oracle.h"
#include "dlacep/acep.h"
#include "dlacep/analysis.h"
#include "dlacep/event_filter.h"
#include "dlacep/extractor.h"
#include "dlacep/oracle_filter.h"
#include "dlacep/pipeline.h"
#include "dlacep/window_filter.h"
#include "pattern/builder.h"
#include "test_util.h"

namespace dlacep {
namespace {

using testing_util::AscendingSeqPattern;
using testing_util::SmallStream;

std::span<const Event> SpanOf(const EventStream& stream) {
  return std::span<const Event>(stream.events().data(), stream.size());
}

Pattern TypeOnlySeq(std::shared_ptr<const Schema> schema, size_t window) {
  PatternBuilder builder(std::move(schema));
  auto root = builder.Seq(builder.Prim("A", "a"), builder.Prim("B", "b"),
                          builder.Prim("C", "c"));
  return builder.BuildOrDie(std::move(root), WindowSpec::Count(window));
}

// ---------------------------------------------------------------------
// Assembler.

TEST(InputAssembler, PaperDefaultsCoverEveryWindowPosition) {
  const InputAssembler assembler = InputAssembler::ForWindow(10);
  EXPECT_EQ(assembler.mark_size(), 20u);
  EXPECT_EQ(assembler.step_size(), 10u);
  const auto windows = assembler.Windows(95);
  // Every consecutive run of 10 events must be fully inside some sample.
  for (size_t start = 0; start + 10 <= 95; ++start) {
    bool covered = false;
    for (const WindowRange& w : windows) {
      if (w.begin <= start && start + 10 <= w.end) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "window at " << start << " not covered";
  }
}

TEST(InputAssembler, WindowsAdvanceByStepAndCoverTail) {
  const InputAssembler assembler(8, 3);
  const auto windows = assembler.Windows(20);
  ASSERT_FALSE(windows.empty());
  EXPECT_EQ(windows.front().begin, 0u);
  for (size_t i = 1; i < windows.size(); ++i) {
    EXPECT_EQ(windows[i].begin, windows[i - 1].begin + 3);
  }
  EXPECT_EQ(windows.back().end, 20u);
}

TEST(InputAssembler, EmptyStreamYieldsNoWindows) {
  EXPECT_TRUE(InputAssembler(4, 2).Windows(0).empty());
}

// ---------------------------------------------------------------------
// Featurizer.

TEST(Featurizer, CompactsTypesAndStandardizesAttrs) {
  const EventStream stream = SmallStream(500, 71, /*num_types=*/5);
  const Pattern pattern = TypeOnlySeq(stream.schema_ptr(), 10);
  const Featurizer featurizer(pattern, stream);
  // 3 referenced types + other + blank flag + 1 attribute.
  EXPECT_EQ(featurizer.num_type_slots(), 4u);
  EXPECT_EQ(featurizer.feature_dim(), 7u);

  const Matrix features = featurizer.Encode(stream.View(0, 100));
  EXPECT_EQ(features.rows(), 100u);
  // Each row: exactly one type slot hot, blank flag clear.
  for (size_t t = 0; t < 100; ++t) {
    double hot = 0.0;
    for (size_t s = 0; s < 4; ++s) hot += features(t, s);
    EXPECT_DOUBLE_EQ(hot, 1.0);
    EXPECT_DOUBLE_EQ(features(t, 4), 0.0);
  }
  // Standardized attr has ~zero mean on the fitting stream.
  const Matrix all = featurizer.Encode(SpanOf(stream));
  double mean = 0.0;
  for (size_t t = 0; t < all.rows(); ++t) mean += all(t, 5);
  mean /= static_cast<double>(all.rows());
  EXPECT_NEAR(mean, 0.0, 1e-9);
}

// Signatures are not capped at 64 sets: 70 pairwise-disjoint sets
// {2k, 2k+1} give 70 slots, slot k shared by both members of set k
// (first appearance over sorted type ids), and every other type falls
// into the shared "other" slot.
TEST(Featurizer, CompactsMoreThanSixtyFourTypeSets) {
  constexpr size_t kSets = 70;
  auto schema = MakeSyntheticSchema(2 * kSets + 5, 1);
  std::vector<std::vector<TypeId>> type_sets;
  for (size_t k = kSets; k-- > 0;) {  // input order must not matter
    type_sets.push_back({static_cast<TypeId>(2 * k),
                         static_cast<TypeId>(2 * k + 1)});
  }
  EventStream stream(schema);
  for (size_t type = 0; type < 2 * kSets + 5; ++type) {
    stream.Append(static_cast<TypeId>(type), static_cast<double>(type),
                  {1.0 + static_cast<double>(type)});
  }
  const Featurizer featurizer(type_sets, stream);
  EXPECT_EQ(featurizer.num_type_slots(), kSets + 1);

  const Matrix features = featurizer.Encode(SpanOf(stream));
  for (size_t type = 0; type < stream.size(); ++type) {
    const size_t slot = type < 2 * kSets ? type / 2 : kSets;
    for (size_t s = 0; s < featurizer.num_type_slots(); ++s) {
      EXPECT_EQ(features(type, s), s == slot ? 1.0 : 0.0)
          << "type " << type << " slot " << s;
    }
  }
}

TEST(Featurizer, BlankEventsEncodeAsBlankFlag) {
  auto schema = MakeSyntheticSchema(3, 1);
  EventStream stream(schema);
  stream.Append(0, 0.0, {1.0});
  stream.AppendBlank(1.0);
  PatternBuilder builder(schema);
  auto root = builder.Seq(builder.Prim("A", "a"), builder.Prim("B", "b"));
  const Pattern pattern =
      builder.BuildOrDie(std::move(root), WindowSpec::Count(4));
  const Featurizer featurizer(pattern, stream);
  const Matrix features = featurizer.Encode(stream.View(0, 2));
  const size_t blank_col = featurizer.num_type_slots();
  EXPECT_DOUBLE_EQ(features(0, blank_col), 0.0);
  EXPECT_DOUBLE_EQ(features(1, blank_col), 1.0);
  for (size_t j = 0; j < features.cols(); ++j) {
    if (j != blank_col) {
      EXPECT_DOUBLE_EQ(features(1, j), 0.0);
    }
  }
}

// ---------------------------------------------------------------------
// Labeler.

TEST(SampleLabeler, LabelsExactlyTheMatchParticipants) {
  const EventStream stream = SmallStream(120, 72);
  const Pattern pattern = TypeOnlySeq(stream.schema_ptr(), 8);
  const SampleLabeler labeler(pattern);
  const WindowRange range{10, 26};
  const LabeledSample sample = labeler.Label(stream, range);

  // Reference: run the independent oracle and collect participant ids.
  const MatchSet matches =
      EnumerateAllMatches(pattern, stream.View(range.begin, range.size()));
  std::set<EventId> participants;
  for (const Match& m : matches) {
    participants.insert(m.ids.begin(), m.ids.end());
  }
  EXPECT_EQ(sample.window_label, matches.empty() ? 0 : 1);
  EXPECT_EQ(sample.num_matches, matches.size());
  for (size_t t = 0; t < range.size(); ++t) {
    const EventId id = stream[range.begin + t].id;
    EXPECT_EQ(sample.event_labels[t], participants.count(id) > 0 ? 1 : 0)
        << "position " << t;
  }
}

TEST(SampleLabeler, NegationAwareLabelingMarksNegatedTypes) {
  const EventStream stream = SmallStream(60, 73);
  PatternBuilder builder(stream.schema_ptr());
  auto root = builder.Seq(builder.Prim("A", "a"),
                          builder.Neg(builder.Prim("C", "nc")),
                          builder.Prim("B", "b"));
  const Pattern pattern =
      builder.BuildOrDie(std::move(root), WindowSpec::Count(8));
  const SampleLabeler labeler(pattern);
  const LabeledSample sample = labeler.Label(stream, WindowRange{0, 30});
  for (size_t t = 0; t < 30; ++t) {
    if (stream[t].type == stream.schema().TypeIdOf("C").value()) {
      EXPECT_EQ(sample.event_labels[t], 1) << "negated type at " << t;
    }
  }
}

// ---------------------------------------------------------------------
// Pipeline with perfect-knowledge filters.

TEST(Pipeline, OracleFilterAchievesFullRecallAndNoFalsePositives) {
  const EventStream train = SmallStream(400, 74);
  const EventStream test = SmallStream(400, 75);
  const Pattern pattern = TypeOnlySeq(train.schema_ptr(), 8);

  DlacepConfig config;
  BuiltDlacep built =
      BuildDlacep(pattern, train, FilterKind::kOracle, config);
  const ComparisonResult comparison =
      built.pipeline->CompareWithEcep(test);

  EXPECT_EQ(comparison.quality.recall, 1.0);
  EXPECT_EQ(comparison.quality.precision, 1.0);
  EXPECT_GT(comparison.exact_matches.size(), 0u);
  EXPECT_GT(comparison.dlacep.filtering_ratio(), 0.0);
}

TEST(OracleFilter, PatternSetMarksAreTheOrOfPerPatternMarks) {
  const EventStream stream = SmallStream(300, 11);
  const std::vector<Pattern> patterns = {
      AscendingSeqPattern(stream.schema_ptr(), 2, 8),
      AscendingSeqPattern(stream.schema_ptr(), 3, 12, /*first_type=*/2)};
  const OracleFilter set_filter(patterns);
  const OracleFilter first(patterns[0]);
  const OracleFilter second(patterns[1]);
  bool second_adds = false;
  for (size_t begin = 0; begin + 24 <= stream.size(); begin += 12) {
    const WindowRange range{begin, begin + 24};
    const std::vector<int> a = first.Mark(stream, range);
    const std::vector<int> b = second.Mark(stream, range);
    std::vector<int> expected(a.size());
    for (size_t t = 0; t < a.size(); ++t) {
      expected[t] = a[t] | b[t];
      second_adds |= b[t] != 0 && a[t] == 0;
    }
    EXPECT_EQ(set_filter.Mark(stream, range), expected) << "at " << begin;
  }
  // Not vacuous: the second pattern marks events the first does not.
  EXPECT_TRUE(second_adds);
}

TEST(Pipeline, PassThroughFilterReproducesEcepExactly) {
  const EventStream train = SmallStream(300, 76);
  const EventStream test = SmallStream(300, 77);
  const Pattern pattern = TypeOnlySeq(train.schema_ptr(), 10);

  DlacepConfig config;
  BuiltDlacep built =
      BuildDlacep(pattern, train, FilterKind::kPassThrough, config);
  const ComparisonResult comparison =
      built.pipeline->CompareWithEcep(test);
  EXPECT_EQ(comparison.quality.recall, 1.0);
  EXPECT_EQ(comparison.quality.precision, 1.0);
  EXPECT_EQ(comparison.dlacep.filtering_ratio(), 0.0);
}

// Regression: marked_events used to be copied from
// cep_stats.events_processed, which is counted after the extractor
// drops blanks — a stream with blank (padding) events then over-reported
// the filtering ratio Ψ even though the filter relayed everything.
TEST(Pipeline, FilteringRatioCountsRelayedBlanks) {
  auto schema = MakeSyntheticSchema(3, 1);
  EventStream stream(schema);
  for (int i = 0; i < 40; ++i) {
    if (i % 4 == 3) {
      stream.AppendBlank(static_cast<double>(i));
    } else {
      stream.Append(static_cast<TypeId>(i % 3), static_cast<double>(i),
                    {0.0});
    }
  }
  const Pattern pattern = TypeOnlySeq(stream.schema_ptr(), 8);
  DlacepConfig config;
  DlacepPipeline pipeline(pattern, std::make_unique<PassThroughFilter>(),
                          config);
  const PipelineResult result = pipeline.Evaluate(stream);

  // Pass-through relays every event, blanks included: Ψ measures
  // filtration, not what the engine later processed.
  EXPECT_EQ(result.marked_events, stream.size());
  EXPECT_EQ(result.filtering_ratio(), 0.0);
  // The extractor still drops the 10 blanks before the engine runs.
  EXPECT_EQ(result.cep_stats.events_processed, stream.size() - 10);
  // Overlapping assembler windows re-mark interior events: the raw mark
  // vector is longer than the deduplicated count.
  EXPECT_GT(result.marked_ids.size(), result.marked_events);
}

// Regression: with the default overlapping geometry (mark = 2w, step =
// w) the merge loop used to relay every covering window's copy of a
// marked event into the extractor feed — roughly doubling the
// extractor's input. The extractor sorts by id and drops duplicates
// before evaluating, so deduplicating at the merge changes neither the
// match set nor the engine work counters; this test feeds the
// historical duplicate-inclusive list to a reference extractor and
// checks the pipeline (deduped feed) agrees on all of it.
TEST(Pipeline, MergeDedupsExtractorInputWithoutChangingResults) {
  const EventStream stream = SmallStream(400, 78);
  const Pattern pattern = TypeOnlySeq(stream.schema_ptr(), 8);
  DlacepConfig config;  // paper-default overlap: every interior event
                        // is covered by two windows
  DlacepPipeline pipeline(pattern, std::make_unique<PassThroughFilter>(),
                          config);
  const PipelineResult result = pipeline.Evaluate(stream);

  // The merged mark sequence stays duplicate-inclusive by contract —
  // only the extractor feed is deduplicated.
  ASSERT_GT(result.marked_ids.size(), result.marked_events);

  std::map<EventId, const Event*> by_id;
  for (const Event& e : stream.events()) by_id[e.id] = &e;
  std::vector<const Event*> duplicated;
  duplicated.reserve(result.marked_ids.size());
  for (const EventId id : result.marked_ids) {
    duplicated.push_back(by_id.at(id));
  }
  CepExtractor reference(pattern);
  MatchSet ref_matches;
  ASSERT_TRUE(reference.Extract(std::move(duplicated), &ref_matches).ok());

  EXPECT_EQ(result.matches.size(), ref_matches.size());
  EXPECT_EQ(result.matches.IntersectionSize(ref_matches),
            ref_matches.size());
  EXPECT_EQ(result.cep_stats.events_processed,
            reference.stats().events_processed);
  EXPECT_EQ(result.cep_stats.partial_matches,
            reference.stats().partial_matches);
}

// Property: for NEG-free patterns DLACEP can never invent a match,
// whatever the filter marks (here: adversarial random marks).
class RandomMarkFilter : public StreamFilter {
 public:
  explicit RandomMarkFilter(uint64_t seed) : seed_(seed) {}
  std::string name() const override { return "random"; }
  std::vector<int> Mark(const EventStream&,
                        WindowRange range) const override {
    // Per-window generator: Mark must be re-entrant (see filter.h).
    Rng rng(seed_ ^ (0x9e3779b97f4a7c15ULL *
                     (static_cast<uint64_t>(range.begin) + 1)));
    std::vector<int> marks(range.size());
    for (auto& m : marks) m = rng.Bernoulli(0.5) ? 1 : 0;
    return marks;
  }

 private:
  uint64_t seed_;
};

class NoFalsePositives : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NoFalsePositives, RandomMarksAreSubsetOfExact) {
  const EventStream stream = SmallStream(250, GetParam());
  const Pattern pattern = TypeOnlySeq(stream.schema_ptr(), 9);
  DlacepConfig config;
  DlacepPipeline pipeline(
      pattern, std::make_unique<RandomMarkFilter>(GetParam()), config);
  const PipelineResult result = pipeline.Evaluate(stream);
  const MatchSet exact = EnumerateAllMatches(pattern, SpanOf(stream));
  for (const Match& m : result.matches) {
    EXPECT_TRUE(exact.Contains(m)) << "false positive " << m.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NoFalsePositives,
                         ::testing::Values(uint64_t{81}, uint64_t{82},
                                           uint64_t{83}, uint64_t{84},
                                           uint64_t{85}));

// ---------------------------------------------------------------------
// Trained-network pipelines on a type-separable pattern.

TEST(Pipeline, TrainedEventNetworkReachesHighRecall) {
  const EventStream train = SmallStream(2500, 91);
  const EventStream test = SmallStream(600, 92);
  const Pattern pattern = TypeOnlySeq(train.schema_ptr(), 8);

  DlacepConfig config;
  config.network.hidden_dim = 12;
  config.network.num_layers = 1;
  config.train.max_epochs = 50;

  BuiltDlacep built =
      BuildDlacep(pattern, train, FilterKind::kEventNetwork, config);
  EXPECT_GT(built.test_metrics.f1(), 0.7)
      << "P=" << built.test_metrics.precision()
      << " R=" << built.test_metrics.recall();

  const ComparisonResult comparison =
      built.pipeline->CompareWithEcep(test);
  EXPECT_GT(comparison.quality.recall, 0.6);
  EXPECT_EQ(comparison.quality.precision, 1.0);  // NEG-free: subset
}

TEST(Pipeline, TrainedWindowNetworkMarksWholeWindows) {
  const EventStream train = SmallStream(2500, 93, /*num_types=*/8);
  const EventStream test = SmallStream(600, 94, /*num_types=*/8);
  // SEQ over rare types: many windows are inapplicable, so the window
  // network has something to filter.
  PatternBuilder builder(train.schema_ptr());
  auto root = builder.Seq(builder.Prim("G", "g"), builder.Prim("H", "h"));
  const Pattern pattern =
      builder.BuildOrDie(std::move(root), WindowSpec::Count(6));

  DlacepConfig config;
  config.network.hidden_dim = 12;
  config.network.num_layers = 1;
  config.train.max_epochs = 40;

  BuiltDlacep built =
      BuildDlacep(pattern, train, FilterKind::kWindowNetwork, config);
  const ComparisonResult comparison =
      built.pipeline->CompareWithEcep(test);
  EXPECT_GT(comparison.quality.recall, 0.8);
  EXPECT_EQ(comparison.quality.precision, 1.0);
}

// ---------------------------------------------------------------------
// ACEP formal artifacts.

TEST(AcepModel, PhiMatchesHandComputedValue) {
  // Two positions, rates 0.1 and 0.2, selectivity 0.5 between them,
  // unary selectivities 1: Φ = W·0.1 + W²·0.1·0.2·0.5.
  const std::vector<double> rates = {0.1, 0.2};
  std::vector<std::vector<double>> sel(2, std::vector<double>(2, 1.0));
  sel[0][1] = sel[1][0] = 0.5;
  const double phi = PhiExpectedPartialMatches(10, rates, sel);
  EXPECT_NEAR(phi, 10 * 0.1 + 100 * 0.1 * 0.2 * 0.5, 1e-12);
}

TEST(AcepModel, FilteringReducesPredictedCost) {
  const EventStream stream = SmallStream(400, 95);
  const Pattern pattern = TypeOnlySeq(stream.schema_ptr(), 12);
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());
  const LinearPlan& plan = plans.value()[0];
  const double ecep = EstimateEcepCost(plan, SpanOf(stream), 12, 7);
  const double acep = EstimateAcepCost(plan, SpanOf(stream), 12,
                                       {0.2, 0.2, 0.2}, /*filter=*/1.0, 7);
  EXPECT_GT(ecep, 0.0);
  EXPECT_LT(acep - 1.0, ecep);  // filtered Φ strictly below unfiltered
}

TEST(AcepModel, ObjectivePrefersBetterSystems) {
  MatchSet exact;
  exact.Insert(Match({1, 2}));
  exact.Insert(Match({3, 4}));
  MatchSet perfect = exact;
  MatchSet partial;
  partial.Insert(Match({1, 2}));
  const double good = AcepObjective(exact, perfect, 10.0, 0.5, 0.5);
  const double bad = AcepObjective(exact, partial, 10.0, 0.5, 0.5);
  EXPECT_LT(good, bad);
}

// ---------------------------------------------------------------------
// Qualitative analysis.

TEST(Analysis, VarianceSummarySeparatesDetectedFromMissed) {
  const EventStream stream = SmallStream(200, 96);
  const Pattern pattern = TypeOnlySeq(stream.schema_ptr(), 10);
  const MatchSet exact = EnumerateAllMatches(pattern, SpanOf(stream));
  ASSERT_GT(exact.size(), 4u);

  // Miss exactly the highest-variance half.
  std::vector<std::pair<double, Match>> scored;
  for (const Match& m : exact) {
    scored.emplace_back(MatchAttrVariance(m, stream, 0), m);
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  MatchSet approx;
  for (size_t i = 0; i < scored.size() / 2; ++i) {
    approx.Insert(scored[i].second);
  }

  const VarianceSummary summary =
      SummarizeVariance(exact, approx, stream, 0);
  EXPECT_GT(summary.undetected_mean, summary.detected_mean);
  EXPECT_EQ(summary.detected_count + summary.undetected_count,
            exact.size());

  const auto buckets = VarianceDistribution(exact, approx, stream, 0, 5);
  size_t total = 0;
  for (const auto& bucket : buckets) {
    total += bucket.detected + bucket.undetected;
  }
  EXPECT_EQ(total, exact.size());
}

}  // namespace
}  // namespace dlacep
