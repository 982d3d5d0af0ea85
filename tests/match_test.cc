// Unit tests for matches, match sets (checked against a std::set<Match>
// reference), set metrics, the Φ complexity model, and selectivity
// estimation.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <set>
#include <vector>

#include "cep/engine.h"
#include "cep/match.h"
#include "dlacep/acep.h"
#include "pattern/builder.h"
#include "pattern/selectivity.h"
#include "stream/generator.h"

namespace dlacep {
namespace {

TEST(Match, NormalizesSortsAndDeduplicates) {
  const Match m({5, 1, 3, 1});
  EXPECT_EQ(m.ids, (std::vector<EventId>{1, 3, 5}));
  EXPECT_EQ(m.IdSpan(), 4u);
  EXPECT_EQ(m.ToString(), "{1,3,5}");
}

TEST(MatchSet, InsertDeduplicatesAndMergeUnions) {
  MatchSet set;
  EXPECT_TRUE(set.Insert(Match({1, 2})));
  EXPECT_FALSE(set.Insert(Match({2, 1})));  // same set of ids
  EXPECT_EQ(set.size(), 1u);

  MatchSet other;
  other.Insert(Match({1, 2}));
  other.Insert(Match({3, 4}));
  set.Merge(other);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.IntersectionSize(other), 2u);
}

/// A match of 0..5 ids from a small id range, so repeats, prefixes
/// ({3,4} before {3,4,7}) and varying Kleene lengths are common.
Match RandomMatch(std::mt19937* rng, EventId lo, EventId hi) {
  std::uniform_int_distribution<EventId> id(lo, hi);
  std::uniform_int_distribution<size_t> len(0, 5);
  std::vector<EventId> ids(len(*rng));
  for (EventId& v : ids) v = id(*rng);
  return Match(std::move(ids));
}

std::vector<Match> RandomRun(std::mt19937* rng, size_t n, EventId lo,
                             EventId hi) {
  std::vector<Match> run;
  for (size_t i = 0; i < n; ++i) run.push_back(RandomMatch(rng, lo, hi));
  return run;
}

void ExpectSameSequence(const MatchSet& set, const std::set<Match>& ref) {
  ASSERT_EQ(set.size(), ref.size());
  EXPECT_TRUE(std::equal(set.begin(), set.end(), ref.begin(), ref.end()));
}

TEST(MatchSet, AgreesWithAnOrderedTreeReference) {
  std::mt19937 rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    MatchSet set;
    std::set<Match> ref;
    for (int op = 0; op < 40; ++op) {
      switch (rng() % 4) {
        case 0: {
          const Match m = RandomMatch(&rng, 0, 12);
          EXPECT_EQ(set.Insert(m), ref.insert(m).second);
          break;
        }
        case 1: {
          // A raw engine run: unsorted, with repeats, possibly overlapping
          // every stored match.
          const std::vector<Match> run = RandomRun(&rng, rng() % 20, 0, 12);
          ref.insert(run.begin(), run.end());
          MatchSet other(run);
          if (rng() % 2 == 0) {
            set.Merge(other);
            EXPECT_EQ(other.size(), MatchSet(run).size());
          } else {
            set.Merge(std::move(other));
          }
          break;
        }
        case 2: {
          const Match m = RandomMatch(&rng, 0, 12);
          EXPECT_EQ(set.Contains(m), ref.count(m) > 0);
          break;
        }
        default: {
          const std::vector<Match> run = RandomRun(&rng, rng() % 30, 0, 12);
          const std::set<Match> other_ref(run.begin(), run.end());
          std::vector<Match> common;
          std::set_intersection(ref.begin(), ref.end(), other_ref.begin(),
                                other_ref.end(), std::back_inserter(common));
          const MatchSet other(run);
          EXPECT_EQ(set.IntersectionSize(other), common.size());
          EXPECT_EQ(other.IntersectionSize(set), common.size());
          break;
        }
      }
      ExpectSameSequence(set, ref);
    }
  }
}

TEST(MatchSet, ChunkOrderedMergesEqualOneWholeMerge) {
  // Serve's chunk geometry: run k holds matches whose ids lie in
  // [k*step, k*step + span), so consecutive runs overlap the stored tail
  // by span - step ids: each merge interleaves the run with that tail.
  std::mt19937 rng(7);
  constexpr EventId kSpan = 16;
  constexpr EventId kStep = 9;
  MatchSet chunked;
  std::vector<Match> all;
  for (EventId k = 0; k < 60; ++k) {
    const std::vector<Match> run =
        RandomRun(&rng, 25, k * kStep, k * kStep + kSpan - 1);
    all.insert(all.end(), run.begin(), run.end());
    chunked.Merge(MatchSet(run));
  }
  const std::set<Match> ref(all.begin(), all.end());
  ExpectSameSequence(chunked, ref);
  ExpectSameSequence(MatchSet(all), ref);
  for (const Match& m : ref) EXPECT_TRUE(chunked.Contains(m));
  EXPECT_FALSE(chunked.Contains(Match({0, 1000})));
}

TEST(MatchSetMetricsTest, ComputesRecallPrecisionF1Jaccard) {
  MatchSet exact;
  exact.Insert(Match({1}));
  exact.Insert(Match({2}));
  exact.Insert(Match({3}));
  exact.Insert(Match({4}));
  MatchSet approx;
  approx.Insert(Match({1}));
  approx.Insert(Match({2}));
  approx.Insert(Match({9}));  // false positive

  const MatchSetMetrics m = CompareMatchSets(exact, approx);
  EXPECT_DOUBLE_EQ(m.recall, 0.5);
  EXPECT_DOUBLE_EQ(m.precision, 2.0 / 3.0);
  EXPECT_NEAR(m.f1, 2 * 0.5 * (2.0 / 3.0) / (0.5 + 2.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(m.jaccard, 2.0 / 5.0);
  EXPECT_DOUBLE_EQ(m.false_negative_pct, 50.0);
}

TEST(MatchSetMetricsTest, EmptySetsScorePerfect) {
  const MatchSetMetrics m = CompareMatchSets(MatchSet{}, MatchSet{});
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.jaccard, 1.0);
}

TEST(PhiModel, GrowsWithWindowRatesAndSelectivity) {
  const std::vector<double> rates = {0.1, 0.1, 0.1};
  std::vector<std::vector<double>> sel(3, std::vector<double>(3, 1.0));
  const double base = PhiExpectedPartialMatches(10, rates, sel);
  EXPECT_GT(PhiExpectedPartialMatches(20, rates, sel), base);

  std::vector<std::vector<double>> tighter = sel;
  tighter[0][1] = tighter[1][0] = 0.1;
  EXPECT_LT(PhiExpectedPartialMatches(10, rates, tighter), base);

  const std::vector<double> faster = {0.2, 0.2, 0.2};
  EXPECT_GT(PhiExpectedPartialMatches(10, faster, sel), base);
}

TEST(PhiModel, PredictsNfaPartialMatchOrderOfMagnitude) {
  // Φ is an expectation per window; the NFA's partial-match counter over
  // a stream of N events is roughly N/W windows' worth of fresh partial
  // matches. We only assert an order-of-magnitude agreement.
  SyntheticConfig config;
  config.num_events = 2000;
  config.seed = 2;
  const EventStream stream = GenerateSynthetic(config);

  PatternBuilder b(stream.schema_ptr());
  auto root = b.Seq(b.Prim("A", "a"), b.Prim("B", "bb"),
                    b.Prim("C", "c"));
  const Pattern pattern =
      b.BuildOrDie(std::move(root), WindowSpec::Count(30));
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());
  const std::span<const Event> span(stream.events().data(), stream.size());
  const double phi = EstimateEcepCost(plans.value()[0], span, 30, 7);
  EXPECT_GT(phi, 0.0);

  auto engine = CreateEngine(EngineKind::kNfa, pattern);
  ASSERT_TRUE(engine.ok());
  MatchSet out;
  ASSERT_TRUE(engine.value()->Evaluate(span, &out).ok());
  const double measured_per_window =
      static_cast<double>(engine.value()->stats().partial_matches) /
      (static_cast<double>(stream.size()) / 30.0);
  EXPECT_GT(measured_per_window, phi / 50.0);
  EXPECT_LT(measured_per_window, phi * 50.0);
}

TEST(Selectivity, EstimatesRatesFromTypeFrequencies) {
  SyntheticConfig config;
  config.num_events = 3000;
  config.num_types = 5;  // each type's rate ≈ 0.2
  config.seed = 3;
  const EventStream stream = GenerateSynthetic(config);

  PatternBuilder b(stream.schema_ptr());
  auto root = b.Seq(b.Prim("A", "a"), b.Prim("B", "bb"));
  const Pattern pattern =
      b.BuildOrDie(std::move(root), WindowSpec::Count(10));
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());
  const PlanStatistics stats = EstimatePlanStatistics(
      plans.value()[0],
      std::span<const Event>(stream.events().data(), stream.size()), 7);
  EXPECT_NEAR(stats.rates[0], 0.2, 0.05);
  EXPECT_NEAR(stats.rates[1], 0.2, 0.05);
  // No conditions between them: selectivity defaults to 1.
  EXPECT_DOUBLE_EQ(stats.pair_sel[0][1], 1.0);
}

TEST(Selectivity, EstimatesPairwisePredicateSelectivity) {
  SyntheticConfig config;
  config.num_events = 3000;
  config.num_types = 5;
  config.seed = 4;
  const EventStream stream = GenerateSynthetic(config);

  PatternBuilder b(stream.schema_ptr());
  auto root = b.Seq(b.Prim("A", "a"), b.Prim("B", "bb"));
  b.WhereCmp(1.0, "a", "vol", CmpOp::kLt, 1.0, "bb");  // ~0.5 selective
  const Pattern pattern =
      b.BuildOrDie(std::move(root), WindowSpec::Count(10));
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());
  const PlanStatistics stats = EstimatePlanStatistics(
      plans.value()[0],
      std::span<const Event>(stream.events().data(), stream.size()), 7,
      4000);
  EXPECT_NEAR(stats.pair_sel[0][1], 0.5, 0.05);
  EXPECT_DOUBLE_EQ(stats.pair_sel[0][1], stats.pair_sel[1][0]);
}

TEST(AcepObjectiveTest, WeightsTradeOffQualityAndSpeed) {
  MatchSet exact;
  exact.Insert(Match({1, 2}));
  exact.Insert(Match({3, 4}));
  MatchSet half;
  half.Insert(Match({1, 2}));

  // Pure-quality weighting prefers the better match set regardless of
  // throughput; pure-throughput weighting prefers the faster system.
  const double quality_half = AcepObjective(exact, half, 100.0, 1.0, 0.0);
  const double quality_full = AcepObjective(exact, exact, 1.0, 1.0, 0.0);
  EXPECT_LT(quality_full, quality_half);

  const double speed_half = AcepObjective(exact, half, 100.0, 0.0, 1.0);
  const double speed_full = AcepObjective(exact, exact, 1.0, 0.0, 1.0);
  EXPECT_LT(speed_half, speed_full);
}

}  // namespace
}  // namespace dlacep
