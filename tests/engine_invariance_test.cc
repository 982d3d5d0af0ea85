// Engine-choice invariance: the match set is a property of the query
// and the stream, never of the engine that computed it.
//
//  * STATIC CENSUS — all 15 Table 1/2 bench templates × 3 stock seeds:
//    every engine that accepts the pattern (tree and lazy reject
//    non-SEQ/CONJ/DISJ shapes at Create) produces the identical match
//    set to the NFA, and the adaptive engine accepts everything.
//
//  * PLAN-COST RANKING — over the same census, the order price of the
//    NFA's chain (pattern/selectivity.h) ranks the templates by the
//    NFA's measured work with positive Spearman correlation.
//
//    The tree's work per event stays flat as the span grows and within a
//    small constant of the tree price, with positive rank correlation.
//
//  * ONLINE ACROSS SHARDS — the adaptive runtime run is byte-identical
//    (marks AND matches) to the static-NFA run at shard counts 0/1/2/4:
//    selection is fed from the router's deterministic window-close
//    order, so the shard count can never change the selection trail.
//
//  * BUDGET-ABORT PARITY — with a partial-match budget, the adaptive
//    engine's abort is exactly the selected engine's static abort:
//    same status code, same (empty, all-or-nothing) output.
//
//  * CHECKPOINT MID-SWITCH — an adaptive run killed after a checkpoint
//    taken while engine A was still selected restores, performs the
//    switch at the same point, and finishes byte-identical to the
//    uninterrupted adaptive run and to every static engine.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "cep/adaptive_engine.h"
#include "cep/engine.h"
#include "dlacep/oracle_filter.h"
#include "online_test_util.h"
#include "pattern/builder.h"
#include "pattern/selectivity.h"
#include "runtime/checkpoint.h"
#include "runtime/fault_injection.h"
#include "runtime/online.h"
#include "runtime/source.h"
#include "stream/generator.h"
#include "workloads/queries_a.h"
#include "workloads/queries_b.h"
#include "workloads/recipes.h"

namespace dlacep {
namespace {

using testing_util::RunOnline;
using namespace workloads;

void ExpectSameMatches(const MatchSet& got, const MatchSet& want,
                       const std::string& label) {
  EXPECT_EQ(got.size(), want.size()) << label;
  EXPECT_EQ(got.IntersectionSize(want), want.size()) << label;
}

/// The 15-template Table 1/2 census the serving tests pin (kept in sync
/// with tests/multi_query_runtime_test.cc).
std::vector<Pattern> CensusPatterns(std::shared_ptr<const Schema> s) {
  const size_t w = 12;
  std::vector<Pattern> patterns;
  patterns.push_back(QA1(s, 4, 7, 0.9, 1.1, 3, w));
  patterns.push_back(QA2(s, 4, w));
  patterns.push_back(QA3(s, 5, 10, 3, 2, 1, 4, 0.9, 1.1, 1.5, w));
  patterns.push_back(QA4(s, 4, 10, 3, 1, 3, 0.9, 1.1, 0.8, 1.25, w));
  patterns.push_back(QA5(s, 2, 10, 2, 0.8, 1.25, w, 2));
  patterns.push_back(QA6(s, 3, 10, 0.8, 1.25, w, 2));
  patterns.push_back(QA7(s, 2, 10, 2, 0.8, 1.25, w));
  patterns.push_back(QA8(s, 2, 10, 2, 0.8, 1.25, w));
  patterns.push_back(QA9(s, 3, 10, 20, 0.9, 1.1, 0.85, 1.2, w));
  patterns.push_back(QA10(s, 3, 8, 0.85, 1.2, w));
  patterns.push_back(QA11(s, false, 8, 0.8, 1.25, w));
  patterns.push_back(QA11(s, true, 8, 0.8, 1.25, w));
  patterns.push_back(QA12(s, 8, 0.8, 1.25, 0.7, 1.4, w));
  patterns.push_back(QA1(s, 6, 6, 0.85, 1.15, 2, 16));
  patterns.push_back(QA1(s, 5, 5, 0.85, 1.15, 2, 16));
  return patterns;
}

constexpr uint64_t kSeeds[] = {3003, 4004, 5005};

MatchSet EvaluateWith(CepEngine* engine, const EventStream& stream,
                      Status* status) {
  MatchSet out;
  *status = engine->Evaluate(
      std::span<const Event>(stream.events().data(), stream.size()), &out);
  return out;
}

// ---------------------------------------------------------------------
// Static census: every supported engine agrees on every template.

TEST(EngineChoiceInvariance, AllTemplatesAllSeedsAllEngines) {
  for (const uint64_t seed : kSeeds) {
    const EventStream stream = GenerateStockStream(StockConfig(700, seed));
    const std::vector<Pattern> patterns = CensusPatterns(stream.schema_ptr());
    ASSERT_EQ(patterns.size(), 15u);
    size_t nonempty = 0;
    for (size_t t = 0; t < patterns.size(); ++t) {
      const std::string where =
          "template " + std::to_string(t) + " seed " + std::to_string(seed);
      auto nfa = CreateEngine(EngineKind::kNfa, patterns[t]);
      ASSERT_TRUE(nfa.ok()) << where;
      Status status;
      const MatchSet reference =
          EvaluateWith(nfa.value().get(), stream, &status);
      ASSERT_TRUE(status.ok()) << where << ": " << status.ToString();
      nonempty += !reference.empty();

      for (const EngineKind kind :
           {EngineKind::kTree, EngineKind::kLazy, EngineKind::kAdaptive}) {
        auto engine = CreateEngine(kind, patterns[t]);
        if (!engine.ok()) {
          // Only the specialized engines may decline a pattern shape;
          // the adaptive engine accepts everything the NFA accepts.
          EXPECT_NE(kind, EngineKind::kAdaptive)
              << where << ": " << engine.status().ToString();
          continue;
        }
        const MatchSet got = EvaluateWith(engine.value().get(), stream,
                                          &status);
        ASSERT_TRUE(status.ok()) << where << ": " << status.ToString();
        ExpectSameMatches(got, reference,
                          where + " engine " + engine.value()->name());
      }
    }
    // A quiet census would make the invariance vacuous.
    EXPECT_GE(nonempty, 5u) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------
// Plan-cost ranking: the order price of the NFA's chain order, priced
// from statistics sampled on the stream, ranks the census templates by
// the NFA's measured work.

/// Ranks of `values` (1-based), ties sharing their average rank.
std::vector<double> Ranks(const std::vector<double>& values) {
  std::vector<size_t> order(values.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return values[a] < values[b]; });
  std::vector<double> ranks(values.size());
  for (size_t i = 0; i < order.size();) {
    size_t j = i;
    while (j + 1 < order.size() && values[order[j + 1]] == values[order[i]]) {
      ++j;
    }
    for (size_t k = i; k <= j; ++k) {
      ranks[order[k]] = static_cast<double>(i + j) / 2.0 + 1.0;
    }
    i = j + 1;
  }
  return ranks;
}

/// Spearman's rank correlation: Pearson's over the ranks.
double SpearmanRho(const std::vector<double>& x,
                   const std::vector<double>& y) {
  const std::vector<double> rx = Ranks(x);
  const std::vector<double> ry = Ranks(y);
  const double n = static_cast<double>(rx.size());
  const double mean = (n + 1.0) / 2.0;
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < rx.size(); ++i) {
    sxy += (rx[i] - mean) * (ry[i] - mean);
    sxx += (rx[i] - mean) * (rx[i] - mean);
    syy += (ry[i] - mean) * (ry[i] - mean);
  }
  return sxy / std::sqrt(sxx * syy);
}

TEST(PlanCostModel, ChainPriceRanksNfaWork) {
  std::vector<double> predicted;
  std::vector<double> measured;
  for (const uint64_t seed : kSeeds) {
    const EventStream stream = GenerateStockStream(StockConfig(700, seed));
    const std::span<const Event> span(stream.events().data(), stream.size());
    for (const Pattern& pattern : CensusPatterns(stream.schema_ptr())) {
      auto plans = CompilePlans(pattern);
      ASSERT_TRUE(plans.ok()) << plans.status().ToString();
      const double window = WindowEvents(pattern.window(), span);
      double price = 0.0;
      for (const LinearPlan& plan : plans.value()) {
        std::vector<size_t> chain(plan.num_positions());
        std::iota(chain.begin(), chain.end(), size_t{0});
        price += OrderPrice(EstimatePlanStatistics(plan, span, 7), window,
                            chain, plan.ordered());
      }
      predicted.push_back(price / window);

      auto nfa = CreateEngine(EngineKind::kNfa, pattern);
      ASSERT_TRUE(nfa.ok()) << nfa.status().ToString();
      MatchSet out;
      ASSERT_TRUE(nfa.value()->Evaluate(span, &out).ok());
      const EngineStats& stats = nfa.value()->stats();
      measured.push_back(
          static_cast<double>(stats.transitions + stats.partial_matches) /
          static_cast<double>(stats.events_processed));
    }
  }
  ASSERT_EQ(predicted.size(), 45u);
  const double rho = SpearmanRho(predicted, measured);
  RecordProperty("spearman_rho", std::to_string(rho));
  std::printf("chain price vs NFA work: Spearman rho = %.3f\n", rho);
  EXPECT_GT(rho, 0.0);
}

// The tree's joins are bounded by the window, so its work per event
// depends on the window, not on the span length, and stays within a
// small constant of the tree price (nodes plus per-window join probes).
TEST(PlanCostModel, TreeWorkTracksTreePrice) {
  std::vector<double> predicted;
  std::vector<double> measured;
  for (const uint64_t seed : kSeeds) {
    const EventStream streams[2] = {
        GenerateStockStream(StockConfig(700, seed)),
        GenerateStockStream(StockConfig(2000, seed))};
    const std::vector<Pattern> patterns =
        CensusPatterns(streams[1].schema_ptr());
    for (size_t t = 0; t < patterns.size(); ++t) {
      const Pattern& pattern = patterns[t];
      if (!CreateEngine(EngineKind::kTree, pattern).ok()) continue;
      const std::string where =
          "template " + std::to_string(t) + " seed " + std::to_string(seed);
      // The tree's (transitions + partial matches) per event at 700 and
      // at 2,000 events.
      double work[2];
      for (int i = 0; i < 2; ++i) {
        auto tree = CreateEngine(EngineKind::kTree, pattern);
        ASSERT_TRUE(tree.ok()) << where;
        MatchSet out;
        ASSERT_TRUE(tree.value()
                        ->Evaluate(std::span<const Event>(
                                       streams[i].events().data(),
                                       streams[i].size()),
                                   &out)
                        .ok())
            << where;
        const EngineStats& stats = tree.value()->stats();
        work[i] =
            static_cast<double>(stats.transitions + stats.partial_matches) /
            static_cast<double>(stats.events_processed);
      }
      // The tree price per event on the 2,000-event stream.
      const std::span<const Event> span(streams[1].events().data(),
                                        streams[1].size());
      auto plans = CompilePlans(pattern);
      ASSERT_TRUE(plans.ok()) << plans.status().ToString();
      const double window = WindowEvents(pattern.window(), span);
      double price = 0.0;
      for (const LinearPlan& plan : plans.value()) {
        price += PriceTree(EstimatePlanStatistics(plan, span, 7), window,
                           plan.ordered())
                     .cost;
      }
      price /= window;
      EXPECT_LE(work[1], 1.25 * work[0]) << where;
      EXPECT_LE(work[1], 10.0 * price) << where;
      predicted.push_back(price);
      measured.push_back(work[1]);
    }
  }
  ASSERT_EQ(predicted.size(), 33u);  // 11 tree-eligible templates
  const double rho = SpearmanRho(predicted, measured);
  RecordProperty("spearman_rho", std::to_string(rho));
  std::printf("tree price vs tree work: Spearman rho = %.3f over %zu cases\n",
              rho, predicted.size());
  EXPECT_GT(rho, 0.0);
}

// ---------------------------------------------------------------------
// Online across shards: adaptive == static NFA, byte for byte.

TEST(EngineChoiceInvariance, AdaptiveOnlineByteIdenticalAcrossShards) {
  for (const uint64_t seed : kSeeds) {
    const EventStream stream = GenerateStockStream(StockConfig(700, seed));
    const std::vector<Pattern> patterns = CensusPatterns(stream.schema_ptr());
    for (size_t t = 0; t < patterns.size(); ++t) {
      PassThroughFilter pass;
      OnlineConfig reference_config;
      reference_config.overload.enabled = false;
      OnlineDlacep reference_run(patterns[t], &pass, reference_config);
      ReplaySource reference_source(&stream);
      const OnlineResult reference =
          RunOnline(&reference_run, &reference_source);

      for (const size_t shards : {1u, 2u, 4u, 8u}) {
        const std::string where = "template " + std::to_string(t) +
                                  " seed " + std::to_string(seed) +
                                  " shards " + std::to_string(shards);
        OnlineConfig config;
        config.overload.enabled = false;
        config.num_shards = shards;
        config.engine = EngineKind::kAdaptive;
        // A short reselect cadence so runs long enough to reselect do.
        config.engine_options.adaptive_reselect_windows = 4;
        OnlineDlacep online(patterns[t], &pass, config);
        ReplaySource source(&stream);
        const OnlineResult result = RunOnline(&online, &source);
        EXPECT_EQ(result.marked_ids, reference.marked_ids) << where;
        ExpectSameMatches(result.matches, reference.matches, where);
        EXPECT_FALSE(result.stats.engine_selected.empty()) << where;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Budget aborts: adaptive aborts exactly like its selected engine.

TEST(EngineChoiceInvariance, BudgetAbortMatchesSelectedEngine) {
  const EventStream stream = GenerateStockStream(StockConfig(700, 3003));
  // SEQ over the three hottest symbols inside a wide window: the
  // canonical partial-match blowup, guaranteed to hit a small budget.
  PatternBuilder b(stream.schema_ptr());
  std::vector<PatternBuilder::Node> children;
  children.push_back(b.PrimAnyOfIds(TopK(3), "x1"));
  children.push_back(b.PrimAnyOfIds(TopK(3), "x2"));
  children.push_back(b.PrimAnyOfIds(TopK(3), "x3"));
  const Pattern pattern = b.BuildOrDie(b.SeqOf(std::move(children)),
                                       WindowSpec::Count(60));

  EngineOptions options;
  options.partial_match_budget = 64;
  auto adaptive = CreateEngine(EngineKind::kAdaptive, pattern, options);
  ASSERT_TRUE(adaptive.ok());
  Status adaptive_status;
  const MatchSet adaptive_out =
      EvaluateWith(adaptive.value().get(), stream, &adaptive_status);
  EXPECT_EQ(adaptive_status.code(), StatusCode::kBudgetExceeded)
      << adaptive_status.ToString();
  EXPECT_TRUE(adaptive_out.empty()) << "aborts are all-or-nothing";
  EXPECT_EQ(adaptive.value()->stats().budget_aborts, 1u);

  const EngineKind selected =
      static_cast<AdaptiveEngine*>(adaptive.value().get())->selected_kind();
  auto fixed = CreateEngine(selected, pattern, options);
  ASSERT_TRUE(fixed.ok());
  Status fixed_status;
  const MatchSet fixed_out =
      EvaluateWith(fixed.value().get(), stream, &fixed_status);
  EXPECT_EQ(fixed_status.code(), adaptive_status.code());
  EXPECT_TRUE(fixed_out.empty());
  EXPECT_EQ(fixed.value()->stats().budget_aborts, 1u);
}

// ---------------------------------------------------------------------
// Checkpoint/restore across an engine switch.

/// Two-phase drifting stream over types {A, B, C}: phase 1 keeps the
/// chain order already frequency-ascending (A rare), so the cost model
/// holds the NFA; phase 2 floods A and starves C, which makes the
/// frequency-ordered lazy chain analytically cheaper and forces a
/// switch.
EventStream DriftingStream(std::shared_ptr<const Schema> schema) {
  EventStream stream(std::move(schema));
  const TypeId kA = 0, kB = 1, kC = 2;
  const TypeId phase1[10] = {kB, kC, kC, kB, kC, kB, kC, kC, kB, kA};
  const TypeId phase2[10] = {kA, kA, kA, kA, kA, kA, kA, kB, kB, kC};
  double t = 0.0;
  for (size_t i = 0; i < 600; ++i) {
    stream.Append(phase1[i % 10], t, {1.0 + 0.01 * static_cast<double>(i)});
    t += 1.0;
  }
  for (size_t i = 0; i < 600; ++i) {
    stream.Append(phase2[i % 10], t, {1.0 + 0.01 * static_cast<double>(i)});
    t += 1.0;
  }
  return stream;
}

Pattern DriftPattern(std::shared_ptr<const Schema> schema) {
  PatternBuilder b(std::move(schema));
  std::vector<PatternBuilder::Node> children;
  children.push_back(b.Prim("A", "a"));
  children.push_back(b.Prim("B", "b"));
  children.push_back(b.Prim("C", "c"));
  return b.BuildOrDie(b.SeqOf(std::move(children)), WindowSpec::Count(8));
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  ::mkdir(dir.c_str(), 0755);
  std::remove(CheckpointPath(dir).c_str());
  return dir;
}

OnlineConfig AdaptiveDriftConfig() {
  OnlineConfig config;
  config.overload.enabled = false;
  config.engine = EngineKind::kAdaptive;
  config.engine_options.adaptive_reselect_windows = 4;
  return config;
}

TEST(EngineChoiceInvariance, CheckpointAcrossSwitchRestoresByteIdentical) {
  const EventStream stream = DriftingStream(MakeSyntheticSchema(3, 1));
  const Pattern pattern = DriftPattern(stream.schema_ptr());
  const std::string dir = FreshDir("ck_adaptive_switch");

  // Run A: uninterrupted adaptive run — the byte-identity reference.
  // The drift must actually provoke a switch, NFA -> lazy.
  PassThroughFilter pass_a;
  OnlineDlacep online_a(pattern, &pass_a, AdaptiveDriftConfig());
  ReplaySource source_a(&stream);
  const OnlineResult a = RunOnline(&online_a, &source_a);
  ASSERT_GE(a.stats.engine_switches, 1u)
      << "drift failed to provoke a switch; the test would be vacuous";
  EXPECT_EQ(a.stats.engine_selected, "lazy");
  EXPECT_FALSE(a.matches.empty());

  // Run B: killed at event 450 — still in phase 1, so the abort-time
  // checkpoint is taken while the NFA is the selected engine.
  FaultPlan plan;
  plan.source_fail = true;
  plan.fail_at = 450;
  plan.fail_count = 0;
  FaultInjector injector(plan);
  auto source_b = injector.WrapSource(std::make_unique<ReplaySource>(&stream));
  PassThroughFilter pass_b;
  OnlineConfig config_b = AdaptiveDriftConfig();
  config_b.checkpoint.dir = dir;
  config_b.checkpoint.every_events = 128;
  OnlineDlacep online_b(pattern, &pass_b, config_b);
  OnlineResult b;
  ASSERT_TRUE(online_b.Run(source_b.get(), &b).ok());
  EXPECT_TRUE(b.stats.source_aborted);
  EXPECT_EQ(b.stats.engine_selected, "nfa")
      << "kill point drifted past the switch; move fail_at earlier";
  EXPECT_EQ(b.stats.engine_switches, 0u);

  // Run C: restored from B's checkpoint, replays the drift, switches at
  // the same point, and finishes byte-identical to A.
  PassThroughFilter pass_c;
  OnlineConfig config_c = AdaptiveDriftConfig();
  config_c.checkpoint.dir = dir;
  config_c.checkpoint.restore = true;
  OnlineDlacep online_c(pattern, &pass_c, config_c);
  ReplaySource source_c(&stream);
  OnlineResult c;
  ASSERT_TRUE(online_c.Run(&source_c, &c).ok());
  EXPECT_EQ(c.marked_ids, a.marked_ids);
  EXPECT_EQ(c.marked_events, a.marked_events);
  ExpectSameMatches(c.matches, a.matches, "restored vs uninterrupted");
  EXPECT_EQ(c.stats.engine_selected, a.stats.engine_selected);
  EXPECT_EQ(c.stats.engine_switches, a.stats.engine_switches);

  // And to every static engine: the switch changed nothing observable.
  for (const EngineKind kind :
       {EngineKind::kNfa, EngineKind::kTree, EngineKind::kLazy}) {
    PassThroughFilter pass_s;
    OnlineConfig config_s;
    config_s.overload.enabled = false;
    config_s.engine = kind;
    OnlineDlacep fixed(pattern, &pass_s, config_s);
    ReplaySource source_s(&stream);
    const OnlineResult s = RunOnline(&fixed, &source_s);
    EXPECT_EQ(s.marked_ids, a.marked_ids) << EngineKindName(kind);
    ExpectSameMatches(s.matches, a.matches, EngineKindName(kind));
  }

  // A static-engine runtime must refuse the adaptive checkpoint rather
  // than resume with a different selection policy.
  PassThroughFilter pass_d;
  OnlineConfig config_d;
  config_d.overload.enabled = false;
  config_d.checkpoint.dir = dir;
  config_d.checkpoint.restore = true;
  OnlineDlacep online_d(pattern, &pass_d, config_d);
  ReplaySource source_d(&stream);
  OnlineResult d;
  EXPECT_FALSE(online_d.Run(&source_d, &d).ok());
}

}  // namespace
}  // namespace dlacep
