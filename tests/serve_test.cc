// Unit tests for the multi-query serving subsystem (src/serve):
// QueryRegistry RCU snapshots, shared-CEP planning (structural twins,
// type occupancy, SEQ 2-prefix witness guards), and the ServeFilter's
// per-query attribution + multi-head decoding equivalence.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dlacep/extractor.h"
#include "dlacep/multi_pattern.h"
#include "dlacep/oracle_filter.h"
#include "pattern/builder.h"
#include "serve/breaker.h"
#include "serve/filter.h"
#include "serve/plan.h"
#include "serve/registry.h"
#include "test_util.h"

namespace dlacep {
namespace {

using serve::BuildSharedCepPlan;
using serve::PlanQuery;
using serve::QueryOptions;
using serve::QueryRegistry;
using serve::SeqPrefixWitness;
using serve::ServeFilter;
using serve::SharedCepPlan;
using serve::StructuralKey;
using testing_util::AscendingSeqPattern;
using testing_util::SmallStream;

/// SEQ over the named types with ascending-vol conditions between
/// consecutive positions, under arbitrary variable names.
Pattern NamedSeq(std::shared_ptr<const Schema> schema,
                 const std::vector<std::string>& types,
                 const std::string& var_prefix, size_t window,
                 bool conditions = true) {
  PatternBuilder builder(std::move(schema));
  std::vector<PatternBuilder::Node> children;
  for (size_t i = 0; i < types.size(); ++i) {
    children.push_back(
        builder.Prim(types[i], var_prefix + std::to_string(i)));
  }
  auto root = builder.SeqOf(std::move(children));
  if (conditions) {
    for (size_t i = 0; i + 1 < types.size(); ++i) {
      builder.WhereCmp(1.0, var_prefix + std::to_string(i), "vol",
                       CmpOp::kLt, 1.0, var_prefix + std::to_string(i + 1));
    }
  }
  return builder.BuildOrDie(std::move(root), WindowSpec::Count(window));
}

// ---------------------------------------------------------------------
// QueryRegistry.

TEST(QueryRegistry, RegisterPublishesImmutableSnapshots) {
  const EventStream stream = SmallStream(50, 1);
  QueryRegistry registry;

  const auto empty = registry.Acquire();
  ASSERT_NE(empty, nullptr);
  EXPECT_EQ(empty->queries.size(), 0u);

  auto a = registry.Register(AscendingSeqPattern(stream.schema_ptr(), 2, 8));
  ASSERT_TRUE(a.ok());
  QueryOptions named;
  named.name = "mine";
  auto b = registry.Register(AscendingSeqPattern(stream.schema_ptr(), 3, 12),
                             named);
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(registry.size(), 2u);

  const auto both = registry.Acquire();
  ASSERT_EQ(both->queries.size(), 2u);
  EXPECT_GT(both->version, empty->version);
  EXPECT_EQ(both->queries[0].name, "q" + std::to_string(a.value()));
  EXPECT_EQ(both->queries[1].name, "mine");
  EXPECT_EQ(both->max_window, 12u);

  // RCU: a held snapshot never changes under later mutations.
  ASSERT_TRUE(registry.Unregister(a.value()).ok());
  EXPECT_EQ(both->queries.size(), 2u);
  EXPECT_EQ(registry.Acquire()->queries.size(), 1u);
  EXPECT_EQ(registry.Acquire()->max_window, 12u);
  // The empty snapshot acquired first is still the empty one.
  EXPECT_EQ(empty->queries.size(), 0u);
}

TEST(QueryRegistry, RejectsTimeWindowsAndUnknownUnregister) {
  const EventStream stream = SmallStream(50, 2);
  QueryRegistry registry;

  PatternBuilder builder(stream.schema_ptr());
  auto root = builder.Seq(builder.Prim("A", "a"), builder.Prim("B", "b"));
  Pattern timed =
      builder.BuildOrDie(std::move(root), WindowSpec::Time(5.0));
  EXPECT_FALSE(registry.Register(timed).ok());
  EXPECT_EQ(registry.size(), 0u);

  EXPECT_FALSE(registry.Unregister(99).ok());
}

// ---------------------------------------------------------------------
// Shared-CEP planning.

TEST(SharedCepPlan, StructuralKeyIgnoresVariableNamesOnly) {
  const EventStream stream = SmallStream(50, 3);
  auto schema = stream.schema_ptr();
  const Pattern p1 = NamedSeq(schema, {"A", "B", "C"}, "x", 10);
  const Pattern p2 = NamedSeq(schema, {"A", "B", "C"}, "other", 10);
  const Pattern narrower = NamedSeq(schema, {"A", "B", "C"}, "x", 8);
  const Pattern retyped = NamedSeq(schema, {"A", "B", "D"}, "x", 10);
  const Pattern bare =
      NamedSeq(schema, {"A", "B", "C"}, "x", 10, /*conditions=*/false);

  EXPECT_EQ(StructuralKey(p1, EngineKind::kNfa),
            StructuralKey(p2, EngineKind::kNfa));
  EXPECT_NE(StructuralKey(p1, EngineKind::kNfa),
            StructuralKey(p1, EngineKind::kTree));
  EXPECT_NE(StructuralKey(p1, EngineKind::kNfa),
            StructuralKey(narrower, EngineKind::kNfa));
  EXPECT_NE(StructuralKey(p1, EngineKind::kNfa),
            StructuralKey(retyped, EngineKind::kNfa));
  EXPECT_NE(StructuralKey(p1, EngineKind::kNfa),
            StructuralKey(bare, EngineKind::kNfa));
}

TEST(SharedCepPlan, GroupsTwinsAndBucketsSharedPrefixes) {
  const EventStream stream = SmallStream(50, 4);
  auto schema = stream.schema_ptr();
  // q0 and q1 are structural twins; q2 shares their A,B prefix with a
  // different tail; q3 is a 2-position SEQ (its own prefix: no guard).
  std::vector<Pattern> patterns;
  patterns.push_back(NamedSeq(schema, {"A", "B", "C"}, "x", 10));
  patterns.push_back(NamedSeq(schema, {"A", "B", "C"}, "y", 10));
  patterns.push_back(NamedSeq(schema, {"A", "B", "D"}, "z", 14));
  patterns.push_back(NamedSeq(schema, {"A", "B"}, "w", 10));

  std::vector<PlanQuery> queries;
  for (const Pattern& pattern : patterns) {
    queries.push_back({&pattern, EngineKind::kNfa});
  }
  const SharedCepPlan plan = BuildSharedCepPlan(queries);

  ASSERT_EQ(plan.groups.size(), 3u);
  EXPECT_EQ(plan.structural_duplicates, 1u);
  EXPECT_EQ(plan.groups[0].members, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(plan.groups[1].members, (std::vector<size_t>{2}));
  EXPECT_EQ(plan.groups[2].members, (std::vector<size_t>{3}));

  // Occupancy: each 3-position group requires its three singleton type
  // sets.
  ASSERT_EQ(plan.groups[0].required_types.size(), 3u);
  ASSERT_EQ(plan.groups[1].required_types.size(), 3u);

  // One guard shared by the two 3-position groups (same A,B prefix and
  // ascending-vol condition), sized by the widest sharer (14). The
  // 2-position group gets none.
  ASSERT_EQ(plan.guards.size(), 1u);
  EXPECT_EQ(plan.groups[0].guard, 0);
  EXPECT_EQ(plan.groups[1].guard, 0);
  EXPECT_EQ(plan.groups[2].guard, -1);
  EXPECT_EQ(plan.guards[0].window().count_size(), 14u);
  EXPECT_EQ(plan.guards[0].root().children.size(), 2u);
}

TEST(SharedCepPlan, DisjAndNegContributeNoRequiredTypes) {
  const EventStream stream = SmallStream(50, 5);

  // NEG positions cannot demand presence: only A and B are required.
  PatternBuilder with_neg(stream.schema_ptr());
  auto neg_root = with_neg.Seq(with_neg.Prim("A", "a"),
                               with_neg.Neg(with_neg.Prim("D", "d")),
                               with_neg.Prim("B", "b"));
  const Pattern neg_pattern =
      with_neg.BuildOrDie(std::move(neg_root), WindowSpec::Count(10));
  const PlanQuery neg_query{&neg_pattern, EngineKind::kNfa};
  const SharedCepPlan neg_plan = BuildSharedCepPlan({&neg_query, 1});
  ASSERT_EQ(neg_plan.groups.size(), 1u);
  ASSERT_EQ(neg_plan.groups[0].required_types.size(), 2u);

  // A DISJ root only demands one of its branches — no occupancy sets.
  PatternBuilder with_disj(stream.schema_ptr());
  auto disj_root = with_disj.Disj(
      with_disj.Seq(with_disj.Prim("A", "a"), with_disj.Prim("B", "b")),
      with_disj.Seq(with_disj.Prim("C", "c"), with_disj.Prim("D", "d")));
  const Pattern disj_pattern =
      with_disj.BuildOrDie(std::move(disj_root), WindowSpec::Count(10));
  const PlanQuery disj_query{&disj_pattern, EngineKind::kNfa};
  const SharedCepPlan disj_plan = BuildSharedCepPlan({&disj_query, 1});
  ASSERT_EQ(disj_plan.groups.size(), 1u);
  EXPECT_TRUE(disj_plan.groups[0].required_types.empty());
}

TEST(SeqPrefixWitness, FindsPairsAndRespectsWindowSpan) {
  const EventStream base = SmallStream(4, 6);
  auto schema = base.schema_ptr();
  const Pattern guard = NamedSeq(schema, {"A", "B"}, "g", 4);

  // Stream: A(vol 1) at id 0, B(vol 2) at id 5 — types match and the
  // condition holds, but the pair spans 5 > window-1 = 3.
  EventStream far(schema);
  far.Append(0, 0.0, {1.0});
  for (int i = 0; i < 4; ++i) far.AppendBlank(static_cast<double>(i + 1));
  far.Append(1, 5.0, {2.0});
  std::vector<const Event*> far_events = {&far[0], &far[5]};
  EXPECT_FALSE(SeqPrefixWitness(guard, far_events));

  // Same pair within the window: witness found.
  EventStream near(schema);
  near.Append(0, 0.0, {1.0});
  near.Append(1, 1.0, {2.0});
  std::vector<const Event*> near_events = {&near[0], &near[1]};
  EXPECT_TRUE(SeqPrefixWitness(guard, near_events));

  // Condition violated (descending vol): no witness.
  EventStream desc(schema);
  desc.Append(0, 0.0, {2.0});
  desc.Append(1, 1.0, {1.0});
  std::vector<const Event*> desc_events = {&desc[0], &desc[1]};
  EXPECT_FALSE(SeqPrefixWitness(guard, desc_events));

  // Order matters: B before A is not a SEQ prefix.
  EventStream swapped(schema);
  swapped.Append(1, 0.0, {1.0});
  swapped.Append(0, 1.0, {2.0});
  std::vector<const Event*> swapped_events = {&swapped[0], &swapped[1]};
  EXPECT_FALSE(SeqPrefixWitness(guard, swapped_events));
}

TEST(SeqPrefixWitness, NeverPrunesAnEventSetWithFullMatches) {
  // Soundness against the engine: whenever the full 3-position query
  // has a match over an event set, the 2-prefix witness must exist.
  for (const uint64_t seed : {11u, 12u, 13u, 14u}) {
    const EventStream stream = SmallStream(300, seed);
    const Pattern query =
        AscendingSeqPattern(stream.schema_ptr(), 3, 10);
    const PlanQuery plan_query{&query, EngineKind::kNfa};
    const SharedCepPlan plan = BuildSharedCepPlan({&plan_query, 1});
    ASSERT_EQ(plan.guards.size(), 1u);

    std::vector<const Event*> events;
    for (size_t i = 0; i < stream.size(); ++i) events.push_back(&stream[i]);

    CepExtractor extractor(query);
    MatchSet matches;
    ASSERT_TRUE(extractor.Extract(events, &matches).ok());
    const bool witness = SeqPrefixWitness(plan.guards[0], events);
    if (!matches.empty()) {
      EXPECT_TRUE(witness) << "seed=" << seed << " pruned "
                           << matches.size() << " matches";
    }
  }
}

// ---------------------------------------------------------------------
// ServeFilter.

TEST(ServeFilter, BaseFilterMarksAreRecordedForEveryLiveQuery) {
  const EventStream stream = SmallStream(24, 7);
  QueryRegistry registry;
  auto a = registry.Register(AscendingSeqPattern(stream.schema_ptr(), 2, 8));
  auto b = registry.Register(AscendingSeqPattern(stream.schema_ptr(), 3, 8));
  ASSERT_TRUE(a.ok() && b.ok());

  PassThroughFilter pass;
  ServeFilter filter(&registry, &pass);
  const std::vector<int> marks =
      filter.Mark(stream, WindowRange{0, stream.size()});
  EXPECT_EQ(marks, std::vector<int>(stream.size(), 1));

  const auto recorded = filter.RecordedMarks();
  ASSERT_EQ(recorded.size(), 2u);
  std::vector<EventId> all_ids;
  for (size_t i = 0; i < stream.size(); ++i) all_ids.push_back(stream[i].id);
  EXPECT_EQ(recorded.at(a.value()), all_ids);
  EXPECT_EQ(recorded.at(b.value()), all_ids);

  filter.ResetRecording();
  EXPECT_TRUE(filter.RecordedMarks().empty());
}

TEST(ServeFilter, EmptyRegistryMarksNothing) {
  const EventStream stream = SmallStream(16, 8);
  QueryRegistry registry;
  PassThroughFilter pass;
  ServeFilter filter(&registry, &pass);
  const std::vector<int> marks =
      filter.Mark(stream, WindowRange{0, stream.size()});
  EXPECT_EQ(marks, std::vector<int>(stream.size(), 0));
  EXPECT_TRUE(filter.RecordedMarks().empty());
}

// ---------------------------------------------------------------------
// Multi-head decoding: one trunk forward, per-query thresholds.

struct TrainedTrunk {
  std::unique_ptr<MultiPatternDlacep> system;
  EventStream test;

  TrainedTrunk() : test(SmallStream(200, 22)) {
    const EventStream train = SmallStream(1200, 21);
    std::vector<Pattern> patterns;
    patterns.push_back(AscendingSeqPattern(train.schema_ptr(), 2, 8));
    patterns.push_back(AscendingSeqPattern(train.schema_ptr(), 3, 8));
    DlacepConfig config;
    config.network.hidden_dim = 8;
    config.network.num_layers = 1;
    config.train.max_epochs = 4;
    config.event_threshold = 0.3;
    system = std::make_unique<MultiPatternDlacep>(patterns, train, config);
  }

  EventStream Window(size_t begin, size_t count) const {
    EventStream window(test.schema_ptr());
    for (size_t i = 0; i < count; ++i) {
      window.AppendArrival(test[begin + i]);
    }
    return window;
  }
};

TEST(MultiHeadDecoding, MatchesPerThresholdMarkOnlineBitForBit) {
  const TrainedTrunk trunk;
  const EventNetworkFilter* heads = trunk.system->filter();
  const double base = heads->event_threshold();
  const std::vector<double> thresholds = {base, base - 0.15, base + 0.15};

  const EventStream window = trunk.Window(0, 16);
  const OnlineWindow one{&window, 0, 0.0};
  InferenceContext ctx;
  std::vector<std::vector<std::vector<int>>> batched;
  heads->MarkBatchOnlineMultiHead({&one, 1}, &ctx, thresholds, &batched);
  ASSERT_EQ(batched.size(), 1u);
  const std::vector<std::vector<int>>& per_query = batched[0];
  ASSERT_EQ(per_query.size(), thresholds.size());

  for (size_t q = 0; q < thresholds.size(); ++q) {
    InferenceContext single_ctx;
    const std::vector<int> expected = heads->MarkOnline(
        window, 0, &single_ctx, thresholds[q] - base);
    EXPECT_EQ(per_query[q], expected) << "threshold " << thresholds[q];
  }
  // A lower threshold can only mark more, never fewer.
  for (size_t t = 0; t < window.size(); ++t) {
    EXPECT_GE(per_query[1][t], per_query[0][t]);
    EXPECT_LE(per_query[2][t], per_query[0][t]);
  }
}

TEST(MultiHeadDecoding, BatchedSlabMatchesPerWindowDecodes) {
  const TrainedTrunk trunk;
  const EventNetworkFilter* heads = trunk.system->filter();
  const double base = heads->event_threshold();
  const std::vector<double> thresholds = {base, base - 0.1};

  std::vector<EventStream> windows;
  windows.push_back(trunk.Window(0, 16));
  windows.push_back(trunk.Window(8, 16));
  windows.push_back(trunk.Window(16, 12));  // ragged tail
  std::vector<OnlineWindow> batch;
  for (size_t w = 0; w < windows.size(); ++w) {
    OnlineWindow entry;
    entry.events = &windows[w];
    entry.stream_begin = 8 * w;
    entry.threshold_boost = w == 1 ? 0.05 : 0.0;  // mixed overload level
    batch.push_back(entry);
  }

  InferenceContext batch_ctx;
  std::vector<std::vector<std::vector<int>>> batched;
  heads->MarkBatchOnlineMultiHead(batch, &batch_ctx, thresholds, &batched);
  ASSERT_EQ(batched.size(), batch.size());

  for (size_t w = 0; w < batch.size(); ++w) {
    // The same window alone, its overload boost folded into the query
    // thresholds instead.
    InferenceContext ctx;
    std::vector<double> boosted = thresholds;
    for (double& t : boosted) t += batch[w].threshold_boost;
    const OnlineWindow alone{&windows[w], batch[w].stream_begin, 0.0};
    std::vector<std::vector<std::vector<int>>> expected;
    heads->MarkBatchOnlineMultiHead({&alone, 1}, &ctx, boosted, &expected);
    ASSERT_EQ(expected.size(), 1u);
    EXPECT_EQ(batched[w], expected[0]) << "window " << w;
  }
}

TEST(MultiHeadServeFilter, UnionsPerQueryMarksAndRecordsAttribution) {
  const TrainedTrunk trunk;
  const EventNetworkFilter* heads = trunk.system->filter();
  const double base = heads->event_threshold();

  QueryRegistry registry;
  const std::vector<Pattern>& patterns = trunk.system->patterns();
  QueryOptions strict;
  strict.threshold = base + 0.2;
  auto a = registry.Register(patterns[0], strict);
  QueryOptions loose;
  loose.threshold = base - 0.2;
  auto b = registry.Register(patterns[1], loose);
  ASSERT_TRUE(a.ok() && b.ok());

  ServeFilter filter(&registry, heads, heads);
  const EventStream window = trunk.Window(0, 16);
  InferenceContext ctx;
  const std::vector<int> unioned = filter.MarkOnline(window, 0, &ctx, 0.0);

  InferenceContext ref_ctx;
  const std::vector<int> strict_marks =
      heads->MarkOnline(window, 0, &ref_ctx, 0.2);
  const std::vector<int> loose_marks =
      heads->MarkOnline(window, 0, &ref_ctx, -0.2);
  for (size_t t = 0; t < window.size(); ++t) {
    EXPECT_EQ(unioned[t], (strict_marks[t] | loose_marks[t])) << "at " << t;
  }

  const auto recorded = filter.RecordedMarks();
  std::vector<EventId> strict_ids;
  std::vector<EventId> loose_ids;
  for (size_t t = 0; t < window.size(); ++t) {
    if (strict_marks[t] == 1) strict_ids.push_back(window[t].id);
    if (loose_marks[t] == 1) loose_ids.push_back(window[t].id);
  }
  EXPECT_EQ(recorded.at(a.value()), strict_ids);
  EXPECT_EQ(recorded.at(b.value()), loose_ids);
}

// ---------------------------------------------------------------------
// Circuit-breaker state machine (see serve/breaker.h).

serve::BreakerConfig SmallBreaker() {
  serve::BreakerConfig config;
  config.trip_after = 2;
  config.probe_period = 3;
  config.probe_passes = 2;
  return config;
}

TEST(QueryBreaker, TripsOnlyOnConsecutiveAborts) {
  serve::QueryBreaker breaker(SmallBreaker());
  EXPECT_EQ(breaker.state(), serve::BreakerState::kHealthy);
  EXPECT_TRUE(breaker.ShouldRun());

  breaker.OnBudgetAbort();
  breaker.OnRunOk();  // a clean run resets the streak
  breaker.OnBudgetAbort();
  EXPECT_EQ(breaker.state(), serve::BreakerState::kHealthy);
  EXPECT_EQ(breaker.trips(), 0u);

  breaker.OnBudgetAbort();  // second consecutive abort
  EXPECT_EQ(breaker.state(), serve::BreakerState::kTripped);
  EXPECT_FALSE(breaker.ShouldRun());
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_EQ(breaker.budget_aborts(), 3u);
}

TEST(QueryBreaker, ProbeAfterSkipsThenRecoverOrRetrip) {
  serve::QueryBreaker breaker(SmallBreaker());
  breaker.OnBudgetAbort();
  breaker.OnBudgetAbort();
  ASSERT_EQ(breaker.state(), serve::BreakerState::kTripped);

  // probe_period skips open the probe window.
  breaker.OnSkipped();
  breaker.OnSkipped();
  EXPECT_FALSE(breaker.ShouldRun());
  breaker.OnSkipped();
  EXPECT_EQ(breaker.state(), serve::BreakerState::kProbing);
  EXPECT_TRUE(breaker.ShouldRun());

  // A probe that aborts re-trips immediately (no trip_after grace).
  breaker.OnBudgetAbort();
  EXPECT_EQ(breaker.state(), serve::BreakerState::kTripped);
  EXPECT_EQ(breaker.trips(), 2u);

  // Probe again; this time probe_passes clean runs close the breaker.
  breaker.OnSkipped();
  breaker.OnSkipped();
  breaker.OnSkipped();
  ASSERT_EQ(breaker.state(), serve::BreakerState::kProbing);
  breaker.OnRunOk();
  EXPECT_EQ(breaker.state(), serve::BreakerState::kProbing);
  breaker.OnRunOk();
  EXPECT_EQ(breaker.state(), serve::BreakerState::kHealthy);
  EXPECT_TRUE(breaker.ShouldRun());
}

TEST(QueryBreaker, StateNamesAreStable) {
  EXPECT_STREQ(serve::BreakerStateName(serve::BreakerState::kHealthy),
               "healthy");
  EXPECT_STREQ(serve::BreakerStateName(serve::BreakerState::kTripped),
               "tripped");
  EXPECT_STREQ(serve::BreakerStateName(serve::BreakerState::kProbing),
               "probing");
}

}  // namespace
}  // namespace dlacep
