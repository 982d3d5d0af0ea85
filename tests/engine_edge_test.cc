// Edge-case and robustness tests for the CEP engines: degenerate
// streams, degenerate windows, blank events, and engine statistics
// accounting.

#include <gtest/gtest.h>

#include "cep/engine.h"
#include "cep/oracle.h"
#include "pattern/builder.h"
#include "test_util.h"

namespace dlacep {
namespace {

using testing_util::SmallStream;

Pattern SimpleSeq(std::shared_ptr<const Schema> schema, size_t window) {
  PatternBuilder b(std::move(schema));
  auto root = b.Seq(b.Prim("A", "a"), b.Prim("B", "b"));
  return b.BuildOrDie(std::move(root), WindowSpec::Count(window));
}

class AllEngines : public ::testing::TestWithParam<EngineKind> {};

TEST_P(AllEngines, EmptyStreamYieldsNoMatches) {
  auto schema = MakeSyntheticSchema(3, 1);
  const Pattern pattern = SimpleSeq(schema, 5);
  auto engine = CreateEngine(GetParam(), pattern);
  ASSERT_TRUE(engine.ok());
  MatchSet out;
  EXPECT_TRUE(engine.value()->Evaluate({}, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_P(AllEngines, SingleEventCannotMatchAPair) {
  auto schema = MakeSyntheticSchema(3, 1);
  EventStream stream(schema);
  stream.Append(0, 0.0, {1.0});
  const Pattern pattern = SimpleSeq(schema, 5);
  auto engine = CreateEngine(GetParam(), pattern);
  ASSERT_TRUE(engine.ok());
  MatchSet out;
  ASSERT_TRUE(engine.value()
                  ->Evaluate({stream.events().data(), stream.size()}, &out)
                  .ok());
  EXPECT_TRUE(out.empty());
}

TEST_P(AllEngines, WindowOfOneForbidsMultiEventMatches) {
  const EventStream stream = SmallStream(40, 101);
  const Pattern pattern = SimpleSeq(stream.schema_ptr(), 1);
  auto engine = CreateEngine(GetParam(), pattern);
  ASSERT_TRUE(engine.ok());
  MatchSet out;
  ASSERT_TRUE(engine.value()
                  ->Evaluate({stream.events().data(), stream.size()}, &out)
                  .ok());
  EXPECT_TRUE(out.empty());
}

TEST_P(AllEngines, BlankEventsAreIgnoredButConsumeIdSpace) {
  auto schema = MakeSyntheticSchema(3, 1);
  EventStream stream(schema);
  stream.Append(0, 0.0, {1.0});   // A, id 0
  for (int i = 0; i < 5; ++i) stream.AppendBlank(1.0);  // ids 1..5
  stream.Append(1, 6.0, {1.0});   // B, id 6

  // Window 7 spans the id gap; window 4 does not.
  auto engine_wide = CreateEngine(GetParam(), SimpleSeq(schema, 7));
  MatchSet wide;
  ASSERT_TRUE(engine_wide.value()
                  ->Evaluate({stream.events().data(), stream.size()},
                             &wide)
                  .ok());
  EXPECT_EQ(wide.size(), 1u);

  auto engine_narrow = CreateEngine(GetParam(), SimpleSeq(schema, 4));
  MatchSet narrow;
  ASSERT_TRUE(engine_narrow.value()
                  ->Evaluate({stream.events().data(), stream.size()},
                             &narrow)
                  .ok());
  EXPECT_TRUE(narrow.empty());
}

TEST_P(AllEngines, StatsAccumulateAcrossEvaluations) {
  const EventStream stream = SmallStream(50, 102);
  const Pattern pattern = SimpleSeq(stream.schema_ptr(), 6);
  auto engine = CreateEngine(GetParam(), pattern);
  ASSERT_TRUE(engine.ok());
  MatchSet out;
  const std::span<const Event> span(stream.events().data(), stream.size());
  ASSERT_TRUE(engine.value()->Evaluate(span, &out).ok());
  const uint64_t after_one = engine.value()->stats().events_processed;
  ASSERT_TRUE(engine.value()->Evaluate(span, &out).ok());
  EXPECT_EQ(engine.value()->stats().events_processed, 2 * after_one);
  engine.value()->ResetStats();
  EXPECT_EQ(engine.value()->stats().events_processed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Engines, AllEngines,
                         ::testing::Values(EngineKind::kNfa,
                                           EngineKind::kTree,
                                           EngineKind::kLazy));

TEST(KleeneBounds, MinRepsTwoRequiresTwoEvents) {
  auto schema = MakeSyntheticSchema(3, 1);
  EventStream stream(schema);
  stream.Append(0, 0, {0.0});  // A
  stream.Append(1, 1, {0.0});  // B (only one)
  stream.Append(2, 2, {0.0});  // C

  PatternBuilder b(schema);
  auto root = b.Seq(b.Prim("A", "a"),
                    b.Kleene(b.Prim("B", "k"), 2, 3),
                    b.Prim("C", "c"));
  const Pattern pattern =
      b.BuildOrDie(std::move(root), WindowSpec::Count(10));
  const MatchSet matches = EnumerateAllMatches(
      pattern, {stream.events().data(), stream.size()});
  EXPECT_TRUE(matches.empty());

  auto engine = CreateEngine(EngineKind::kNfa, pattern);
  MatchSet nfa_out;
  ASSERT_TRUE(engine.value()
                  ->Evaluate({stream.events().data(), stream.size()},
                             &nfa_out)
                  .ok());
  EXPECT_TRUE(nfa_out.empty());
}

TEST(KleeneBounds, MaxRepsCapsAbsorption) {
  auto schema = MakeSyntheticSchema(3, 1);
  EventStream stream(schema);
  stream.Append(0, 0, {0.0});                       // A
  for (int i = 0; i < 4; ++i) stream.Append(1, i + 1, {0.0});  // 4 × B
  stream.Append(2, 5, {0.0});                       // C

  PatternBuilder b(schema);
  auto root = b.Seq(b.Prim("A", "a"),
                    b.Kleene(b.Prim("B", "k"), 1, 2),
                    b.Prim("C", "c"));
  const Pattern pattern =
      b.BuildOrDie(std::move(root), WindowSpec::Count(10));
  const MatchSet matches = EnumerateAllMatches(
      pattern, {stream.events().data(), stream.size()});
  // Any match binds at most 2 of the 4 B events: C(4,1) + C(4,2) = 10.
  EXPECT_EQ(matches.size(), 10u);
  for (const Match& m : matches) {
    EXPECT_LE(m.ids.size(), 4u);  // a + ≤2 B + c
  }
}

TEST(NegationEdge, EmptyIntervalCannotViolate) {
  auto schema = MakeSyntheticSchema(3, 1);
  EventStream stream(schema);
  stream.Append(0, 0, {0.0});  // A
  stream.Append(1, 1, {0.0});  // B — adjacent: no room for a C between
  stream.Append(2, 2, {0.0});  // C after B is irrelevant

  PatternBuilder b(schema);
  auto root = b.Seq(b.Prim("A", "a"), b.Neg(b.Prim("C", "nc")),
                    b.Prim("B", "bb"));
  const Pattern pattern =
      b.BuildOrDie(std::move(root), WindowSpec::Count(10));
  const MatchSet matches = EnumerateAllMatches(
      pattern, {stream.events().data(), stream.size()});
  EXPECT_EQ(matches.size(), 1u);
}

TEST(TimeWindows, NfaRespectsTimestampSpanIndependentOfIds) {
  auto schema = MakeSyntheticSchema(3, 1);
  EventStream stream(schema);
  stream.Append(0, 0.0, {0.0});   // A at t=0
  stream.Append(1, 100.0, {0.0});  // B at t=100 — adjacent ids, far times
  const Pattern pattern = [&] {
    PatternBuilder b(schema);
    auto root = b.Seq(b.Prim("A", "a"), b.Prim("B", "bb"));
    return b.BuildOrDie(std::move(root), WindowSpec::Time(50.0));
  }();
  auto engine = CreateEngine(EngineKind::kNfa, pattern);
  MatchSet out;
  ASSERT_TRUE(engine.value()
                  ->Evaluate({stream.events().data(), stream.size()}, &out)
                  .ok());
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace dlacep
