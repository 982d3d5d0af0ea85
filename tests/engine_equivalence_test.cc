// Property tests: every production engine must emit exactly the match set
// of the brute-force oracle, across pattern shapes, seeds, and window
// sizes. This is the core correctness contract of the CEP substrate.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cep/engine.h"
#include "cep/oracle.h"
#include "cep/tree_engine.h"
#include "pattern/builder.h"
#include "stream/generator.h"
#include "stream/stocksim.h"
#include "test_util.h"

namespace dlacep {
namespace {

using testing_util::AscendingSeqPattern;
using testing_util::SmallStream;

std::span<const Event> SpanOf(const EventStream& stream) {
  return std::span<const Event>(stream.events().data(), stream.size());
}

void ExpectEngineMatchesOracle(EngineKind kind, const Pattern& pattern,
                               const EventStream& stream) {
  const MatchSet expected = EnumerateAllMatches(pattern, SpanOf(stream));
  auto engine = CreateEngine(kind, pattern);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  MatchSet actual;
  ASSERT_TRUE(engine.value()->Evaluate(SpanOf(stream), &actual).ok());
  EXPECT_EQ(expected.size(), actual.size())
      << "engine " << EngineKindName(kind) << " vs oracle on "
      << pattern.ToString();
  for (const Match& m : expected) {
    EXPECT_TRUE(actual.Contains(m))
        << EngineKindName(kind) << " missed " << m.ToString();
  }
  for (const Match& m : actual) {
    EXPECT_TRUE(expected.Contains(m))
        << EngineKindName(kind) << " invented " << m.ToString();
  }
}

// ---------------------------------------------------------------------
// Sequence patterns.

class SeqEquivalence
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, uint64_t>> {
};

TEST_P(SeqEquivalence, NfaTreeLazyMatchOracle) {
  const auto [len, window, seed] = GetParam();
  const EventStream stream = SmallStream(60, seed);
  const Pattern pattern =
      AscendingSeqPattern(stream.schema_ptr(), len, window);
  ExpectEngineMatchesOracle(EngineKind::kNfa, pattern, stream);
  ExpectEngineMatchesOracle(EngineKind::kTree, pattern, stream);
  ExpectEngineMatchesOracle(EngineKind::kLazy, pattern, stream);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SeqEquivalence,
    ::testing::Combine(::testing::Values(size_t{2}, size_t{3}, size_t{4}),
                       ::testing::Values(size_t{8}, size_t{15}, size_t{30}),
                       ::testing::Values(uint64_t{1}, uint64_t{2},
                                         uint64_t{3})));

// ---------------------------------------------------------------------
// Conjunction patterns.

class ConjEquivalence
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(ConjEquivalence, NfaTreeLazyMatchOracle) {
  const auto [window, seed] = GetParam();
  const EventStream stream = SmallStream(50, seed);
  PatternBuilder builder(stream.schema_ptr());
  auto root = builder.Conj(builder.Prim("A", "a"), builder.Prim("B", "b"),
                           builder.Prim("C", "c"));
  builder.WhereCmp(1.0, "a", "vol", CmpOp::kLt, 1.0, "c");
  const Pattern pattern =
      builder.BuildOrDie(std::move(root), WindowSpec::Count(window));
  ExpectEngineMatchesOracle(EngineKind::kNfa, pattern, stream);
  ExpectEngineMatchesOracle(EngineKind::kTree, pattern, stream);
  ExpectEngineMatchesOracle(EngineKind::kLazy, pattern, stream);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConjEquivalence,
    ::testing::Combine(::testing::Values(size_t{6}, size_t{12}, size_t{25}),
                       ::testing::Values(uint64_t{4}, uint64_t{5},
                                         uint64_t{6})));

// Conjunction with repeated types must not double-count {a1, a2} subsets.
TEST(ConjRepeatedTypes, MatchesOracle) {
  const EventStream stream = SmallStream(40, 11, /*num_types=*/2);
  PatternBuilder builder(stream.schema_ptr());
  auto root = builder.Conj(builder.Prim("A", "x"), builder.Prim("A", "y"),
                           builder.Prim("B", "z"));
  const Pattern pattern =
      builder.BuildOrDie(std::move(root), WindowSpec::Count(8));
  ExpectEngineMatchesOracle(EngineKind::kNfa, pattern, stream);
  ExpectEngineMatchesOracle(EngineKind::kTree, pattern, stream);
  ExpectEngineMatchesOracle(EngineKind::kLazy, pattern, stream);
}

// ---------------------------------------------------------------------
// Disjunction patterns.

class DisjEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DisjEquivalence, NfaTreeLazyMatchOracle) {
  const EventStream stream = SmallStream(60, GetParam());
  PatternBuilder builder(stream.schema_ptr());
  auto branch1 = builder.Seq(builder.Prim("A", "a1"), builder.Prim("B", "b1"));
  auto branch2 = builder.Seq(builder.Prim("C", "c2"), builder.Prim("D", "d2"),
                             builder.Prim("E", "e2"));
  auto root = builder.Disj(std::move(branch1), std::move(branch2));
  builder.WhereCmp(1.0, "a1", "vol", CmpOp::kLt, 1.0, "b1");
  builder.WhereCmp(1.0, "c2", "vol", CmpOp::kGt, 1.0, "e2");
  const Pattern pattern =
      builder.BuildOrDie(std::move(root), WindowSpec::Count(12));
  ExpectEngineMatchesOracle(EngineKind::kNfa, pattern, stream);
  ExpectEngineMatchesOracle(EngineKind::kTree, pattern, stream);
  ExpectEngineMatchesOracle(EngineKind::kLazy, pattern, stream);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DisjEquivalence,
                         ::testing::Values(uint64_t{7}, uint64_t{8},
                                           uint64_t{9}, uint64_t{10}));

// ---------------------------------------------------------------------
// Kleene closure (NFA + oracle only; tree/lazy reject by design).

class KleeneEquivalence
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(KleeneEquivalence, KcPrimitiveInsideSeq) {
  const auto [max_reps, seed] = GetParam();
  const EventStream stream = SmallStream(40, seed);
  PatternBuilder builder(stream.schema_ptr());
  auto root = builder.Seq(builder.Prim("A", "a"),
                          builder.Kleene(builder.Prim("B", "ks"), 1, max_reps),
                          builder.Prim("C", "c"));
  builder.WhereCmp(1.0, "a", "vol", CmpOp::kLt, 1.0, "ks");
  const Pattern pattern =
      builder.BuildOrDie(std::move(root), WindowSpec::Count(10));
  ExpectEngineMatchesOracle(EngineKind::kNfa, pattern, stream);
}

TEST_P(KleeneEquivalence, TopLevelKcOverSeq) {
  const auto [max_reps, seed] = GetParam();
  const EventStream stream = SmallStream(40, seed);
  PatternBuilder builder(stream.schema_ptr());
  auto root = builder.Kleene(
      builder.Seq(builder.Prim("A", "a"), builder.Prim("B", "b")), 1,
      max_reps);
  builder.WhereCmp(1.0, "a", "vol", CmpOp::kLt, 1.0, "b");
  const Pattern pattern =
      builder.BuildOrDie(std::move(root), WindowSpec::Count(14));
  ExpectEngineMatchesOracle(EngineKind::kNfa, pattern, stream);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KleeneEquivalence,
    ::testing::Combine(::testing::Values(size_t{2}, size_t{3}),
                       ::testing::Values(uint64_t{21}, uint64_t{22},
                                         uint64_t{23})));

// ---------------------------------------------------------------------
// Negation (NFA + oracle only).

class NegEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NegEquivalence, NegPrimitive) {
  const EventStream stream = SmallStream(50, GetParam());
  PatternBuilder builder(stream.schema_ptr());
  auto root = builder.Seq(builder.Prim("A", "a"),
                          builder.Neg(builder.Prim("C", "nc")),
                          builder.Prim("B", "b"));
  const Pattern pattern =
      builder.BuildOrDie(std::move(root), WindowSpec::Count(10));
  ExpectEngineMatchesOracle(EngineKind::kNfa, pattern, stream);
}

TEST_P(NegEquivalence, NegPrimitiveWithCondition) {
  const EventStream stream = SmallStream(50, GetParam());
  PatternBuilder builder(stream.schema_ptr());
  auto root = builder.Seq(builder.Prim("A", "a"),
                          builder.Neg(builder.Prim("C", "nc")),
                          builder.Prim("B", "b"));
  // Only high-volume C events forbid the match.
  builder.WhereCmp(1.0, "nc", "vol", CmpOp::kGt, 1.0, "a");
  const Pattern pattern =
      builder.BuildOrDie(std::move(root), WindowSpec::Count(10));
  ExpectEngineMatchesOracle(EngineKind::kNfa, pattern, stream);
}

TEST_P(NegEquivalence, NegNestedSeq) {
  const EventStream stream = SmallStream(50, GetParam());
  PatternBuilder builder(stream.schema_ptr());
  auto root = builder.Seq(
      builder.Prim("A", "a"),
      builder.Neg(builder.Seq(builder.Prim("C", "nc"),
                              builder.Prim("D", "nd"))),
      builder.Prim("B", "b"));
  const Pattern pattern =
      builder.BuildOrDie(std::move(root), WindowSpec::Count(12));
  ExpectEngineMatchesOracle(EngineKind::kNfa, pattern, stream);
}

INSTANTIATE_TEST_SUITE_P(Sweep, NegEquivalence,
                         ::testing::Values(uint64_t{31}, uint64_t{32},
                                           uint64_t{33}, uint64_t{34}));

// ---------------------------------------------------------------------
// Time-window patterns.

TEST(TimeWindowEquivalence, SeqMatchesOracle) {
  const EventStream stream = SmallStream(50, 41);
  PatternBuilder builder(stream.schema_ptr());
  auto root = builder.Seq(builder.Prim("A", "a"), builder.Prim("B", "b"));
  const Pattern pattern =
      builder.BuildOrDie(std::move(root), WindowSpec::Time(7.5));
  ExpectEngineMatchesOracle(EngineKind::kNfa, pattern, stream);
  ExpectEngineMatchesOracle(EngineKind::kTree, pattern, stream);
  ExpectEngineMatchesOracle(EngineKind::kLazy, pattern, stream);
}

// SEQ(top-3, top-3, rank 40–50) over a Zipf-skewed stock stream with a
// time window: the lazy and tree engines must find the NFA's matches
// (the tree's window joins key on timestamps here). On this stream
// (timestamps never decrease) lazy bounds each chain step's candidates
// to [max bound ts − W, min bound ts + W] by binary search; a scan of
// every later candidate examined 323,021 of them at W = 0.5 (the NFA
// 2,475 transitions).
Pattern TopTopRarePattern(std::shared_ptr<const Schema> schema, double w) {
  PatternBuilder b(std::move(schema));
  std::vector<TypeId> rare;
  for (TypeId t = 40; t < 50; ++t) rare.push_back(t);
  std::vector<PatternBuilder::Node> children;
  children.push_back(b.PrimAnyOfIds({0, 1, 2}, "s1"));
  children.push_back(b.PrimAnyOfIds({0, 1, 2}, "s2"));
  children.push_back(b.PrimAnyOfIds(rare, "s3"));
  auto root = b.SeqOf(std::move(children));
  return b.BuildOrDie(std::move(root), WindowSpec::Time(w));
}

TEST(TimeWindowEquivalence, LazyBoundsCandidatesByTimestamp) {
  StockSimConfig config;
  config.num_events = 6000;
  config.num_symbols = 64;
  config.seed = 4242;
  const EventStream stream = GenerateStockStream(config);
  for (const double w : {0.5, 2.0, 6.0}) {
    const Pattern pattern = TopTopRarePattern(stream.schema_ptr(), w);
    auto nfa = CreateEngine(EngineKind::kNfa, pattern);
    ASSERT_TRUE(nfa.ok());
    MatchSet expected;
    ASSERT_TRUE(nfa.value()->Evaluate(SpanOf(stream), &expected).ok());
    for (const EngineKind kind : {EngineKind::kLazy, EngineKind::kTree}) {
      auto engine = CreateEngine(kind, pattern);
      ASSERT_TRUE(engine.ok());
      MatchSet actual;
      ASSERT_TRUE(engine.value()->Evaluate(SpanOf(stream), &actual).ok());
      const std::string where =
          engine.value()->name() + " W = " + std::to_string(w);
      EXPECT_EQ(actual.size(), expected.size()) << where;
      EXPECT_EQ(actual.IntersectionSize(expected), expected.size()) << where;
      if (kind == EngineKind::kLazy && w == 0.5) {
        EXPECT_LT(engine.value()->stats().transitions, 323021u);
      }
    }
    if (w != 0.5) EXPECT_GT(expected.size(), 0u) << "W = " << w;
  }

  // Out-of-order timestamps: the lazy bound is off and the per-candidate
  // check decides; the tree's joins key on each item's earliest
  // timestamp whatever the order. Both against the oracle, on a stream
  // with a late event every 7 and on one whose timestamps decrease
  // throughout (where an id-ordered join would misplace its bounds).
  EventStream shuffled(stream.schema_ptr());
  EventStream reversed(stream.schema_ptr());
  for (size_t i = 0; i < 400; ++i) {
    const Event& e = stream[i];
    const double ts = i % 7 == 3 ? e.timestamp - 2.5 : e.timestamp;
    shuffled.Append(e.type, ts, e.attrs);
    reversed.Append(e.type, stream[399].timestamp - e.timestamp, e.attrs);
  }
  for (const EngineKind kind : {EngineKind::kLazy, EngineKind::kTree}) {
    ExpectEngineMatchesOracle(
        kind, TopTopRarePattern(shuffled.schema_ptr(), 6.0), shuffled);
    ExpectEngineMatchesOracle(
        kind, TopTopRarePattern(reversed.schema_ptr(), 6.0), reversed);
  }
}

// ---------------------------------------------------------------------
// Golden tree shapes: the cost-based plan search over a stream where type
// D is rare and A, B, C have distinct frequencies (A > B > C). The join
// tree anchors on the rare position wherever it sits.

EventStream SkewedStream() {
  EventStream stream(MakeSyntheticSchema(4, 1));
  // Per 20 events: A×11, B×6, C×2, D×1.
  const char kPeriod[] = "ABACABAAADABACABABAB";
  for (size_t i = 0; i < 400; ++i) {
    stream.Append(kPeriod[i % 20] - 'A', static_cast<double>(i),
                  {static_cast<double>(i % 7)});
  }
  return stream;
}

TEST(TreePlanShape, RarePositionAnchorsTheJoin) {
  const EventStream stream = SkewedStream();
  struct Case {
    bool conj;
    std::vector<std::string> types;  ///< one primitive per position
    const char* shape;
  };
  const Case cases[] = {
      {false, {"D", "A", "B", "C"}, "(((0 1) 2) 3)"},
      {false, {"A", "B", "D", "C"}, "(0 (1 (2 3)))"},
      {false, {"A", "C", "B", "D"}, "(0 (1 (2 3)))"},
      {true, {"B", "D", "A"}, "((0 1) 2)"},
  };
  for (const Case& c : cases) {
    PatternBuilder b(stream.schema_ptr());
    std::vector<PatternBuilder::Node> children;
    for (size_t i = 0; i < c.types.size(); ++i) {
      children.push_back(b.Prim(c.types[i], "v" + std::to_string(i)));
    }
    auto root = c.conj ? b.ConjOf(std::move(children))
                       : b.SeqOf(std::move(children));
    const Pattern pattern =
        b.BuildOrDie(std::move(root), WindowSpec::Count(10));
    auto engine = TreeEngine::Create(pattern, EngineOptions{});
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    MatchSet out;
    ASSERT_TRUE(engine.value()->Evaluate(SpanOf(stream), &out).ok());
    EXPECT_EQ(engine.value()->PlanTreeString(0), c.shape)
        << pattern.ToString();
  }
}

// ---------------------------------------------------------------------
// Engine capability boundaries.

TEST(EngineCapabilities, TreeAndLazyRejectKleene) {
  const EventStream stream = SmallStream(10, 1);
  PatternBuilder builder(stream.schema_ptr());
  auto root = builder.Seq(builder.Prim("A", "a"),
                          builder.Kleene(builder.Prim("B", "k"), 1, 2));
  const Pattern pattern =
      builder.BuildOrDie(std::move(root), WindowSpec::Count(5));
  EXPECT_FALSE(CreateEngine(EngineKind::kTree, pattern).ok());
  EXPECT_FALSE(CreateEngine(EngineKind::kLazy, pattern).ok());
  EXPECT_TRUE(CreateEngine(EngineKind::kNfa, pattern).ok());
}

}  // namespace
}  // namespace dlacep
