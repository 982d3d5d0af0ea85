// Unit tests for plan compilation: position layouts, precedence masks,
// group repetition, negation anchoring, condition splitting, the
// per-position check lists, and negation-violation checking.

#include <gtest/gtest.h>

#include "pattern/builder.h"
#include "pattern/plan.h"
#include "stream/generator.h"

namespace dlacep {
namespace {

std::shared_ptr<Schema> TestSchema() { return MakeSyntheticSchema(6, 1); }

TEST(PlanCompile, SeqProducesTotalOrderChain) {
  PatternBuilder b(TestSchema());
  auto root = b.Seq(b.Prim("A", "a"), b.Prim("B", "bb"), b.Prim("C", "c"));
  const Pattern pattern = b.BuildOrDie(std::move(root),
                                       WindowSpec::Count(10));
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());
  ASSERT_EQ(plans.value().size(), 1u);
  const LinearPlan& plan = plans.value()[0];
  ASSERT_EQ(plan.num_positions(), 3u);
  EXPECT_EQ(plan.preds[0], 0u);
  EXPECT_EQ(plan.preds[1], 0b001u);
  EXPECT_EQ(plan.preds[2], 0b011u);
  EXPECT_FALSE(plan.group_repeat);
  EXPECT_TRUE(plan.negs.empty());
}

TEST(PlanCompile, ConjProducesUnorderedPositions) {
  PatternBuilder b(TestSchema());
  auto root = b.Conj(b.Prim("A", "a"), b.Prim("B", "bb"));
  const Pattern pattern = b.BuildOrDie(std::move(root),
                                       WindowSpec::Count(10));
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());
  const LinearPlan& plan = plans.value()[0];
  EXPECT_EQ(plan.preds[0], 0u);
  EXPECT_EQ(plan.preds[1], 0u);
}

TEST(PlanCompile, DisjYieldsOnePlanPerBranch) {
  PatternBuilder b(TestSchema());
  auto root = b.Disj(b.Seq(b.Prim("A", "a"), b.Prim("B", "bb")),
                     b.Prim("C", "c"));
  b.WhereCmp(1.0, "a", "vol", CmpOp::kLt, 1.0, "bb");
  const Pattern pattern = b.BuildOrDie(std::move(root),
                                       WindowSpec::Count(10));
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());
  ASSERT_EQ(plans.value().size(), 2u);
  // The condition over (a, bb) belongs to the first branch only.
  EXPECT_EQ(plans.value()[0].pos_conditions.size(), 1u);
  EXPECT_EQ(plans.value()[1].pos_conditions.size(), 0u);
}

TEST(PlanCompile, KleenePrimitiveInsideSeq) {
  PatternBuilder b(TestSchema());
  auto root = b.Seq(b.Prim("A", "a"),
                    b.Kleene(b.Prim("B", "k"), 2, 5),
                    b.Prim("C", "c"));
  const Pattern pattern = b.BuildOrDie(std::move(root),
                                       WindowSpec::Count(10));
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());
  const LinearPlan& plan = plans.value()[0];
  ASSERT_EQ(plan.num_positions(), 3u);
  EXPECT_TRUE(plan.positions[1].kleene);
  EXPECT_EQ(plan.positions[1].min_reps, 2u);
  EXPECT_EQ(plan.positions[1].max_reps, 5u);
}

TEST(PlanCompile, TopLevelKcSeqSetsGroupRepeat) {
  PatternBuilder b(TestSchema());
  auto root = b.Kleene(b.Seq(b.Prim("A", "a"), b.Prim("B", "bb")), 1, 4);
  const Pattern pattern = b.BuildOrDie(std::move(root),
                                       WindowSpec::Count(10));
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());
  const LinearPlan& plan = plans.value()[0];
  EXPECT_TRUE(plan.group_repeat);
  EXPECT_EQ(plan.group_max_reps, 4u);
  EXPECT_EQ(plan.num_positions(), 2u);
}

TEST(PlanCompile, NegationAnchorsBetweenNeighbors) {
  PatternBuilder b(TestSchema());
  auto root = b.Seq(b.Prim("A", "a"), b.Neg(b.Prim("C", "nc")),
                    b.Neg(b.Prim("D", "nd")), b.Prim("B", "bb"));
  const Pattern pattern = b.BuildOrDie(std::move(root),
                                       WindowSpec::Count(10));
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());
  const LinearPlan& plan = plans.value()[0];
  ASSERT_EQ(plan.num_positions(), 2u);  // only positives
  ASSERT_EQ(plan.negs.size(), 2u);
  for (const NegSubPattern& neg : plan.negs) {
    EXPECT_EQ(neg.after_pos, 0);
    EXPECT_EQ(neg.before_pos, 1);
    ASSERT_EQ(neg.positions.size(), 1u);
  }
}

TEST(PlanCompile, NegConditionsAreSplitFromPositive) {
  PatternBuilder b(TestSchema());
  auto root = b.Seq(b.Prim("A", "a"), b.Neg(b.Prim("C", "nc")),
                    b.Prim("B", "bb"));
  b.WhereCmp(1.0, "a", "vol", CmpOp::kLt, 1.0, "bb");   // positive
  b.WhereCmp(1.0, "nc", "vol", CmpOp::kGt, 1.0, "a");   // negation
  const Pattern pattern = b.BuildOrDie(std::move(root),
                                       WindowSpec::Count(10));
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());
  const LinearPlan& plan = plans.value()[0];
  EXPECT_EQ(plan.pos_conditions.size(), 1u);
  EXPECT_EQ(plan.neg_conditions.size(), 1u);
}

TEST(PlanCompile, MultiTypePositionsCarryTheirSets) {
  PatternBuilder b(TestSchema());
  auto root = b.Seq(b.PrimAnyOf({"A", "B", "C"}, "x"), b.Prim("D", "y"));
  const Pattern pattern = b.BuildOrDie(std::move(root),
                                       WindowSpec::Count(10));
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());
  const PlanPosition& pos = plans.value()[0].positions[0];
  EXPECT_EQ(pos.types.size(), 3u);
  EXPECT_TRUE(pos.Matches(0));
  EXPECT_TRUE(pos.Matches(2));
  EXPECT_FALSE(pos.Matches(3));
}

TEST(ReadyForPruning, RequiresEqualKleeneListLengths) {
  // a.vol < bb.vol over one KC(SEQ) group: both variables bind lists, so
  // the compiled check is aligned (prunable only while the lists have
  // equal lengths), has no flat lowering, and is re-checked at emission.
  PatternBuilder b(TestSchema());
  auto root = b.Kleene(b.Seq(b.Prim("A", "a"), b.Prim("B", "bb")), 1, 3);
  b.WhereCmp(1.0, "a", "vol", CmpOp::kLt, 1.0, "bb");
  const Pattern pattern = b.BuildOrDie(std::move(root),
                                       WindowSpec::Count(10));
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());
  const LinearPlan& plan = plans.value()[0];
  ASSERT_EQ(plan.num_positions(), 2u);
  for (size_t p = 0; p < 2; ++p) {
    ASSERT_EQ(plan.checks[p].size(), 1u);
    const PositionCheck& check = plan.checks[p][0];
    EXPECT_EQ(check.condition, pattern.conditions()[0].get());
    EXPECT_EQ(check.needs, 0b11u);
    EXPECT_EQ(check.kleene, 0b11u);
    EXPECT_TRUE(check.aligned());
    EXPECT_FALSE(check.is_flat());
  }
  EXPECT_EQ(plan.emission_checks,
            std::vector<const Condition*>{pattern.conditions()[0].get()});
}

TEST(PositionChecks, BandConditionLowersToFlatComparisons) {
  PatternBuilder b(TestSchema());
  auto root = b.Seq(b.Prim("A", "a"), b.Prim("B", "bb"), b.Prim("C", "c"));
  b.Where(MakeBandCondition(b.Var("c"), 0, b.Var("a"), 0, 0.9, 1.1));
  const Pattern pattern = b.BuildOrDie(std::move(root),
                                       WindowSpec::Count(10));
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());
  const LinearPlan& plan = plans.value()[0];
  EXPECT_EQ(plan.checks[0].size(), 1u);
  EXPECT_TRUE(plan.checks[1].empty());
  ASSERT_EQ(plan.checks[2].size(), 1u);
  const PositionCheck& check = plan.checks[2][0];
  EXPECT_EQ(check.needs, 0b101u);
  EXPECT_FALSE(check.aligned());
  ASSERT_TRUE(check.is_flat());
  EXPECT_EQ(check.flat_end - check.flat_begin, 2u);
  EXPECT_TRUE(plan.emission_checks.empty());

  // 0.9 * a.vol < c.vol < 1.1 * a.vol, read by position.
  Event a(0, 0, 0, {10.0});
  Event c_in(2, 2, 2, {10.5});
  Event c_out(2, 2, 2, {12.0});
  const Event* inside[] = {&a, nullptr, &c_in};
  const Event* outside[] = {&a, nullptr, &c_out};
  EXPECT_TRUE(plan.HoldsFlat(check, inside));
  EXPECT_FALSE(plan.HoldsFlat(check, outside));
  EXPECT_EQ(plan.PositionsOf(1), 0b010u);
  EXPECT_EQ(plan.PositionsOf(99), 0u);
  EXPECT_EQ(plan.roots, 0b001u);
  EXPECT_EQ(plan.succs[0], 0b110u);
}

TEST(ViolatesNegationCheck, DetectsAndRespectsConditions) {
  auto schema = TestSchema();
  EventStream stream(schema);
  stream.Append(0, 0, {1.0});  // A  (id 0)
  stream.Append(2, 1, {5.0});  // C  (id 1) — the negated type
  stream.Append(1, 2, {2.0});  // B  (id 2)

  PatternBuilder b(schema);
  auto root = b.Seq(b.Prim("A", "a"), b.Neg(b.Prim("C", "nc")),
                    b.Prim("B", "bb"));
  b.WhereCmp(1.0, "nc", "vol", CmpOp::kGt, 1.0, "a");
  const Pattern pattern = b.BuildOrDie(std::move(root),
                                       WindowSpec::Count(10));
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());
  const LinearPlan& plan = plans.value()[0];

  VarId a_var = -1;
  VarId b_var = -1;
  for (size_t i = 0; i < pattern.vars().size(); ++i) {
    if (pattern.vars()[i].name == "a") a_var = static_cast<VarId>(i);
    if (pattern.vars()[i].name == "bb") b_var = static_cast<VarId>(i);
  }
  Binding binding(pattern.num_vars());
  binding.Bind(a_var, &stream[0]);
  binding.Bind(b_var, &stream[2]);

  const std::span<const Event> span(stream.events().data(), stream.size());
  // C's vol (5.0) > a's vol (1.0): the negated occurrence qualifies.
  EXPECT_TRUE(ViolatesNegation(plan, binding, span));
}

TEST(ViolatesNegationCheck, IgnoresNonQualifyingOccurrence) {
  auto schema = TestSchema();
  EventStream stream(schema);
  stream.Append(0, 0, {10.0});  // A with high vol
  stream.Append(2, 1, {5.0});   // C with lower vol — does not qualify
  stream.Append(1, 2, {2.0});   // B

  PatternBuilder b(schema);
  auto root = b.Seq(b.Prim("A", "a"), b.Neg(b.Prim("C", "nc")),
                    b.Prim("B", "bb"));
  b.WhereCmp(1.0, "nc", "vol", CmpOp::kGt, 1.0, "a");
  const Pattern pattern = b.BuildOrDie(std::move(root),
                                       WindowSpec::Count(10));
  auto plans = CompilePlans(pattern);
  ASSERT_TRUE(plans.ok());

  VarId a_var = -1;
  VarId b_var = -1;
  for (size_t i = 0; i < pattern.vars().size(); ++i) {
    if (pattern.vars()[i].name == "a") a_var = static_cast<VarId>(i);
    if (pattern.vars()[i].name == "bb") b_var = static_cast<VarId>(i);
  }
  Binding binding(pattern.num_vars());
  binding.Bind(a_var, &stream[0]);
  binding.Bind(b_var, &stream[2]);
  EXPECT_FALSE(ViolatesNegation(
      plans.value()[0], binding,
      std::span<const Event>(stream.events().data(), stream.size())));
}

TEST(PatternValidation, RejectsUnsupportedShapes) {
  {
    PatternBuilder b(TestSchema());
    auto root = b.Seq(b.Prim("A", "a"),
                      b.Kleene(b.Seq(b.Prim("B", "x"), b.Prim("C", "y")),
                               1, 2));
    EXPECT_FALSE(b.Build(std::move(root), WindowSpec::Count(5)).ok());
  }
  {
    PatternBuilder b(TestSchema());
    auto root = b.Conj(b.Prim("A", "a"),
                       b.Seq(b.Prim("B", "x"), b.Prim("C", "y")));
    EXPECT_FALSE(b.Build(std::move(root), WindowSpec::Count(5)).ok());
  }
}

}  // namespace
}  // namespace dlacep
