// Unit tests for the PQL lexer and parser.

#include <gtest/gtest.h>

#include <ostream>

#include "pattern/lexer.h"
#include "pattern/parser.h"
#include "stream/generator.h"

namespace dlacep {
namespace {

std::shared_ptr<Schema> TestSchema() {
  return MakeSyntheticSchema(/*num_types=*/6, /*num_attrs=*/2);
}

TEST(Lexer, TokenizesAllTokenKinds) {
  auto tokens = Tokenize("SEQ(A a) 1.5e2 <= >= == != .. { } * + - .");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const Token& t : tokens.value()) kinds.push_back(t.kind);
  const std::vector<TokenKind> expected = {
      TokenKind::kIdent,  TokenKind::kLParen, TokenKind::kIdent,
      TokenKind::kIdent,  TokenKind::kRParen, TokenKind::kNumber,
      TokenKind::kLe,     TokenKind::kGe,     TokenKind::kEq,
      TokenKind::kNe,     TokenKind::kDotDot, TokenKind::kLBrace,
      TokenKind::kRBrace, TokenKind::kStar,   TokenKind::kPlus,
      TokenKind::kMinus,  TokenKind::kDot,    TokenKind::kEnd};
  EXPECT_EQ(kinds, expected);
}

TEST(Lexer, ParsesNumbersIncludingExponents) {
  auto tokens = Tokenize("0.55 150 1e3 2.5E-2");
  ASSERT_TRUE(tokens.ok());
  EXPECT_DOUBLE_EQ(tokens.value()[0].number, 0.55);
  EXPECT_DOUBLE_EQ(tokens.value()[1].number, 150);
  EXPECT_DOUBLE_EQ(tokens.value()[2].number, 1000);
  EXPECT_DOUBLE_EQ(tokens.value()[3].number, 0.025);
}

TEST(Lexer, DotDotDoesNotSwallowFractions) {
  auto tokens = Tokenize("1..3");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].kind, TokenKind::kNumber);
  EXPECT_EQ(tokens.value()[1].kind, TokenKind::kDotDot);
  EXPECT_EQ(tokens.value()[2].kind, TokenKind::kNumber);
}

TEST(Lexer, RejectsStrayCharacters) {
  EXPECT_FALSE(Tokenize("SEQ(A a) @").ok());
  EXPECT_FALSE(Tokenize("a = b").ok());
  EXPECT_FALSE(Tokenize("a ! b").ok());
}

TEST(Parser, ParsesSequenceWithConditionsAndWindow) {
  auto pattern = ParsePattern(
      "PATTERN SEQ(A a, B b, C c) WHERE 0.5 * a.vol < b.vol AND "
      "b.a1 < c.a1 WITHIN 42 EVENTS",
      TestSchema());
  ASSERT_TRUE(pattern.ok()) << pattern.status().ToString();
  EXPECT_EQ(pattern.value().root().kind, OpKind::kSeq);
  EXPECT_EQ(pattern.value().num_vars(), 3u);
  EXPECT_EQ(pattern.value().window().count_size(), 42u);
  EXPECT_EQ(pattern.value().conditions().size(), 1u);  // one AND tree
}

TEST(Parser, ChainedComparisonExpandsToConjunction) {
  auto pattern = ParsePattern(
      "SEQ(A a, B b, C c) WHERE a.vol < b.vol < c.vol WITHIN 10",
      TestSchema());
  ASSERT_TRUE(pattern.ok());
  // Rendered as two comparisons.
  const std::string text = pattern.value().ToString();
  EXPECT_NE(text.find("AND"), std::string::npos) << text;
}

TEST(Parser, DefaultWindowWhenWithinOmitted) {
  auto pattern = ParsePattern("SEQ(A a, B b)", TestSchema());
  ASSERT_TRUE(pattern.ok());
  EXPECT_EQ(pattern.value().window().kind, WindowKind::kCount);
  EXPECT_EQ(pattern.value().window().count_size(), 100u);
}

TEST(Parser, TimeWindow) {
  auto pattern =
      ParsePattern("SEQ(A a, B b) WITHIN 2.5 TIME", TestSchema());
  ASSERT_TRUE(pattern.ok());
  EXPECT_EQ(pattern.value().window().kind, WindowKind::kTime);
  EXPECT_DOUBLE_EQ(pattern.value().window().size, 2.5);
}

TEST(Parser, KleeneWithBounds) {
  auto pattern = ParsePattern(
      "SEQ(A a, KC(B ks){2..4}, C c) WITHIN 10", TestSchema());
  ASSERT_TRUE(pattern.ok());
  const PatternNode& kc = *pattern.value().root().children[1];
  EXPECT_EQ(kc.kind, OpKind::kKleene);
  EXPECT_EQ(kc.min_reps, 2u);
  EXPECT_EQ(kc.max_reps, 4u);
  EXPECT_TRUE(
      pattern.value().vars()[static_cast<size_t>(kc.children[0]->var)]
          .kleene);
}

TEST(Parser, NegationMarksVariables) {
  auto pattern = ParsePattern(
      "SEQ(A a, NEG(C nc), B b) WITHIN 10", TestSchema());
  ASSERT_TRUE(pattern.ok());
  bool found = false;
  for (const VarInfo& v : pattern.value().vars()) {
    if (v.name == "nc") {
      EXPECT_TRUE(v.negated);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Parser, AnyMultiTypePosition) {
  auto pattern = ParsePattern(
      "SEQ(ANY(A, B, C) x, D y) WHERE x.vol < y.vol WITHIN 10",
      TestSchema());
  ASSERT_TRUE(pattern.ok()) << pattern.status().ToString();
  EXPECT_EQ(pattern.value().root().children[0]->types.size(), 3u);
}

TEST(Parser, DisjAndConj) {
  auto disj = ParsePattern(
      "DISJ(SEQ(A a, B b), SEQ(C c, D d)) WITHIN 10", TestSchema());
  ASSERT_TRUE(disj.ok());
  EXPECT_EQ(disj.value().root().kind, OpKind::kDisj);

  auto conj =
      ParsePattern("CONJ(A a, B b, C c) WITHIN 10", TestSchema());
  ASSERT_TRUE(conj.ok());
  EXPECT_EQ(conj.value().root().kind, OpKind::kConj);
}

TEST(Parser, NumericOffsetsAndCoefficients) {
  auto pattern = ParsePattern(
      "SEQ(A a, B b) WHERE 2 * a.vol + 1.5 < b.vol AND b.vol < 10 "
      "WITHIN 10",
      TestSchema());
  ASSERT_TRUE(pattern.ok()) << pattern.status().ToString();
}

struct BadQuery {
  const char* query;
  const char* why;
};

// Prints a case as its reason. Without this gtest prints the struct's
// pointer bytes, which change with every load address, and ctest names
// each case after that printout.
void PrintTo(const BadQuery& bad, std::ostream* os) { *os << bad.why; }

class ParserErrors : public ::testing::TestWithParam<BadQuery> {};

TEST_P(ParserErrors, AreRejectedCleanly) {
  auto pattern = ParsePattern(GetParam().query, TestSchema());
  EXPECT_FALSE(pattern.ok()) << GetParam().why;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrors,
    ::testing::Values(
        BadQuery{"SEQ(A a, B b", "missing paren"},
        BadQuery{"SEQ(Z z)", "unknown type"},
        BadQuery{"SEQ(A)", "missing variable"},
        BadQuery{"SEQ(A a, A a)", "duplicate variable"},
        BadQuery{"SEQ(A a) WHERE q.vol < a.vol", "unknown variable"},
        BadQuery{"SEQ(A a) WHERE a.nope < 1", "unknown attribute"},
        BadQuery{"SEQ(A a) WHERE a.vol", "missing comparison"},
        BadQuery{"SEQ(A a) WITHIN 0 EVENTS", "zero window"},
        BadQuery{"SEQ(A a) WITHIN 2.5 EVENTS", "fractional count"},
        BadQuery{"SEQ(A a, KC(B k){3..1}, C c)", "inverted KC bounds"},
        BadQuery{"SEQ(A a) trailing", "trailing tokens"},
        BadQuery{"NEG(A a)", "bare negation"},
        BadQuery{"SEQ(NEG(A a), B b)", "NEG needs positive before"},
        BadQuery{"SEQ(A a, NEG(B b))", "NEG needs positive after"},
        BadQuery{"ANY(A, B)", "ANY without variable"}));

TEST(Parser, RoundTripThroughEvaluation) {
  // A parsed pattern must be directly usable by the engines (smoke).
  SyntheticConfig config;
  config.num_events = 50;
  config.seed = 3;
  const EventStream stream = GenerateSynthetic(config);
  auto pattern = ParsePattern(
      "SEQ(A a, B b) WHERE a.vol < b.vol WITHIN 10",
      stream.schema_ptr());
  ASSERT_TRUE(pattern.ok());
  EXPECT_TRUE(pattern.value().Validate().ok());
}

}  // namespace
}  // namespace dlacep
