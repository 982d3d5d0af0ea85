// Engine budget tests: the cooperative abort contract shared by every
// CEP engine, the adaptive one included —
//
//   * a blown partial-match budget aborts Evaluate() with
//     kBudgetExceeded and leaves the output MatchSet untouched
//     (all-or-nothing per call, no half-merged results), while the
//     aborted call still counts in evaluations and events_processed,
//     which the adaptive cost model reads;
//   * an aborted engine stays reusable: a later Evaluate() that fits
//     the budget returns exactly what a fresh engine returns;
//   * budget 0 disables everything — results and stats are identical
//     to the unbudgeted path;
//   * a generous budget never changes answers;
//   * deadline_seconds aborts long evaluations the same way.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cep/engine.h"
#include "common/status.h"
#include "test_util.h"

namespace dlacep {
namespace {

using testing_util::AscendingSeqPattern;
using testing_util::SmallStream;

const EngineKind kKinds[] = {EngineKind::kNfa, EngineKind::kTree,
                             EngineKind::kLazy, EngineKind::kAdaptive};

bool SameMatches(const MatchSet& a, const MatchSet& b) {
  return a.size() == b.size() && a.IntersectionSize(b) == a.size();
}

std::unique_ptr<CepEngine> MakeEngine(EngineKind kind,
                                      const Pattern& pattern,
                                      const EngineOptions& options) {
  auto engine = CreateEngine(kind, pattern, options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine.value());
}

MatchSet Reference(EngineKind kind, const Pattern& pattern,
                   const EventStream& stream) {
  auto engine = MakeEngine(kind, pattern, EngineOptions{});
  MatchSet matches;
  EXPECT_TRUE(
      engine->Evaluate({stream.events().data(), stream.size()}, &matches)
          .ok());
  return matches;
}

TEST(EngineBudget, BlownBudgetAbortsAndLeavesOutputUntouched) {
  const EventStream stream = SmallStream(3000, 17);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 3, 60);
  for (const EngineKind kind : kKinds) {
    EngineOptions options;
    options.partial_match_budget = 10;
    auto engine = MakeEngine(kind, pattern, options);
    // A match from an earlier call that the abort must leave in place.
    MatchSet matches;
    matches.Insert(Match({1, 2, 3}));
    const MatchSet before = matches;
    const Status status =
        engine->Evaluate({stream.events().data(), stream.size()}, &matches);
    EXPECT_EQ(status.code(), StatusCode::kBudgetExceeded)
        << engine->name() << ": " << status.ToString();
    EXPECT_TRUE(SameMatches(matches, before))
        << engine->name() << " touched the output past an abort: "
        << matches.size() << " matches";
    EXPECT_EQ(engine->stats().budget_aborts, 1u) << engine->name();
    EXPECT_EQ(engine->stats().evaluations, 1u) << engine->name();
    EXPECT_EQ(engine->stats().events_processed, stream.size())
        << engine->name();
  }
}

TEST(EngineBudget, AbortedEngineStaysReusable) {
  const EventStream big = SmallStream(3000, 17);
  const EventStream small = SmallStream(120, 23);
  const Pattern pattern = AscendingSeqPattern(big.schema_ptr(), 3, 60);
  for (const EngineKind kind : kKinds) {
    EngineOptions options;
    options.partial_match_budget = 2000;
    auto engine = MakeEngine(kind, pattern, options);
    MatchSet blown;
    EXPECT_EQ(
        engine->Evaluate({big.events().data(), big.size()}, &blown).code(),
        StatusCode::kBudgetExceeded)
        << engine->name();
    // The small span fits the budget: the same engine instance must now
    // answer it exactly as a fresh one does.
    MatchSet reused;
    EXPECT_TRUE(
        engine->Evaluate({small.events().data(), small.size()}, &reused)
            .ok())
        << engine->name();
    const MatchSet fresh = Reference(kind, pattern, small);
    EXPECT_TRUE(SameMatches(reused, fresh))
        << engine->name() << ": reused " << reused.size() << " vs fresh "
        << fresh.size();
  }
}

TEST(EngineBudget, ZeroAndGenerousBudgetsNeverChangeAnswers) {
  const EventStream stream = SmallStream(1200, 5);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 3, 40);
  for (const EngineKind kind : kKinds) {
    const MatchSet reference = Reference(kind, pattern, stream);
    for (const uint64_t budget : {uint64_t{0}, uint64_t{1} << 40}) {
      EngineOptions options;
      options.partial_match_budget = budget;
      auto engine = MakeEngine(kind, pattern, options);
      MatchSet matches;
      EXPECT_TRUE(
          engine->Evaluate({stream.events().data(), stream.size()}, &matches)
              .ok())
          << engine->name() << " budget=" << budget;
      EXPECT_TRUE(SameMatches(matches, reference))
          << engine->name() << " budget=" << budget;
      EXPECT_EQ(engine->stats().budget_aborts, 0u) << engine->name();
    }
  }
}

TEST(EngineBudget, DeadlineAbortsLongEvaluations) {
  const EventStream stream = SmallStream(4000, 29);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 3, 120);
  for (const EngineKind kind : kKinds) {
    EngineOptions options;
    options.deadline_seconds = 1e-9;  // any elapsed time blows it
    auto engine = MakeEngine(kind, pattern, options);
    MatchSet matches;
    const Status status =
        engine->Evaluate({stream.events().data(), stream.size()}, &matches);
    EXPECT_EQ(status.code(), StatusCode::kBudgetExceeded)
        << engine->name() << ": " << status.ToString();
    EXPECT_EQ(matches.size(), 0u) << engine->name();
  }
}

}  // namespace
}  // namespace dlacep
