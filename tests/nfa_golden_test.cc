// Golden test for the NFA engine: over the 13 Table-1 templates that
// workloads_test instantiates plus QB1-QB3, on small streams and seeds
// {1, 2, 3}, the NFA's match set must equal the brute-force oracle's and
// its work counters must equal recorded values. The counters pin the engine's exact
// extension order and pruning points, so any rewrite of its hot path that
// changes which candidates it examines, prunes or stores fails here even
// when the match set is unchanged.

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "cep/engine.h"
#include "cep/oracle.h"
#include "workloads/queries_a.h"
#include "workloads/queries_b.h"
#include "workloads/recipes.h"

namespace dlacep {
namespace workloads {
namespace {

constexpr size_t kStockEvents = 600;
constexpr size_t kSynthEvents = 3000;
constexpr size_t kWindow = 14;

struct GoldenCase {
  const char* name;
  uint64_t seed;
  uint64_t transitions;
  uint64_t partial_matches;
  uint64_t pruned;
  uint64_t emitted;
};

// The workloads_test instances of Table 1 (same parameters) and the
// Table 2 templates at window 60 with wide bands, so that most seeds
// complete some matches on the short synthetic stream.
Pattern PatternFor(const std::string& name,
                   std::shared_ptr<const Schema> s) {
  const size_t w = kWindow;
  if (name == "QA1") return QA1(s, 4, 7, 0.9, 1.1, 3, w);
  if (name == "QA2") return QA2(s, 6, w);
  if (name == "QA3") return QA3(s, 5, 10, 3, 2, 1, 4, 0.9, 1.1, 1.5, w);
  if (name == "QA4") return QA4(s, 4, 10, 3, 1, 3, 0.9, 1.1, 0.8, 1.25, w);
  if (name == "QA5") return QA5(s, 2, 10, 2, 0.8, 1.25, w, 2);
  if (name == "QA6") return QA6(s, 3, 10, 0.8, 1.25, w, 2);
  if (name == "QA7") return QA7(s, 2, 10, 2, 0.8, 1.25, w);
  if (name == "QA8") return QA8(s, 2, 10, 2, 0.8, 1.25, w);
  if (name == "QA9") return QA9(s, 3, 10, 20, 0.9, 1.1, 0.85, 1.2, w);
  if (name == "QA10") return QA10(s, 3, 8, 0.85, 1.2, w);
  if (name == "QA11") return QA11(s, false, 8, 0.5, 2.0, w);
  if (name == "QA11conj") return QA11(s, true, 8, 0.5, 2.0, w);
  if (name == "QA12") return QA12(s, 8, 0.5, 2.0, 0.4, 2.5, w);
  if (name == "QB1") return QB1(s, 60, 0.3, 3.0);
  if (name == "QB2") return QB2(s, 60, 0.3, 3.0);
  if (name == "QB3") return QB3(s, 60, 0.3, 3.0);
  ADD_FAILURE() << "unknown golden pattern " << name;
  return QA2(s, 6, w);
}

// Counters recorded from the NFA engine before its hot path was
// rewritten; they must not move.
const GoldenCase kGolden[] = {
  {"QA1", 1, 22875, 9819, 13056, 248},
  {"QA1", 2, 29848, 12967, 16881, 1218},
  {"QA1", 3, 29207, 11882, 17325, 515},
  {"QA2", 1, 29308, 29308, 0, 11331},
  {"QA2", 2, 46006, 46006, 0, 20349},
  {"QA2", 3, 45256, 45256, 0, 20692},
  {"QA3", 1, 15450, 4553, 10897, 495},
  {"QA3", 2, 18643, 5473, 13170, 504},
  {"QA3", 3, 17650, 5546, 12104, 788},
  {"QA4", 1, 20391, 6607, 13784, 264},
  {"QA4", 2, 27972, 10364, 17608, 1310},
  {"QA4", 3, 25028, 8213, 16815, 549},
  {"QA5", 1, 74550, 38260, 36290, 0},
  {"QA5", 2, 82760, 47418, 35342, 226},
  {"QA5", 3, 87834, 43914, 43920, 6},
  {"QA6", 1, 22253, 9578, 12675, 1254},
  {"QA6", 2, 48062, 31732, 16330, 8835},
  {"QA6", 3, 31740, 15509, 16231, 2312},
  {"QA7", 1, 74530, 38240, 36290, 307},
  {"QA7", 2, 81961, 46619, 35342, 4791},
  {"QA7", 3, 87655, 43735, 43920, 865},
  {"QA8", 1, 74530, 38240, 36290, 353},
  {"QA8", 2, 81961, 46619, 35342, 5393},
  {"QA8", 3, 87655, 43735, 43920, 1034},
  {"QA9", 1, 14449, 4068, 10381, 500},
  {"QA9", 2, 15403, 5038, 10365, 1307},
  {"QA9", 3, 15392, 4420, 10972, 792},
  {"QA10", 1, 26900, 11719, 15181, 502},
  {"QA10", 2, 34576, 16420, 18156, 3078},
  {"QA10", 3, 36036, 14577, 21459, 988},
  {"QA11", 1, 1555, 1527, 28, 5},
  {"QA11", 2, 1408, 1406, 2, 4},
  {"QA11", 3, 1308, 1306, 2, 1},
  {"QA11conj", 1, 16733, 14420, 2313, 392},
  {"QA11conj", 2, 11766, 10583, 1183, 244},
  {"QA11conj", 3, 13262, 11014, 2248, 133},
  {"QA12", 1, 3110, 3067, 43, 23},
  {"QA12", 2, 2816, 2812, 4, 8},
  {"QA12", 3, 2616, 2612, 4, 2},
  {"QB1", 1, 6027, 4368, 1659, 0},
  {"QB1", 2, 6869, 4501, 2368, 10},
  {"QB1", 3, 6916, 5087, 1829, 0},
  {"QB2", 1, 4331, 2570, 1761, 6},
  {"QB2", 2, 4539, 2810, 1729, 21},
  {"QB2", 3, 5105, 2986, 2119, 9},
  {"QB3", 1, 4281, 2523, 1758, 16},
  {"QB3", 2, 4403, 2713, 1690, 42},
  {"QB3", 3, 5029, 2910, 2119, 41},
};

// Names the case in test output (gtest would dump its bytes otherwise,
// including the name pointer, which changes with the load address).
void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << c.name << " seed " << c.seed;
}

class NfaGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(NfaGolden, MatchesReferenceAndRecordedCounters) {
  const GoldenCase& c = GetParam();
  const std::string name = c.name;
  const bool synthetic = name.rfind("QB", 0) == 0;
  const EventStream stream =
      synthetic ? SyntheticStream(kSynthEvents, c.seed)
                : GenerateStockStream(StockConfig(kStockEvents, c.seed));
  const Pattern pattern = PatternFor(name, stream.schema_ptr());
  const std::span<const Event> span(stream.events().data(), stream.size());

  auto nfa = CreateEngine(EngineKind::kNfa, pattern);
  ASSERT_TRUE(nfa.ok()) << nfa.status().ToString();
  MatchSet got;
  ASSERT_TRUE(nfa.value()->Evaluate(span, &got).ok());

  MatchSet want = EnumerateAllMatches(pattern, span);
  EXPECT_EQ(got.size(), want.size());
  EXPECT_EQ(got.IntersectionSize(want), want.size());

  const EngineStats& stats = nfa.value()->stats();
  EXPECT_EQ(stats.transitions, c.transitions);
  EXPECT_EQ(stats.partial_matches, c.partial_matches);
  EXPECT_EQ(stats.partial_matches_pruned, c.pruned);
  EXPECT_EQ(stats.matches_emitted, c.emitted);
  EXPECT_EQ(stats.transitions,
            stats.partial_matches + stats.partial_matches_pruned);
  EXPECT_EQ(stats.partial_matches_dropped, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Templates, NfaGolden, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name) + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace workloads
}  // namespace dlacep
