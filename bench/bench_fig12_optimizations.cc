// Figure 12: DLACEP vs state-of-the-art ECEP optimizations (ZStream-style
// cost-based tree evaluation and lazy frequency-ordered evaluation).
//
// Two baseline deployments are measured:
//   * batch — the whole span is evaluated at once with the id-window
//     constraint pruning joins. This is a *stronger* baseline than the
//     original streaming ZStream (no overlap is re-evaluated);
//   * streaming — the engine runs on overlapping batches of 2W stepped
//     by W with deduplication, the way a sliding-window deployment
//     actually executes.
//
// Workloads: the paper's QA11(SEQ), QA11(CONJ), QA12 (scaled), plus the
// partial-match-heavy QA1(j=5, k=32) regime where the optimizations'
// selective-anchor tricks stop helping — the regime the paper's W=150
// experiments operate in.

#include <cstdio>

#include "common/timer.h"
#include "workloads/queries_a.h"
#include "workloads/recipes.h"
#include "workloads/report.h"

#include "bench_json.h"

namespace dlacep {
namespace workloads {
namespace {

// Evaluates `engine` in streaming batches of 2W stepped by W (dedup by
// MatchSet), returning elapsed seconds.
double StreamingEvaluate(CepEngine* engine, const EventStream& stream,
                         size_t w, MatchSet* out) {
  Stopwatch watch;
  for (const WindowRange& range :
       CountWindows(stream.size(), 2 * w, w)) {
    DLACEP_CHECK(
        engine->Evaluate(stream.View(range.begin, range.size()), out)
            .ok());
  }
  return watch.ElapsedSeconds();
}

void RunCase(const std::string& label, const Pattern& pattern,
             const EventStream& train, const EventStream& test,
             const DlacepConfig& config) {
  const size_t w = pattern.window().count_size();

  // NFA ECEP baseline.
  auto nfa = CreateEngine(EngineKind::kNfa, pattern);
  DLACEP_CHECK(nfa.ok());
  MatchSet exact;
  Stopwatch nfa_watch;
  DLACEP_CHECK(nfa.value()
                   ->Evaluate({test.events().data(), test.size()}, &exact)
                   .ok());
  const double nfa_seconds = nfa_watch.ElapsedSeconds();
  std::printf("%-28s %-22s gain=%8.2f recall=%5.3f PM=%llu\n",
              label.c_str(), "nfa (ECEP baseline)", 1.0, 1.0,
              static_cast<unsigned long long>(
                  nfa.value()->stats().partial_matches));
  std::fflush(stdout);

  for (EngineKind kind : {EngineKind::kTree, EngineKind::kLazy}) {
    // Batch deployment.
    auto batch = CreateEngine(kind, pattern);
    DLACEP_CHECK(batch.ok());
    MatchSet batch_matches;
    Stopwatch batch_watch;
    DLACEP_CHECK(
        batch.value()
            ->Evaluate({test.events().data(), test.size()}, &batch_matches)
            .ok());
    const double batch_seconds = batch_watch.ElapsedSeconds();
    std::printf("%-28s %-22s gain=%8.2f recall=%5.3f PM=%llu\n",
                label.c_str(),
                (std::string(EngineKindName(kind)) + " batch").c_str(),
                nfa_seconds / std::max(batch_seconds, 1e-9),
                CompareMatchSets(exact, batch_matches).recall,
                static_cast<unsigned long long>(
                    batch.value()->stats().partial_matches));

    // Streaming deployment (2W batches stepped by W).
    auto streaming = CreateEngine(kind, pattern);
    DLACEP_CHECK(streaming.ok());
    MatchSet streaming_matches;
    const double streaming_seconds = StreamingEvaluate(
        streaming.value().get(), test, w, &streaming_matches);
    std::printf("%-28s %-22s gain=%8.2f recall=%5.3f PM=%llu\n",
                label.c_str(),
                (std::string(EngineKindName(kind)) + " streaming").c_str(),
                nfa_seconds / std::max(streaming_seconds, 1e-9),
                CompareMatchSets(exact, streaming_matches).recall,
                static_cast<unsigned long long>(
                    streaming.value()->stats().partial_matches));
    std::fflush(stdout);
  }

  const ExperimentRow row = RunDlacepExperiment(
      label, pattern, train, test, FilterKind::kEventNetwork, config);
  std::printf("%-28s %-22s gain=%8.2f recall=%5.3f PM=%llu (filt %.0f%%)\n",
              label.c_str(), "DLACEP event-network", row.throughput_gain,
              row.recall,
              static_cast<unsigned long long>(row.acep_partial_matches),
              row.filtering_ratio * 100);
  std::fflush(stdout);
}

int Run() {
  const EventStream train = GenerateStockStream(StockConfig(5000, 1001));
  const EventStream test = GenerateStockStream(StockConfig(3000, 2002));
  auto s = train.schema_ptr();

  DlacepConfig config = BenchConfig();
  config.oversample_positive = 4;
  config.event_threshold = 0.3;

  std::printf("=== Fig 12: DLACEP vs ECEP optimization baselines ===\n");
  RunCase("QA11(SEQ)", QA11(s, false, 6, 0.3, 3.0, 30), train, test,
          config);
  RunCase("QA11(CONJ)", QA11(s, true, 6, 0.5, 2.0, 24), train, test,
          config);
  RunCase("QA12", QA12(s, 6, 0.3, 3.0, 0.25, 4.0, 30), train, test,
          config);
  RunCase("QA1(j=5,k=32) heavy-PM", QA1(s, 5, 32, 0.9, 1.1, 4, 24),
          train, test, config);
  std::printf(
      "\n(paper regime = the heavy-PM row: with partial matches "
      "dominating, lazy evaluation degenerates to the NFA and DLACEP "
      "pulls ahead of both, while the window-bounded tree, which never "
      "builds the NFA's prefixes, keeps pace with DLACEP; on the "
      "selective QA11/QA12 instantiations at laptop scale the "
      "optimizations still cope)\n");
  return 0;
}

}  // namespace
}  // namespace workloads
}  // namespace dlacep

int main(int argc, char** argv) {
  dlacep::workloads::JsonReport::Init(argc, argv);
  return dlacep::workloads::JsonReport::Finish(dlacep::workloads::Run());
}
