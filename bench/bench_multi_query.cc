// Multi-query serving bench: one shared-trunk MultiQueryServer serving
// 8 registered queries vs 8 independent single-query OnlineDlacep
// pipelines reusing the same trained filter.
//
// The shared side pays one trunk forward per assembler window and
// decodes 8 cheap per-query heads off the shared CRF marginals; the
// independent side pays the full forward 8 times. With the NN
// dominating the window cost the ratio approaches the query count
// (~3.8x measured locally). CI hard-gates on the deterministic
// signals — identical answers and the sharing counters — and holds the
// wall-clock speedup only to a noise-tolerant floor (see
// BENCH_multi_query in the workflow). Both sides run num_shards=1 so
// the comparison is
// work, not parallelism; a shard sweep afterwards reports how the
// shared server scales.
//
// The query set includes two structural-twin pairs (QA1 and QA3
// duplicates) so the shared-CEP dedup path is exercised: twins are
// extracted once and fanned out, visible in the sharing stats. Every
// configuration checks that per-query match sets are byte-identical to
// the independent runs — speed that changes answers doesn't count.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "dlacep/multi_pattern.h"
#include "runtime/online.h"
#include "runtime/source.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "workloads/queries_a.h"
#include "workloads/recipes.h"

#include "bench_json.h"

namespace dlacep {
namespace workloads {
namespace {

constexpr int kRepetitions = 3;

bool SameMatches(const MatchSet& a, const MatchSet& b) {
  return a.size() == b.size() && a.IntersectionSize(b) == a.size();
}

/// The 8-query serving mix: two structural-twin pairs (dedup path) plus
/// four distinct shapes (SEQ bands, one-sided, double band, DISJ).
/// QA2-style unconditioned sequences are deliberately absent — their
/// match blowup would turn the bench into an extraction stress test.
std::vector<Pattern> ServingMix(std::shared_ptr<const Schema> s, size_t w) {
  std::vector<Pattern> patterns;
  patterns.push_back(QA1(s, 4, 7, 0.9, 1.1, 3, w));
  patterns.push_back(QA1(s, 4, 7, 0.9, 1.1, 3, w));  // twin of q0
  patterns.push_back(QA1(s, 5, 5, 0.85, 1.15, 2, w));
  patterns.push_back(QA3(s, 5, 6, 3, 2, 1, 4, 0.9, 1.1, 1.5, w));
  patterns.push_back(QA3(s, 5, 6, 3, 2, 1, 4, 0.9, 1.1, 1.5, w));  // twin
  patterns.push_back(QA4(s, 4, 6, 3, 1, 3, 0.9, 1.1, 0.8, 1.25, w));
  patterns.push_back(QA10(s, 3, 8, 0.85, 1.2, w));
  patterns.push_back(QA11(s, false, 8, 0.8, 1.25, w));
  return patterns;
}

OnlineConfig ServingConfig(size_t max_window, size_t shards) {
  OnlineConfig config;
  config.num_shards = shards;
  config.queue_capacity = 4096;
  config.batch_size = 8;
  config.overload.enabled = false;
  // Pin the geometry both sides share; the serve path would resolve the
  // same values from the registry, the isolated runs would not.
  config.mark_size = 2 * max_window;
  config.step_size = max_window;
  return config;
}

int Run() {
  const EventStream train = GenerateStockStream(StockConfig(3000, 1001));
  const EventStream test = GenerateStockStream(StockConfig(3000, 2002));
  auto s = train.schema_ptr();
  const size_t w = 12;

  const std::vector<Pattern> patterns = ServingMix(s, w);
  // A serving-grade trunk: the paper's deployment regime has the BiLSTM
  // forward dominating the per-window cost, which is exactly what makes
  // trunk sharing pay. The micro trunks the other benches train would
  // leave this bench extraction-bound and measure nothing.
  DlacepConfig config = FastBenchConfig();
  config.network.hidden_dim = 96;
  config.train.max_epochs = 10;
  std::printf("training shared trunk over %zu queries...\n", patterns.size());
  MultiPatternDlacep multi(patterns, train, config);
  std::printf("trained: f1=%.3f max_window=%zu\n", multi.test_metrics().f1(),
              multi.max_window());

  // --- Independent baseline: 8 single-query pipelines, same filter. ---
  const OnlineConfig online = ServingConfig(multi.max_window(), 1);
  std::vector<MatchSet> independent(patterns.size());
  double independent_seconds = 0.0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    double total = 0.0;
    for (size_t q = 0; q < patterns.size(); ++q) {
      OnlineDlacep alone(patterns[q], multi.filter(), online);
      ReplaySource source(&test);
      OnlineResult result;
      if (const Status status = alone.Run(&source, &result); !status.ok()) {
        std::fprintf(stderr, "isolated q%zu: %s\n", q,
                     status.ToString().c_str());
        return 1;
      }
      total += result.stats.elapsed_seconds;
      if (rep == 0) independent[q] = std::move(result.matches);
    }
    if (rep == 0 || total < independent_seconds) independent_seconds = total;
  }
  const double independent_eps =
      static_cast<double>(test.size()) / std::max(independent_seconds, 1e-9);
  std::printf("%-24s %8.4fs  %9.0f ev/s\n", "independent x8",
              independent_seconds, independent_eps);

  // --- Shared serving: one registry, one trunk forward per window. ---
  serve::QueryRegistry registry;
  for (size_t q = 0; q < patterns.size(); ++q) {
    serve::QueryOptions options;
    options.name = "q" + std::to_string(q);
    auto id = registry.Register(patterns[q], options);
    if (!id.ok()) {
      std::fprintf(stderr, "register q%zu: %s\n", q,
                   id.status().ToString().c_str());
      return 1;
    }
  }

  bool all_identical = true;
  double shared_eps_at_1 = 0.0;
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    serve::ServeConfig serve_config;
    serve_config.online = ServingConfig(multi.max_window(), shards);
    serve::MultiQueryServer server(&registry, multi.filter(), multi.filter(),
                                   serve_config);
    double best_seconds = 0.0;
    serve::MultiQueryResult result;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      ReplaySource source(&test);
      serve::MultiQueryResult run;
      const Status status = server.Run(&source, &run);
      if (!status.ok()) {
        std::fprintf(stderr, "serve run: %s\n", status.ToString().c_str());
        return 1;
      }
      const double seconds =
          run.stats.elapsed_seconds + run.stats.extract_seconds;
      if (rep == 0 || seconds < best_seconds) {
        best_seconds = seconds;
        result = std::move(run);
      }
    }
    bool identical = result.queries.size() == independent.size();
    for (size_t q = 0; identical && q < result.queries.size(); ++q) {
      identical = SameMatches(result.queries[q].matches, independent[q]);
    }
    all_identical = all_identical && identical;
    const double eps = result.events_per_sec();
    if (shards == 1) shared_eps_at_1 = eps;
    std::printf("%-24s %8.4fs (stream=%.4f extract=%.4f)  %9.0f ev/s  "
                "speedup=%5.2fx  identical=%s\n",
                ("shared x8 shards=" + std::to_string(shards)).c_str(),
                best_seconds, result.stats.elapsed_seconds,
                result.stats.extract_seconds, eps,
                eps / std::max(independent_eps, 1e-9),
                identical ? "yes" : "NO");
    std::printf("  sharing: %zu partitions, %zu engines run, %zu shared, "
                "%zu guard-pruned, %zu type-pruned\n",
                result.sharing.partitions, result.sharing.engines_run,
                result.sharing.engines_shared, result.sharing.guard_pruned,
                result.sharing.type_pruned);
    std::printf("  headline: %zu queries x %.0f ev/s = %.0f query-events/s\n",
                result.queries.size(), eps, result.query_events_per_sec());
    std::fflush(stdout);
    const std::string key = "8 queries shards=" + std::to_string(shards);
    JsonReport::Metric(key, "serve_seconds", best_seconds);
    JsonReport::Metric(key, "events_per_sec_shared", eps);
    JsonReport::Metric(key, "query_events_per_sec",
                       result.query_events_per_sec());
    JsonReport::Metric(key, "speedup_vs_independent",
                       eps / std::max(independent_eps, 1e-9));
    JsonReport::Metric(key, "identical", identical ? 1.0 : 0.0);
    JsonReport::Metric(key, "engines_run",
                       static_cast<double>(result.sharing.engines_run));
    JsonReport::Metric(key, "engines_shared",
                       static_cast<double>(result.sharing.engines_shared));
    JsonReport::Metric(key, "total_matches",
                       static_cast<double>(result.total_matches()));
    // Fault-isolation counters: this bench runs unbudgeted, so all three
    // must stay 0 — a nonzero value means budgets/breakers leaked into
    // the perf path and the identical gate is no longer apples to apples.
    size_t degraded = 0;
    for (const serve::QueryResult& query : result.queries) {
      degraded += query.degraded ? 1 : 0;
    }
    JsonReport::Metric(key, "degraded_queries",
                       static_cast<double>(degraded));
    JsonReport::Metric(key, "breaker_trips",
                       static_cast<double>(result.sharing.breaker_trips));
    JsonReport::Metric(key, "budget_aborts",
                       static_cast<double>(result.sharing.budget_aborts));
  }

  // --- Adaptive serving: same 8 queries, per-query engine=adaptive. ---
  // Each shared-extraction unit's cost model picks its own engine
  // (auto-feed: every chunk Evaluate observes its span); answers must
  // stay byte-identical to the independent NFA runs, which CI gates.
  {
    serve::QueryRegistry adaptive_registry;
    for (size_t q = 0; q < patterns.size(); ++q) {
      serve::QueryOptions options;
      options.name = "q" + std::to_string(q);
      options.engine = EngineKind::kAdaptive;
      auto id = adaptive_registry.Register(patterns[q], options);
      if (!id.ok()) {
        std::fprintf(stderr, "register adaptive q%zu: %s\n", q,
                     id.status().ToString().c_str());
        return 1;
      }
    }
    serve::ServeConfig serve_config;
    serve_config.online = ServingConfig(multi.max_window(), 1);
    serve::MultiQueryServer server(&adaptive_registry, multi.filter(),
                                   multi.filter(), serve_config);
    double best_seconds = 0.0;
    serve::MultiQueryResult result;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      ReplaySource source(&test);
      serve::MultiQueryResult run;
      const Status status = server.Run(&source, &run);
      if (!status.ok()) {
        std::fprintf(stderr, "adaptive serve run: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      const double seconds =
          run.stats.elapsed_seconds + run.stats.extract_seconds;
      if (rep == 0 || seconds < best_seconds) {
        best_seconds = seconds;
        result = std::move(run);
      }
    }
    bool identical = result.queries.size() == independent.size();
    for (size_t q = 0; identical && q < result.queries.size(); ++q) {
      identical = SameMatches(result.queries[q].matches, independent[q]);
    }
    all_identical = all_identical && identical;
    const double eps = result.events_per_sec();
    std::printf("%-24s %8.4fs  %9.0f ev/s  identical=%s\n",
                "shared x8 adaptive", best_seconds, eps,
                identical ? "yes" : "NO");
    std::fflush(stdout);
    const std::string key = "8 queries adaptive shards=1";
    JsonReport::Metric(key, "serve_seconds", best_seconds);
    JsonReport::Metric(key, "events_per_sec_shared", eps);
    JsonReport::Metric(key, "identical", identical ? 1.0 : 0.0);
  }

  // The gate the CI perf job asserts on: shared serving of 8 queries at
  // one shard vs 8 independent pipelines, identical answers.
  const double speedup = shared_eps_at_1 / std::max(independent_eps, 1e-9);
  JsonReport::Metric("gate", "events_per_sec_independent", independent_eps);
  JsonReport::Metric("gate", "events_per_sec_shared", shared_eps_at_1);
  JsonReport::Metric("gate", "speedup", speedup);
  JsonReport::Metric("gate", "identical", all_identical ? 1.0 : 0.0);
  std::printf("gate: speedup=%.2fx (CI floor 1.5)  identical=%s\n",
              speedup, all_identical ? "yes" : "NO");
  return all_identical ? 0 : 1;
}

}  // namespace
}  // namespace workloads
}  // namespace dlacep

int main(int argc, char** argv) {
  dlacep::workloads::JsonReport::Init(argc, argv);
  return dlacep::workloads::JsonReport::Finish(dlacep::workloads::Run());
}
