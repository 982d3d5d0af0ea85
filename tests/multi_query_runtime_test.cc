// Integration tests for the multi-query serving runtime: per-query
// match sets must be byte-identical to isolated single-query
// OnlineDlacep runs — for every registered query, at every shard count,
// for the full 15-template Table 1/2 census, and with register/
// unregister churn racing live traffic (this file runs under TSan in
// CI, so the churn tests double as the data-race check).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dlacep/multi_pattern.h"
#include "dlacep/oracle_filter.h"
#include "online_test_util.h"
#include "runtime/online.h"
#include "runtime/source.h"
#include "serve/server.h"
#include "test_util.h"
#include "workloads/queries_a.h"
#include "workloads/queries_b.h"
#include "workloads/recipes.h"

namespace dlacep {
namespace {

using serve::MultiQueryResult;
using serve::MultiQueryServer;
using serve::QueryOptions;
using serve::QueryRegistry;
using serve::ServeConfig;
using testing_util::AscendingSeqPattern;
using testing_util::RunOnline;
using testing_util::SmallStream;

void ExpectSameMatches(const MatchSet& a, const MatchSet& b,
                       const std::string& label) {
  EXPECT_EQ(a.size(), b.size()) << label;
  EXPECT_EQ(a.IntersectionSize(b), a.size()) << label;
}

/// Lossless below-capacity config with the serve geometry made
/// explicit, so isolated runs line up window for window.
OnlineConfig LosslessConfig(size_t max_window, size_t shards) {
  OnlineConfig config;
  config.queue_capacity = 256;
  config.mark_size = 2 * max_window;
  config.step_size = max_window;
  config.num_shards = shards;
  config.overload.enabled = false;
  return config;
}

size_t MaxCountWindow(const std::vector<Pattern>& patterns) {
  size_t w = 0;
  for (const Pattern& pattern : patterns) {
    w = std::max(w, pattern.window().count_size());
  }
  return w;
}

/// Serves every pattern from one registry and checks each query's
/// matches against its isolated single-query reference at the given
/// shard count.
void CheckServeMatchesIsolated(const EventStream& stream,
                               const std::vector<Pattern>& patterns,
                               const StreamFilter* base,
                               const EventNetworkFilter* heads,
                               const std::vector<MatchSet>& reference,
                               size_t shards) {
  QueryRegistry registry;
  for (size_t q = 0; q < patterns.size(); ++q) {
    QueryOptions options;
    options.name = "q" + std::to_string(q);
    ASSERT_TRUE(registry.Register(patterns[q], options).ok());
  }

  ServeConfig config;
  config.online = LosslessConfig(MaxCountWindow(patterns), shards);
  MultiQueryServer server(&registry, base, heads, config);
  ReplaySource source(&stream);
  MultiQueryResult result;
  ASSERT_TRUE(server.Run(&source, &result).ok());
  EXPECT_TRUE(result.stats.Accounted()) << result.stats.ToString();

  ASSERT_EQ(result.queries.size(), patterns.size());
  for (size_t q = 0; q < patterns.size(); ++q) {
    ExpectSameMatches(result.queries[q].matches, reference[q],
                      "shards=" + std::to_string(shards) + " query=" +
                          result.queries[q].name);
  }
}

std::vector<MatchSet> IsolatedReferences(
    const EventStream& stream, const std::vector<Pattern>& patterns,
    const StreamFilter* filter) {
  std::vector<MatchSet> reference;
  const OnlineConfig config = LosslessConfig(MaxCountWindow(patterns), 1);
  for (const Pattern& pattern : patterns) {
    OnlineDlacep online(pattern, filter, config);
    ReplaySource source(&stream);
    reference.push_back(RunOnline(&online, &source).matches);
  }
  return reference;
}

// ---------------------------------------------------------------------
// Byte-identity across shard counts.

TEST(MultiQueryServing, TwinsAndDistinctQueriesMatchIsolatedAcrossShards) {
  const EventStream stream = SmallStream(2500, 41);
  auto schema = stream.schema_ptr();
  std::vector<Pattern> patterns;
  patterns.push_back(AscendingSeqPattern(schema, 2, 8));
  patterns.push_back(AscendingSeqPattern(schema, 2, 8));  // twin of q0
  patterns.push_back(AscendingSeqPattern(schema, 3, 12));

  PassThroughFilter pass;
  const std::vector<MatchSet> reference =
      IsolatedReferences(stream, patterns, &pass);
  EXPECT_FALSE(reference[0].empty());

  for (const size_t shards : {1u, 2u, 4u, 8u}) {
    CheckServeMatchesIsolated(stream, patterns, &pass, nullptr, reference,
                              shards);
  }
}

TEST(MultiQueryServing, SharingStatsCountTwinsGuardsAndPrunes) {
  const EventStream stream = SmallStream(1200, 42);
  auto schema = stream.schema_ptr();
  std::vector<Pattern> patterns;
  patterns.push_back(AscendingSeqPattern(schema, 3, 10));
  patterns.push_back(AscendingSeqPattern(schema, 3, 10));  // twin

  QueryRegistry registry;
  for (const Pattern& pattern : patterns) {
    ASSERT_TRUE(registry.Register(pattern).ok());
  }
  PassThroughFilter pass;
  ServeConfig config;
  config.online = LosslessConfig(MaxCountWindow(patterns), 1);
  MultiQueryServer server(&registry, &pass, nullptr, config);
  ReplaySource source(&stream);
  MultiQueryResult result;
  ASSERT_TRUE(server.Run(&source, &result).ok());

  // Twins over identical event sets: one engine run serves both, and
  // the 3-position SEQ group carries a witness guard that was checked.
  EXPECT_EQ(result.sharing.partitions, 1u);
  EXPECT_EQ(result.sharing.engines_run, 1u);
  EXPECT_EQ(result.sharing.engines_shared, 1u);
  EXPECT_EQ(result.sharing.guard_checks, 1u);
  EXPECT_FALSE(result.queries[0].shared);
  EXPECT_TRUE(result.queries[1].shared);
  ExpectSameMatches(result.queries[0].matches, result.queries[1].matches,
                    "twin fan-out");
}

TEST(MultiQueryServing, TrainedTrunkServesHeadsIdenticalToIsolatedRuns) {
  const EventStream train = SmallStream(1500, 43);
  const EventStream stream = SmallStream(600, 44);
  auto schema = train.schema_ptr();
  std::vector<Pattern> patterns;
  patterns.push_back(AscendingSeqPattern(schema, 2, 8));
  patterns.push_back(AscendingSeqPattern(schema, 3, 8));

  DlacepConfig config;
  config.network.hidden_dim = 8;
  config.network.num_layers = 1;
  config.train.max_epochs = 4;
  config.event_threshold = 0.2;  // permissive: keep the test non-empty
  MultiPatternDlacep system(patterns, train, config);

  const std::vector<MatchSet> reference =
      IsolatedReferences(stream, patterns, system.filter());
  for (const size_t shards : {1u, 2u}) {
    CheckServeMatchesIsolated(stream, patterns, system.filter(),
                              system.filter(), reference, shards);
  }
}

// serve8 runs the server at batch_size 8: a shard's grouped marking
// call must leave every query's recorded attribution and match set
// byte-identical to batch_size 1, at every shard count.
TEST(MultiQueryServing, BatchSizeLeavesAttributionAndMatchesIdentical) {
  const EventStream train = SmallStream(1500, 43);
  const EventStream stream = SmallStream(600, 44);
  auto schema = train.schema_ptr();
  std::vector<Pattern> patterns;
  patterns.push_back(AscendingSeqPattern(schema, 2, 8));
  patterns.push_back(AscendingSeqPattern(schema, 3, 8));

  DlacepConfig trunk_config;
  trunk_config.network.hidden_dim = 8;
  trunk_config.network.num_layers = 1;
  trunk_config.train.max_epochs = 4;
  MultiPatternDlacep system(patterns, train, trunk_config);
  // Permissive and distinct per query, so the attribution is non-empty
  // and differs between the queries.
  const std::vector<double> thresholds = {0.2, 0.3};
  auto register_all = [&](QueryRegistry* registry) {
    for (size_t q = 0; q < patterns.size(); ++q) {
      QueryOptions options;
      options.name = "q" + std::to_string(q);
      options.threshold = thresholds[q];
      ASSERT_TRUE(registry->Register(patterns[q], options).ok());
    }
  };

  struct Outcome {
    std::map<serve::QueryId, std::vector<EventId>> recorded;
    MultiQueryResult served;
  };
  auto serve = [&](size_t batch_size, size_t shards, Outcome* out) {
    OnlineConfig online = LosslessConfig(MaxCountWindow(patterns), shards);
    online.batch_size = batch_size;

    // The attribution, read off the serving filter the server runs.
    QueryRegistry marks_registry;
    register_all(&marks_registry);
    serve::ServeFilter filter(&marks_registry, system.filter(),
                              system.filter());
    OnlineConfig marks_only = online;
    marks_only.skip_extraction = true;
    OnlineDlacep runtime(patterns[0], &filter, marks_only);
    ReplaySource marks_source(&stream);
    RunOnline(&runtime, &marks_source);
    out->recorded = filter.RecordedMarks();

    QueryRegistry registry;
    register_all(&registry);
    ServeConfig config;
    config.online = online;
    MultiQueryServer server(&registry, system.filter(), system.filter(),
                            config);
    ReplaySource source(&stream);
    ASSERT_TRUE(server.Run(&source, &out->served).ok());
    ASSERT_EQ(out->served.queries.size(), patterns.size());
  };

  Outcome reference;
  serve(1, 1, &reference);
  ASSERT_EQ(reference.recorded.size(), patterns.size());
  for (const auto& [id, ids] : reference.recorded) {
    EXPECT_FALSE(ids.empty()) << "query " << id;
  }
  EXPECT_FALSE(reference.served.queries[0].matches.empty());
  for (const size_t batch_size : {1u, 4u}) {
    for (const size_t shards : {1u, 2u}) {
      const std::string label = "batch_size=" + std::to_string(batch_size) +
                                " shards=" + std::to_string(shards);
      Outcome got;
      serve(batch_size, shards, &got);
      EXPECT_EQ(got.recorded, reference.recorded) << label;
      for (size_t q = 0; q < patterns.size(); ++q) {
        EXPECT_EQ(got.served.queries[q].marked_events,
                  reference.served.queries[q].marked_events)
            << label << " q" << q;
        ExpectSameMatches(got.served.queries[q].matches,
                          reference.served.queries[q].matches,
                          label + " q" + std::to_string(q));
      }
    }
  }
}

// ---------------------------------------------------------------------
// The full Table 1/2 census: every template byte-identical at every
// shard count.

std::vector<Pattern> CensusPatterns(std::shared_ptr<const Schema> s) {
  using namespace workloads;
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
  // Table 2 templates transplanted onto the stock schema by rank range
  // (types 0..5 stand in for A..F).
  patterns.push_back(QA1(s, 6, 6, 0.85, 1.15, 2, 16));
  patterns.push_back(QA1(s, 5, 5, 0.85, 1.15, 2, 16));
  return patterns;
}

TEST(MultiQueryServing, AllFifteenTemplatesMatchIsolatedAcrossShards) {
  using namespace workloads;
  const EventStream stock = GenerateStockStream(StockConfig(700, 3003));
  std::vector<Pattern> patterns = CensusPatterns(stock.schema_ptr());
  ASSERT_EQ(patterns.size(), 15u);

  PassThroughFilter pass;
  const std::vector<MatchSet> reference =
      IsolatedReferences(stock, patterns, &pass);
  size_t nonempty = 0;
  for (const MatchSet& matches : reference) nonempty += !matches.empty();
  EXPECT_GE(nonempty, 5u) << "census stream too quiet to be meaningful";

  for (const size_t shards : {1u, 2u, 4u}) {
    CheckServeMatchesIsolated(stock, patterns, &pass, nullptr, reference,
                              shards);
  }
}

// ---------------------------------------------------------------------
// Per-query fault isolation: a budget blowup in one structural group
// never changes any other query's match set.

/// The most frequent non-blank event type — SEQ-ing several positions
/// of it inside one window is the canonical partial-match blowup.
TypeId HottestType(const EventStream& stream) {
  std::vector<size_t> counts(stream.schema_ptr()->num_types(), 0);
  for (const Event& event : stream.events()) {
    if (!event.is_blank()) ++counts[event.type];
  }
  return static_cast<TypeId>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
}

Pattern SameTypeBlowup(std::shared_ptr<const Schema> schema,
                       const std::string& type, size_t len, size_t window) {
  PatternBuilder builder(std::move(schema));
  std::vector<PatternBuilder::Node> children;
  for (size_t i = 0; i < len; ++i) {
    children.push_back(builder.Prim(type, "p" + std::to_string(i)));
  }
  return builder.BuildOrDie(builder.SeqOf(std::move(children)),
                            WindowSpec::Count(window));
}

TEST(MultiQueryServing, BudgetAbortIsolatesToTheOffendingStructuralGroup) {
  using namespace workloads;
  const EventStream stock = GenerateStockStream(StockConfig(700, 3003));
  auto s = stock.schema_ptr();
  std::vector<Pattern> patterns = CensusPatterns(s);
  const size_t census = patterns.size();
  // Window 100 over a 700-event stream: the blowup unit's chunk span
  // (8W) covers the whole stream, so its entire pm bill lands in one
  // chunk — guaranteed past any census-safe budget.
  patterns.push_back(
      SameTypeBlowup(s, s->TypeName(HottestType(stock)), 4, 100));

  PassThroughFilter pass;
  const std::vector<MatchSet> reference =
      IsolatedReferences(stock, patterns, &pass);
  EXPECT_FALSE(reference[census].empty());

  // Calibrate the budget from an unbudgeted serve: extract_cost is a
  // unit's whole-run pm work + chunk count, so any census chunk's pm is
  // strictly below census_max + 1 (no census abort possible), while the
  // blowup query's cost must dwarf it (so its chunks do abort).
  uint64_t census_max = 0;
  uint64_t blowup_cost = 0;
  {
    QueryRegistry registry;
    for (size_t q = 0; q < patterns.size(); ++q) {
      QueryOptions options;
      options.name = "q" + std::to_string(q);
      ASSERT_TRUE(registry.Register(patterns[q], options).ok());
    }
    ServeConfig config;
    config.online = LosslessConfig(MaxCountWindow(patterns), 1);
    MultiQueryServer server(&registry, &pass, nullptr, config);
    ReplaySource source(&stock);
    MultiQueryResult result;
    ASSERT_TRUE(server.Run(&source, &result).ok());
    for (size_t q = 0; q < census; ++q) {
      census_max = std::max(census_max, result.queries[q].extract_cost);
      EXPECT_FALSE(result.queries[q].degraded) << "q" << q;
    }
    blowup_cost = result.queries[census].extract_cost;
  }
  // cost = chunk_count + pm work; the blowup unit is a single chunk, so
  // its per-chunk pm is blowup_cost - 1 and must clear the budget.
  ASSERT_GT(blowup_cost, census_max + 2)
      << "blowup query not pathological enough to calibrate a budget";
  const uint64_t budget = census_max + 1;

  for (const size_t shards : {1u, 2u, 4u, 8u}) {
    QueryRegistry registry;
    for (size_t q = 0; q < patterns.size(); ++q) {
      QueryOptions options;
      options.name = "q" + std::to_string(q);
      ASSERT_TRUE(registry.Register(patterns[q], options).ok());
    }
    ServeConfig config;
    config.online = LosslessConfig(MaxCountWindow(patterns), shards);
    config.query_pm_budget = budget;
    config.breaker.trip_after = 1;
    MultiQueryServer server(&registry, &pass, nullptr, config);
    ReplaySource source(&stock);
    MultiQueryResult result;
    ASSERT_TRUE(server.Run(&source, &result).ok());
    EXPECT_TRUE(result.stats.Accounted());
    ASSERT_EQ(result.queries.size(), patterns.size());

    // Every census query: exact, undegraded, untouched by the blowup.
    for (size_t q = 0; q < census; ++q) {
      EXPECT_FALSE(result.queries[q].degraded)
          << "shards=" << shards << " q" << q;
      ExpectSameMatches(result.queries[q].matches, reference[q],
                        "budget shards=" + std::to_string(shards) +
                            " query=" + result.queries[q].name);
    }
    // The blowup query: aborted, tripped, degraded — and sound (its
    // surviving matches are a subset of the exact answer).
    const serve::QueryResult& blown = result.queries[census];
    EXPECT_TRUE(blown.degraded) << "shards=" << shards;
    EXPECT_GE(blown.budget_aborts, 1u) << "shards=" << shards;
    EXPECT_EQ(blown.breaker_state, serve::BreakerState::kTripped)
        << "shards=" << shards;
    EXPECT_GE(result.sharing.breaker_trips, 1u) << "shards=" << shards;
    EXPECT_EQ(blown.matches.IntersectionSize(reference[census]),
              blown.matches.size())
        << "shards=" << shards << ": degraded matches must be sound";

    if (shards != 1) continue;
    // Same server, second stream: the tripped breaker persists (the
    // blowup query starts suspended), the engines are reusable after
    // their aborts, and the census queries stay byte-identical.
    ReplaySource again(&stock);
    MultiQueryResult rerun;
    ASSERT_TRUE(server.Run(&again, &rerun).ok());
    for (size_t q = 0; q < census; ++q) {
      ExpectSameMatches(rerun.queries[q].matches, reference[q],
                        "rerun query=" + rerun.queries[q].name);
    }
    EXPECT_TRUE(rerun.queries[census].degraded);
  }
}

// ---------------------------------------------------------------------
// Quarantined windows relay to every query (per-query recall 1.0).

/// Wraps a trained trunk and pins its decode threshold to an absolute
/// value, so an isolated single-query run reproduces a registry
/// entry's QueryOptions::threshold.
class FixedThresholdFilter : public StreamFilter {
 public:
  FixedThresholdFilter(const EventNetworkFilter* inner, double threshold)
      : inner_(inner), offset_(threshold - inner->event_threshold()) {}

  std::string name() const override { return "fixed-threshold"; }

  std::vector<int> Mark(const EventStream& stream,
                        WindowRange range) const override {
    return inner_->Mark(stream, range);
  }

  std::vector<int> MarkOnline(const EventStream& window, size_t stream_begin,
                              InferenceContext* ctx,
                              double threshold_boost) const override {
    return inner_->MarkOnline(window, stream_begin, ctx,
                              threshold_boost + offset_);
  }

 private:
  const EventNetworkFilter* inner_;
  double offset_;
};

TEST(MultiQueryServing, QuarantinedWindowsRelayToEveryQuery) {
  const EventStream train = SmallStream(800, 47);
  const EventStream stream = SmallStream(1500, 48);
  auto schema = train.schema_ptr();
  std::vector<Pattern> patterns;
  patterns.push_back(AscendingSeqPattern(schema, 2, 8));
  patterns.push_back(AscendingSeqPattern(schema, 3, 12));

  DlacepConfig trunk_config;
  trunk_config.network.hidden_dim = 8;
  trunk_config.network.num_layers = 1;
  trunk_config.train.max_epochs = 2;
  MultiPatternDlacep system(patterns, train, trunk_config);

  // CRF marginals live in [0, 1]: threshold 0.0 marks every event and
  // 2.0 marks none, so per-query attribution maximally disagrees
  // regardless of training. The all-relay union trips the
  // anomaly-streak guard after a deterministic window count,
  // quarantining windows whose per-query marks were already recorded —
  // exactly the case where attribution must NOT capture an event for
  // the marking query alone.
  const std::vector<double> thresholds = {0.0, 2.0};

  auto make_config = [&](size_t shards) {
    OnlineConfig online = LosslessConfig(MaxCountWindow(patterns), shards);
    // One shard with one window in flight: every window's health
    // verdict lands before the next window's level is decided.
    if (shards == 1) online.max_windows_in_flight = 1;
    online.health.anomaly_streak = 3;
    online.health.probe_period = 2;
    online.health.probe_passes = 2;
    return online;
  };
  auto serve = [&](size_t shards, MultiQueryResult* result) {
    QueryRegistry registry;
    for (size_t q = 0; q < patterns.size(); ++q) {
      QueryOptions options;
      options.name = "q" + std::to_string(q);
      options.threshold = thresholds[q];
      ASSERT_TRUE(registry.Register(patterns[q], options).ok());
    }
    ServeConfig config;
    config.online = make_config(shards);
    MultiQueryServer server(&registry, system.filter(), system.filter(),
                            config);
    ReplaySource source(&stream);
    ASSERT_TRUE(server.Run(&source, result).ok());
    EXPECT_GT(result->stats.windows_quarantined, 0u) << "shards=" << shards;
    ASSERT_EQ(result->queries.size(), patterns.size());
  };

  // Lockstep path (one shard, one window in flight): windows close,
  // mark, and inspect in lockstep, so the streak/quarantine/probe
  // cadence is a pure function of the window count. Each isolated
  // reference with the matching pinned threshold sees uniform windows
  // throughout (all-relay for q0, all-blank for q1) and therefore the
  // same cadence — per-query extraction inputs and match sets must be
  // byte-identical.
  // (ExtractShared is shard-agnostic; with windows in flight the
  // per-window health levels depend on how far dispatch ran ahead of
  // the verdict, so exact cadence equality is not a testable contract
  // there.)
  std::vector<MatchSet> reference;
  std::vector<size_t> reference_inputs;
  for (size_t q = 0; q < patterns.size(); ++q) {
    FixedThresholdFilter fixed(system.filter(), thresholds[q]);
    OnlineConfig isolated = make_config(1);
    OnlineDlacep alone(patterns[q], &fixed, isolated);
    ReplaySource source(&stream);
    const OnlineResult result = RunOnline(&alone, &source);
    EXPECT_GT(result.stats.windows_quarantined, 0u) << "q" << q;
    reference.push_back(result.matches);
    reference_inputs.push_back(result.relayed_events.size());
  }
  EXPECT_FALSE(reference[0].empty());
  EXPECT_GT(reference_inputs[1], 0u);

  MultiQueryResult result;
  serve(1, &result);
  for (size_t q = 0; q < patterns.size(); ++q) {
    // The extraction input must be the isolated run's full relayed set:
    // a quarantined window reaches every query whole, including events
    // some other query's head happened to mark.
    EXPECT_EQ(result.queries[q].marked_events, reference_inputs[q])
        << "q" << q;
    ExpectSameMatches(result.queries[q].matches, reference[q],
                      "quarantine query=" + result.queries[q].name);
  }

  // Sharded path: same ExtractShared code, timing-dependent health
  // cadence — assert the timing-independent recall-1.0 invariants. The
  // all-marking query relays everything no matter which windows
  // quarantined, so its matches equal exact CEP; and every query's
  // extraction input covers at least the quarantine-only events (the
  // ids that ONLY reached the store through a quarantined window).
  PassThroughFilter pass;
  OnlineConfig exact_config = LosslessConfig(MaxCountWindow(patterns), 1);
  std::vector<MatchSet> exact;
  for (const Pattern& pattern : patterns) {
    OnlineDlacep online(pattern, &pass, exact_config);
    ReplaySource source(&stream);
    exact.push_back(RunOnline(&online, &source).matches);
  }

  MultiQueryResult sharded;
  serve(2, &sharded);
  ExpectSameMatches(sharded.queries[0].matches, exact[0],
                    "sharded all-relay query");
  for (size_t q = 0; q < patterns.size(); ++q) {
    EXPECT_GE(sharded.queries[q].marked_events,
              sharded.stats.events_quarantined)
        << "q" << q;
    EXPECT_LE(sharded.queries[q].matches.size(), exact[q].size()) << "q" << q;
  }
}

// ---------------------------------------------------------------------
// Level-2 shedding under the server: the type-shedding fallback relays
// the types of every query registered at run start, not only those of
// the runtime's geometry anchor (query 0).

TEST(MultiQueryServing, TypeSheddingFallbackKeepsEveryQuerysMatches) {
  const EventStream stream = SmallStream(2500, 49);
  auto schema = stream.schema_ptr();
  std::vector<Pattern> patterns;
  patterns.push_back(AscendingSeqPattern(schema, 2, 8));  // SEQ(A, B)
  patterns.push_back(
      AscendingSeqPattern(schema, 2, 8, /*first_type=*/2));  // SEQ(C, D)

  PassThroughFilter pass;
  auto serve = [&](bool overload, MultiQueryResult* result) {
    QueryRegistry registry;
    for (size_t q = 0; q < patterns.size(); ++q) {
      QueryOptions options;
      options.name = "q" + std::to_string(q);
      ASSERT_TRUE(registry.Register(patterns[q], options).ok());
    }
    ServeConfig config;
    config.online = LosslessConfig(MaxCountWindow(patterns), 1);
    config.online.max_windows_in_flight = 1;
    if (overload) {
      // Every window's latency counts as pressure, so the controller
      // climbs to level 2 after two dwell periods and stays there.
      config.online.overload.enabled = true;
      config.online.overload.latency_high_seconds = 1e-12;
      config.online.overload.shedding = SheddingPolicy::kType;
    }
    MultiQueryServer server(&registry, &pass, nullptr, config);
    ReplaySource source(&stream);
    ASSERT_TRUE(server.Run(&source, result).ok());
    EXPECT_TRUE(result->stats.Accounted()) << result->stats.ToString();
    ASSERT_EQ(result->queries.size(), patterns.size());
  };

  MultiQueryResult exact;
  serve(false, &exact);
  MultiQueryResult shed;
  serve(true, &shed);
  EXPECT_GT(shed.stats.windows_shed, 0u);
  EXPECT_GT(shed.stats.events_filtered, 0u) << "type E is never relayed";
  for (size_t q = 0; q < patterns.size(); ++q) {
    EXPECT_FALSE(exact.queries[q].matches.empty()) << "q" << q;
    ExpectSameMatches(shed.queries[q].matches, exact.queries[q].matches,
                      "type-shed q" + std::to_string(q));
    EXPECT_FALSE(shed.queries[q].degraded) << "q" << q;
  }
}

// ---------------------------------------------------------------------
// Register/unregister churn under live traffic (TSan coverage).

TEST(MultiQueryServing, ChurnLeavesStableQueriesByteIdentical) {
  const EventStream stream = SmallStream(3000, 45);
  auto schema = stream.schema_ptr();
  std::vector<Pattern> patterns;
  patterns.push_back(AscendingSeqPattern(schema, 2, 8));
  patterns.push_back(AscendingSeqPattern(schema, 3, 12));

  PassThroughFilter pass;
  const std::vector<MatchSet> reference =
      IsolatedReferences(stream, patterns, &pass);

  for (const size_t shards : {1u, 2u, 4u}) {
    QueryRegistry registry;
    std::vector<serve::QueryId> stable_ids;
    for (size_t q = 0; q < patterns.size(); ++q) {
      QueryOptions options;
      options.name = "stable" + std::to_string(q);
      auto id = registry.Register(patterns[q], options);
      ASSERT_TRUE(id.ok());
      stable_ids.push_back(id.value());
    }

    ServeConfig config;
    config.online = LosslessConfig(MaxCountWindow(patterns), shards);
    MultiQueryServer server(&registry, &pass, nullptr, config);

    // Churn thread: register/unregister a structural twin of q0 as fast
    // as the registry allows, racing the worker/shard threads' Acquire.
    std::atomic<bool> stop{false};
    std::thread churn([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto id = registry.Register(patterns[0]);
        if (id.ok()) (void)registry.Unregister(id.value());
      }
    });

    ReplaySource source(&stream);
    MultiQueryResult result;
    const Status status = server.Run(&source, &result);
    stop.store(true);
    churn.join();
    ASSERT_TRUE(status.ok());
    EXPECT_TRUE(result.stats.Accounted()) << result.stats.ToString();

    // The stable queries' matches must be exactly the isolated results
    // no matter how the churned twin's registrations interleaved.
    for (size_t q = 0; q < patterns.size(); ++q) {
      bool found = false;
      for (const serve::QueryResult& query : result.queries) {
        if (query.id != stable_ids[q]) continue;
        found = true;
        ExpectSameMatches(query.matches, reference[q],
                          "churn shards=" + std::to_string(shards) +
                              " query=" + query.name);
      }
      EXPECT_TRUE(found) << "stable query missing from results";
    }
  }
}

TEST(MultiQueryServing, EmptyRegistryFailsPrecondition) {
  const EventStream stream = SmallStream(100, 46);
  QueryRegistry registry;
  PassThroughFilter pass;
  ServeConfig config;
  MultiQueryServer server(&registry, &pass, nullptr, config);
  ReplaySource source(&stream);
  MultiQueryResult result;
  EXPECT_FALSE(server.Run(&source, &result).ok());
}

}  // namespace
}  // namespace dlacep
