#include "obs/stages.h"

#include <string>

namespace dlacep {
namespace obs {

namespace {

constexpr char kStageLatency[] = "dlacep_stage_latency_seconds";
constexpr char kStageHelp[] =
    "Per-stage wall-clock latency of the DLACEP pipeline";

Histogram* Stage(const char* stage) {
  return MetricsRegistry::Global().GetHistogram(kStageLatency,
                                                {{"stage", stage}},
                                                kStageHelp);
}

constexpr char kEventsTotal[] = "dlacep_runtime_events_total";
constexpr char kEventsHelp[] =
    "Event accounting: relayed+filtered+dropped+quarantined == ingested";

Counter* Events(const char* result) {
  return MetricsRegistry::Global().GetCounter(kEventsTotal,
                                              {{"result", result}},
                                              kEventsHelp);
}

constexpr char kWindowsTotal[] = "dlacep_runtime_windows_total";
constexpr char kWindowsHelp[] = "Window outcomes in the online runtime";

Counter* Windows(const char* kind) {
  return MetricsRegistry::Global().GetCounter(kWindowsTotal,
                                              {{"kind", kind}},
                                              kWindowsHelp);
}

constexpr char kHealthTotal[] = "dlacep_runtime_health_total";
constexpr char kHealthHelp[] = "Health guard events in the online runtime";

Counter* Health(const char* event) {
  return MetricsRegistry::Global().GetCounter(kHealthTotal,
                                              {{"event", event}},
                                              kHealthHelp);
}

constexpr char kCepHelp[] = "CEP engine work counters";

Counter* Cep(const char* what, const std::string& engine) {
  return MetricsRegistry::Global().GetCounter(
      std::string("dlacep_cep_") + what + "_total", {{"engine", engine}},
      kCepHelp);
}

}  // namespace

#define DLACEP_OBS_STAGE(fn, name)                    \
  Histogram* fn() {                                   \
    static Histogram* h = Stage(name);                \
    return h;                                         \
  }

DLACEP_OBS_STAGE(StageQueueWait, "queue_wait")
DLACEP_OBS_STAGE(StageFeatureBuild, "feature_build")
DLACEP_OBS_STAGE(StageNnForwardInfer, "nn_forward_infer")
DLACEP_OBS_STAGE(StageNnForwardTape, "nn_forward_tape")
DLACEP_OBS_STAGE(StageNnGemm, "nn_gemm")
DLACEP_OBS_STAGE(StageNnCell, "nn_cell")
DLACEP_OBS_STAGE(StageWindowMark, "window_mark")
DLACEP_OBS_STAGE(StageWindowMerge, "window_merge")
DLACEP_OBS_STAGE(StageCepEval, "cep_eval")
DLACEP_OBS_STAGE(StageCheckpointWrite, "checkpoint_write")

#undef DLACEP_OBS_STAGE

#define DLACEP_OBS_COUNTER(fn, maker, label) \
  Counter* fn() {                            \
    static Counter* c = maker(label);        \
    return c;                                \
  }

DLACEP_OBS_COUNTER(EventsIngested, Events, "ingested")
DLACEP_OBS_COUNTER(EventsDropped, Events, "dropped")
DLACEP_OBS_COUNTER(EventsRelayed, Events, "relayed")
DLACEP_OBS_COUNTER(EventsFiltered, Events, "filtered")
DLACEP_OBS_COUNTER(EventsQuarantined, Events, "quarantined")

DLACEP_OBS_COUNTER(WindowsClosed, Windows, "closed")
DLACEP_OBS_COUNTER(WindowsBoosted, Windows, "boosted")
DLACEP_OBS_COUNTER(WindowsShed, Windows, "shed")
DLACEP_OBS_COUNTER(WindowsQuarantined, Windows, "quarantined")
DLACEP_OBS_COUNTER(WindowsDegraded, Windows, "degraded")

DLACEP_OBS_COUNTER(HealthViolations, Health, "violation")
DLACEP_OBS_COUNTER(HealthDegrades, Health, "degrade")
DLACEP_OBS_COUNTER(HealthRecoveries, Health, "recovery")
DLACEP_OBS_COUNTER(ProbesRun, Health, "probe_run")
DLACEP_OBS_COUNTER(ProbesPassed, Health, "probe_passed")

#undef DLACEP_OBS_COUNTER

Counter* CheckpointsWritten() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "dlacep_runtime_checkpoints_total", {},
      "Checkpoints written by the online runtime");
  return c;
}

Counter* OverloadTransitions(int from, int to) {
  // Levels are small (0..3 today); cache pointers so the overload
  // controller's transition path stays lookup-free. Racy init is fine:
  // the registry find-or-create is idempotent.
  static constexpr int kMaxLevel = 8;
  static std::atomic<Counter*> cache[kMaxLevel][kMaxLevel] = {};
  auto make = [](int f, int t) {
    return MetricsRegistry::Global().GetCounter(
        "dlacep_overload_transitions_total",
        {{"from", std::to_string(f)}, {"to", std::to_string(t)}},
        "Overload controller level transitions");
  };
  if (from < 0 || from >= kMaxLevel || to < 0 || to >= kMaxLevel) {
    return make(from, to);
  }
  Counter* c = cache[from][to].load(std::memory_order_acquire);
  if (c == nullptr) {
    c = make(from, to);
    cache[from][to].store(c, std::memory_order_release);
  }
  return c;
}

Counter* CepEvents(const std::string& engine) {
  return Cep("events", engine);
}
Counter* CepPartialMatches(const std::string& engine) {
  return Cep("partial_matches", engine);
}
Counter* CepPartialMatchesPruned(const std::string& engine) {
  return Cep("partial_matches_pruned", engine);
}
Counter* CepTransitions(const std::string& engine) {
  return Cep("transitions", engine);
}
Counter* CepMatches(const std::string& engine) {
  return Cep("matches", engine);
}
Counter* CepBudgetAborts(const std::string& engine) {
  return Cep("budget_aborts", engine);
}

// Selection decisions are per (engine, pattern) and happen once per
// reselection period, not per event — the registry find-or-create per
// call is fine.
Counter* EngineSelected(const std::string& engine,
                        const std::string& pattern) {
  return MetricsRegistry::Global().GetCounter(
      "dlacep_engine_selected_total",
      {{"engine", engine}, {"pattern", pattern}},
      "Adaptive engine-selection decisions by chosen engine");
}

namespace {

// Shard label values are small dense integers; cache the resolved
// instruments for the first kMaxCachedShards like OverloadTransitions
// does, so the per-dispatch gauge set stays lookup-free. Racy init is
// fine: registry find-or-create is idempotent.
constexpr size_t kMaxCachedShards = 32;

template <typename T, typename Make>
T* CachedShardInstrument(std::atomic<T*>* cache, size_t shard,
                         const Make& make) {
  if (shard >= kMaxCachedShards) return make(shard);
  T* instrument = cache[shard].load(std::memory_order_acquire);
  if (instrument == nullptr) {
    instrument = make(shard);
    cache[shard].store(instrument, std::memory_order_release);
  }
  return instrument;
}

}  // namespace

Counter* ShardWindowsMarked(size_t shard) {
  static std::atomic<Counter*> cache[kMaxCachedShards] = {};
  return CachedShardInstrument(cache, shard, [](size_t s) {
    return MetricsRegistry::Global().GetCounter(
        "dlacep_shard_windows_total", {{"shard", std::to_string(s)}},
        "Windows marked per shard in the sharded runtime");
  });
}

Gauge* ShardRingDepth(size_t shard) {
  static std::atomic<Gauge*> cache[kMaxCachedShards] = {};
  return CachedShardInstrument(cache, shard, [](size_t s) {
    return MetricsRegistry::Global().GetGauge(
        "dlacep_shard_ring_depth", {{"shard", std::to_string(s)}},
        "Windows waiting in a shard's work ring");
  });
}

Histogram* ShardMarkLatency(size_t shard) {
  static std::atomic<Histogram*> cache[kMaxCachedShards] = {};
  return CachedShardInstrument(cache, shard, [](size_t s) {
    return MetricsRegistry::Global().GetHistogram(
        "dlacep_shard_mark_latency_seconds",
        {{"shard", std::to_string(s)}},
        "Per-filter-call wall time on a shard worker");
  });
}

Histogram* NnBatchWindows() {
  // Buckets 1, 2, 4, ...; every trunk forward observes 1.
  static Histogram* h = MetricsRegistry::Global().GetHistogram(
      "dlacep_nn_batch_windows", {},
      "Windows per NN trunk forward",
      HistogramOptions{/*min_value=*/1.0, /*num_buckets=*/12});
  return h;
}

Gauge* RegistryQueries() {
  static Gauge* g = MetricsRegistry::Global().GetGauge(
      "dlacep_registry_queries", {},
      "Queries currently registered in the serving registry");
  return g;
}

Counter* RegistrySnapshots() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "dlacep_registry_snapshots_total", {},
      "Registry snapshot swaps (one per register/unregister)");
  return c;
}

// Per-query instruments are labelled by the registered query name —
// dynamic label values, so these go through the registry's
// find-or-create every call. They are touched once per run at result
// publication, not on the hot path.
Counter* QueryMatches(const std::string& query) {
  return MetricsRegistry::Global().GetCounter(
      "dlacep_query_matches_total", {{"query", query}},
      "Matches extracted per registered query");
}

Counter* QueryMarkedEvents(const std::string& query) {
  return MetricsRegistry::Global().GetCounter(
      "dlacep_query_marked_events_total", {{"query", query}},
      "Deduplicated marked events per registered query");
}

Counter* QueryBreakerTrips(const std::string& query) {
  return MetricsRegistry::Global().GetCounter(
      "dlacep_query_breaker_trips_total", {{"query", query}},
      "Circuit-breaker trips per registered query");
}

Counter* QueryBudgetAborts(const std::string& query) {
  return MetricsRegistry::Global().GetCounter(
      "dlacep_query_budget_aborts_total", {{"query", query}},
      "Engine budget aborts attributed to a registered query");
}

Gauge* QueryBreakerState(const std::string& query) {
  return MetricsRegistry::Global().GetGauge(
      "dlacep_query_breaker_state", {{"query", query}},
      "Breaker state per query: 0=healthy 1=tripped 2=probing");
}

Gauge* QueryExtractCost(const std::string& query) {
  return MetricsRegistry::Global().GetGauge(
      "dlacep_query_extract_cost", {{"query", query}},
      "Extraction work (chunk runs + partial-match work) last run");
}

namespace {

constexpr char kServeEnginesTotal[] = "dlacep_serve_engines_total";
constexpr char kServeEnginesHelp[] =
    "Shared-CEP plan outcomes per query evaluation";

Counter* ServeEngines(const char* result) {
  return MetricsRegistry::Global().GetCounter(kServeEnginesTotal,
                                              {{"result", result}},
                                              kServeEnginesHelp);
}

}  // namespace

#define DLACEP_OBS_COUNTER(fn, maker, label) \
  Counter* fn() {                            \
    static Counter* c = maker(label);        \
    return c;                                \
  }

DLACEP_OBS_COUNTER(ServeEnginesRun, ServeEngines, "run")
DLACEP_OBS_COUNTER(ServeEnginesShared, ServeEngines, "shared")
DLACEP_OBS_COUNTER(ServeEnginesGuardPruned, ServeEngines, "guard_pruned")
DLACEP_OBS_COUNTER(ServeEnginesTypePruned, ServeEngines, "type_pruned")

#undef DLACEP_OBS_COUNTER

namespace {

constexpr char kServeChunksTotal[] = "dlacep_serve_extract_chunks_total";
constexpr char kServeChunksHelp[] =
    "Chunked extraction outcomes";

Counter* ServeChunks(const char* result) {
  return MetricsRegistry::Global().GetCounter(kServeChunksTotal,
                                              {{"result", result}},
                                              kServeChunksHelp);
}

}  // namespace

#define DLACEP_OBS_COUNTER(fn, maker, label) \
  Counter* fn() {                            \
    static Counter* c = maker(label);        \
    return c;                                \
  }

DLACEP_OBS_COUNTER(ServeChunksRun, ServeChunks, "run")
DLACEP_OBS_COUNTER(ServeChunksSkipped, ServeChunks, "skipped")
DLACEP_OBS_COUNTER(ServeChunksAborted, ServeChunks, "aborted")

#undef DLACEP_OBS_COUNTER

#define DLACEP_OBS_GAUGE(fn, name, help)                          \
  Gauge* fn() {                                                   \
    static Gauge* g =                                             \
        MetricsRegistry::Global().GetGauge(name, {}, help);       \
    return g;                                                     \
  }

DLACEP_OBS_GAUGE(QueueDepth, "dlacep_queue_depth",
                 "Events waiting in the ingest queue")
DLACEP_OBS_GAUGE(QueueCapacity, "dlacep_queue_capacity",
                 "Ingest queue capacity")
DLACEP_OBS_GAUGE(OverloadLevel, "dlacep_overload_level",
                 "Current overload controller level (0=normal)")
DLACEP_OBS_GAUGE(HealthDegraded, "dlacep_health_degraded",
                 "1 while the runtime is in degraded mode")
DLACEP_OBS_GAUGE(WindowsInFlight, "dlacep_windows_in_flight",
                 "Windows closed but not yet merged")

#undef DLACEP_OBS_GAUGE

void TouchStandardMetrics() {
  StageQueueWait();
  StageFeatureBuild();
  StageNnForwardInfer();
  StageNnForwardTape();
  StageNnGemm();
  StageNnCell();
  StageWindowMark();
  StageWindowMerge();
  StageCepEval();
  StageCheckpointWrite();

  EventsIngested();
  EventsDropped();
  EventsRelayed();
  EventsFiltered();
  EventsQuarantined();

  WindowsClosed();
  WindowsBoosted();
  WindowsShed();
  WindowsQuarantined();
  WindowsDegraded();

  HealthViolations();
  HealthDegrades();
  HealthRecoveries();
  ProbesRun();
  ProbesPassed();
  CheckpointsWritten();

  // Adjacent level pairs plus the degraded jumps the health guard uses.
  for (int level = 0; level < 3; ++level) {
    OverloadTransitions(level, level + 1);
    OverloadTransitions(level + 1, level);
  }
  OverloadTransitions(0, 3);
  OverloadTransitions(3, 0);

  for (const char* engine : {"nfa", "zstream-tree", "lazy", "adaptive"}) {
    CepEvents(engine);
    CepPartialMatches(engine);
    CepPartialMatchesPruned(engine);
    CepTransitions(engine);
    CepMatches(engine);
    CepBudgetAborts(engine);
    EngineSelected(engine, "default");
  }

  NnBatchWindows();

  RegistryQueries();
  RegistrySnapshots();
  ServeEnginesRun();
  ServeEnginesShared();
  ServeEnginesGuardPruned();
  ServeEnginesTypePruned();
  ServeChunksRun();
  ServeChunksSkipped();
  ServeChunksAborted();

  QueueDepth();
  QueueCapacity();
  OverloadLevel();
  HealthDegraded();
  WindowsInFlight();
}

}  // namespace obs
}  // namespace dlacep
