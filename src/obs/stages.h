// Well-known instrument handles for the DLACEP pipeline.
//
// Instrumented code never pays a registry lookup on the hot path: each
// accessor below resolves its instrument once (function-local static)
// and returns the cached pointer forever after. The full metric naming
// scheme is documented in docs/ARCHITECTURE.md; the short version:
//
//   dlacep_stage_latency_seconds{stage=...}   per-stage latency histograms
//   dlacep_runtime_events_total{result=...}   event accounting counters
//   dlacep_runtime_windows_total{kind=...}    window outcome counters
//   dlacep_runtime_health_total{event=...}    health guard counters
//   dlacep_overload_transitions_total{from,to}
//   dlacep_cep_*_total{engine=...}            CEP engine work counters
//   dlacep_queue_depth / dlacep_overload_level / ... gauges
//
// TouchStandardMetrics() eagerly registers every family above so an
// exposition scrape always contains the complete schema, even when a
// run never exercised a path (e.g. the NN forward stages under the
// pass-through filter).

#ifndef DLACEP_OBS_STAGES_H_
#define DLACEP_OBS_STAGES_H_

#include "obs/metrics.h"

namespace dlacep {
namespace obs {

// --- Stage latency histograms (dlacep_stage_latency_seconds) ---------
Histogram* StageQueueWait();      ///< ingest push -> assembler pop
Histogram* StageFeatureBuild();   ///< featurizer Encode
Histogram* StageNnForwardInfer(); ///< frozen fast-path forward (per call)
Histogram* StageNnForwardTape();  ///< tape forward (per window)
Histogram* StageNnGemm();         ///< hoisted LSTM input-projection GEMM
Histogram* StageNnCell();         ///< LSTM per-step recurrence loop
Histogram* StageWindowMark();     ///< one window (or micro-batch) marked
Histogram* StageWindowMerge();    ///< one window merged (dedup + store)
Histogram* StageCepEval();        ///< CEP engine Evaluate
Histogram* StageCheckpointWrite();///< checkpoint serialization + write

// --- Runtime counters ------------------------------------------------
// dlacep_runtime_events_total{result=ingested|dropped|relayed|filtered|
//                                    quarantined}
Counter* EventsIngested();
Counter* EventsDropped();
Counter* EventsRelayed();
Counter* EventsFiltered();
Counter* EventsQuarantined();

// dlacep_runtime_windows_total{kind=closed|boosted|shed|quarantined|
//                                   degraded|timed_out}
Counter* WindowsClosed();
Counter* WindowsBoosted();
Counter* WindowsShed();
Counter* WindowsQuarantined();
Counter* WindowsDegraded();

// dlacep_runtime_health_total{event=violation|degrade|recovery|
//                                   probe_run|probe_passed}
Counter* HealthViolations();
Counter* HealthDegrades();
Counter* HealthRecoveries();
Counter* ProbesRun();
Counter* ProbesPassed();

// dlacep_runtime_checkpoints_total
Counter* CheckpointsWritten();

// dlacep_overload_transitions_total{from="L",to="L"} — one counter per
// (from, to) level pair, created on demand.
Counter* OverloadTransitions(int from, int to);

// --- CEP engine counters (labelled by engine name) -------------------
// dlacep_cep_events_total / dlacep_cep_partial_matches_total /
// dlacep_cep_partial_matches_pruned_total / dlacep_cep_transitions_total /
// dlacep_cep_matches_total, each {engine="nfa"|"zstream-tree"|"lazy"|
// "adaptive"}, all added to by PublishEngineStats (dlacep/extractor.h).
Counter* CepEvents(const std::string& engine);
Counter* CepPartialMatches(const std::string& engine);
Counter* CepPartialMatchesPruned(const std::string& engine);
Counter* CepTransitions(const std::string& engine);
Counter* CepMatches(const std::string& engine);
/// dlacep_cep_budget_aborts_total{engine}: Evaluate() calls aborted
/// with kBudgetExceeded under a cooperative engine budget.
Counter* CepBudgetAborts(const std::string& engine);
/// dlacep_engine_selected_total{engine,pattern}: adaptive-selection
/// decisions — one increment per cost-model (re)evaluation, labelled
/// with the engine it settled on, so the decision trail of an adaptive
/// run is observable and replayable from a scrape.
Counter* EngineSelected(const std::string& engine,
                        const std::string& pattern);

// --- Sharded runtime (labelled {shard="k"}) --------------------------
// dlacep_shard_windows_total{shard}: windows marked by shard k.
// dlacep_shard_ring_depth{shard}: work-ring depth, set by the router at
// each dispatch.
// dlacep_shard_mark_latency_seconds{shard}: wall time of each filter
// call (solo window or micro-batch) on shard k.
// Small shard indices resolve through a lock-free cache; larger ones
// fall back to the registry lookup.
Counter* ShardWindowsMarked(size_t shard);
Gauge* ShardRingDepth(size_t shard);
Histogram* ShardMarkLatency(size_t shard);

// --- Trunk forwards --------------------------------------------------
/// dlacep_nn_batch_windows — windows per trunk forward (geometric
/// buckets from 1), observed once per frozen trunk Forward call: its
/// count is the number of trunk forwards. Every forward takes one
/// window, so every observation is 1.
Histogram* NnBatchWindows();

// --- Multi-query serving (src/serve) ---------------------------------
// dlacep_registry_queries: queries currently registered.
// dlacep_registry_snapshots_total: snapshot swaps (one per mutation).
// dlacep_query_matches_total{query} / dlacep_query_marked_events_total
// {query}: per-query serving results, labelled by the registered name.
// dlacep_serve_engines_total{result=run|shared|guard_pruned|type_pruned}:
// shared-CEP plan outcomes — how many per-query engine evaluations
// actually ran vs. were served from a structural twin or pruned.
Gauge* RegistryQueries();
Counter* RegistrySnapshots();
Counter* QueryMatches(const std::string& query);
Counter* QueryMarkedEvents(const std::string& query);
Counter* ServeEnginesRun();
Counter* ServeEnginesShared();
Counter* ServeEnginesGuardPruned();
Counter* ServeEnginesTypePruned();

// --- Per-query fault isolation (src/serve breakers + chunked extraction)
// dlacep_query_breaker_trips_total{query} / dlacep_query_budget_aborts_
// total{query}: circuit-breaker activity per registered query name.
// dlacep_query_breaker_state{query}: 0=healthy 1=tripped 2=probing.
// dlacep_query_extract_cost{query}: accumulated extraction work
// (engine chunk runs + partial-match work) for the last Run().
// dlacep_serve_extract_chunks_total{result=run|skipped|aborted}: chunk
// outcomes of the chunked extraction.
Counter* QueryBreakerTrips(const std::string& query);
Counter* QueryBudgetAborts(const std::string& query);
Gauge* QueryBreakerState(const std::string& query);
Gauge* QueryExtractCost(const std::string& query);
Counter* ServeChunksRun();
Counter* ServeChunksSkipped();
Counter* ServeChunksAborted();

// --- Gauges ----------------------------------------------------------
Gauge* QueueDepth();       ///< dlacep_queue_depth (events waiting)
Gauge* QueueCapacity();    ///< dlacep_queue_capacity
Gauge* OverloadLevel();    ///< dlacep_overload_level (0..3)
Gauge* HealthDegraded();   ///< dlacep_health_degraded (0/1)
Gauge* WindowsInFlight();  ///< dlacep_windows_in_flight

/// Eagerly registers every family above (including the common overload
/// transition pairs and all three CEP engine label values) so a scrape
/// emits the complete schema regardless of which paths ran.
void TouchStandardMetrics();

}  // namespace obs
}  // namespace dlacep

#endif  // DLACEP_OBS_STAGES_H_
