// The push-based online runtime: turns the batch DlacepPipeline into a
// streaming service.
//
//   source ──(producer thread)──▶ bounded ingest queue
//          ──(router: watermark-closed windows)──▶ N shard workers
//          ──(sequence-ordered merge)──▶ CEP extraction
//
// One producer thread pulls events from a StreamSource, assigns arrival
// ids at ingest (§4.4), and pushes into a bounded RingQueue — blocking
// (lossless backpressure) or dropping (counted) when full. The caller's
// thread runs the router: it pops events, closes assembler windows by
// watermark (a window closes exactly when its last event has arrived,
// reproducing InputAssembler::Windows / CountWindows window by window),
// detaches each closed window and forwards it — the exchange stage —
// round-robin by dispatch sequence: window `seq` goes to shard
// `seq mod N`. Every window has the same size (MarkSize events), so
// this gives each shard an equal share of the marking. Window close
// stays global and serial (the count geometry is a property of the
// whole stream); only the marking is sharded. Each shard is a
// core-pinned worker thread with its own SPSC work and completion
// rings and its own nn::InferenceContext; it marks each run of
// adjacent level-0/1 windows of a burst (at most batch_size, possibly
// one) with one MarkBatchOnline call. The router merges
// completions strictly by dispatch sequence (the owner of the next
// sequence is `seq mod N`; a shard's completion ring is FIFO and hence
// sequence-ordered), so:
//
//   CORRECTNESS CONTRACT (tests/sharded_runtime_test.cc): with a
//   lossless producer and the overload controller disabled or never
//   triggered, the merged mark sequence, deduplicated relayed-event
//   count, and extracted MatchSet are byte-identical to
//   DlacepPipeline::Evaluate on the same stream, for every num_shards
//   and batch_size setting.
//
// One shard is the serial configuration: marking overlaps the router
// but never another window's marking. Overload, health, probe, and
// checkpoint decisions all stay on the router, which is what keeps them
// independent of the shard count.
//
// An OverloadController watches ingest-queue depth and end-to-end
// window latency and degrades with hysteresis — raised filter
// threshold first, then the shedding fallback — recovering when
// pressure clears (see overload.h). The number of windows in flight is
// bounded, which couples filtration pressure back to the ingest queue:
// when marking can't keep up, the queue fills, and either the producer
// blocks (backpressure) or drops are counted — never an unbounded
// buffer.
//
// FAULT TOLERANCE (see health.h, checkpoint.h, fault_injection.h):
// a HealthGuard validates every merged window's marks (kInvalidMark
// sentinels, coverage, mark-latency deadline, anomaly streaks). A
// violation quarantines the window — its events relay unfiltered, so
// recall for that window is 1.0 — and forces the controller into the
// kDegraded level, where every window relays unfiltered until probed
// recovery (periodic shadow-marked windows must pass N consecutive
// health checks) re-enables the filter. Source reads are retried with
// exponential backoff on kUnavailable; a persistent failure aborts
// ingestion cleanly (suffix windows are not fabricated) instead of
// crashing, so a final checkpoint still captures a restorable state.
// The accounting contract grows one term:
//   relayed + filtered + dropped + quarantined == ingested.
//
// CEP extraction runs once at end-of-stream over the deduplicated
// relayed events, which every run returns in OnlineResult together with
// the quarantined ids (the engines are batch evaluators); per-window
// latencies therefore measure ingest → merged-marks, which is the
// filtration service time the overload controller manages.

#ifndef DLACEP_RUNTIME_ONLINE_H_
#define DLACEP_RUNTIME_ONLINE_H_

#include <functional>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "dlacep/config.h"
#include "dlacep/drift.h"
#include "dlacep/extractor.h"
#include "dlacep/filter.h"
#include "dlacep/shedding_filter.h"
#include "nn/infer.h"
#include "runtime/checkpoint.h"
#include "runtime/health.h"
#include "runtime/overload.h"
#include "runtime/ring_queue.h"
#include "runtime/source.h"
#include "runtime/stats.h"

namespace dlacep {

/// Online drift monitoring knobs (flag-only: the runtime records drift
/// firings in RuntimeStats instead of triggering retraining — see
/// dlacep/drift.h for the retraining loop).
struct DriftConfig {
  bool enabled = false;
  /// Training-time marking rate the live rate is compared against.
  double reference_rate = 0.0;
  double tolerance = 0.1;
  size_t window_budget = 8;
};

struct OnlineConfig {
  size_t queue_capacity = 1024;

  /// false: the producer blocks while the queue is full (lossless
  /// backpressure). true: arrivals are dropped when full and counted in
  /// RuntimeStats (the emergency regime the paper's §6 discusses).
  bool drop_when_full = false;

  /// Shard workers (>= 1; 0 makes Run() return InvalidArgument). Each
  /// shard owns a single-producer/single-consumer work ring, a
  /// completion ring, its own nn::InferenceContext, and one worker
  /// thread pinned to a core (best-effort). Closed windows are
  /// dispatched round-robin: window `seq` to shard `seq % num_shards`.
  /// Marks, matches, and accounting are byte-identical at every shard
  /// count.
  size_t num_shards = 1;

  /// Windows dispatched but not yet merged before the router stops
  /// popping events. 0 = 2·shards + 2.
  size_t max_windows_in_flight = 0;

  /// Assembler geometry, as in DlacepConfig (0 = paper defaults 2W/W).
  size_t mark_size = 0;
  size_t step_size = 0;

  /// Maximum windows marked per filter call. A shard worker marks each
  /// run of adjacent level-0/1 windows of the burst it popped, at most
  /// batch_size long, with one MarkBatchOnline call (a lone window is a
  /// group of one; 1 = every window alone, the default) — a busy
  /// shard's backlog groups naturally, an idle shard marks solo, so
  /// grouping never holds a window back. The grouping is per-call
  /// dispatch only: network filters run one trunk forward per window.
  /// Shed and degraded windows (probes included) mark one at a time.
  /// Merge order is unchanged (windows retire strictly by dispatch
  /// sequence), so results stay byte-identical to batch_size = 1.
  size_t batch_size = 1;

  /// Pin shard worker k to core (k mod hardware concurrency). Failures
  /// (no affinity API, cgroup cpuset) are recorded in ShardStats and
  /// otherwise ignored.
  bool pin_shard_threads = true;

  /// Serve-layer hook (src/serve): skip the built-in single-pattern CEP
  /// pass entirely — the multi-query server extracts from
  /// OnlineResult::relayed_events itself. Default off.
  bool skip_extraction = false;

  /// Exact-CEP engine for the end-of-run extraction. kAdaptive lets a
  /// cost model over per-engine EngineStats pick the cheapest engine
  /// per pattern: the router feeds every closed window into a decayed
  /// per-type frequency estimator, the choice is re-evaluated every
  /// engine_options.adaptive_reselect_windows windows, and the decision
  /// trail lands in dlacep_engine_selected_total{engine,pattern} and
  /// RuntimeStats. Selection is a pure function of the event stream, so
  /// matches stay byte-identical to any static engine. Tree/lazy kinds
  /// abort construction (like the batch pipeline) when the pattern is
  /// outside their class; adaptive never does.
  EngineKind engine = EngineKind::kNfa;
  EngineOptions engine_options;

  OverloadConfig overload;
  DriftConfig drift;
  HealthConfig health;
  CheckpointConfig checkpoint;

  /// Test/fault-injection hook: called by the worker about to mark
  /// window `seq` (e.g. FaultInjector::OnWorkerWindow wedges one
  /// window). Must be thread-safe; empty = no-op.
  std::function<void(uint64_t)> worker_window_hook;
};

/// Outcome of one Run(): the extracted matches plus everything the
/// byte-equality tests compare against the batch path.
struct OnlineResult {
  MatchSet matches;
  /// Marked ids in deterministic merge order, duplicates from
  /// overlapping windows included — same layout as
  /// PipelineResult::marked_ids.
  std::vector<EventId> marked_ids;
  size_t marked_events = 0;  ///< deduplicated (== stats.events_relayed)
  /// The deduplicated relayed events in deterministic merge order (the
  /// extraction input), and the sorted ids that reached them through a
  /// quarantined or degraded window (recall-1.0 events a per-query
  /// extraction must always include). Filled by every run.
  std::vector<Event> relayed_events;
  std::vector<EventId> quarantined_ids;
  RuntimeStats stats;

  double filtering_ratio() const {
    return stats.events_appended == 0
               ? 0.0
               : 1.0 - static_cast<double>(marked_events) /
                           static_cast<double>(stats.events_appended);
  }
};

class OnlineDlacep {
 public:
  /// `filter` is borrowed and must outlive the runtime; it may be a
  /// trained network, a shedding baseline, the oracle, or pass-through
  /// (anything the batch pipeline accepts). Count windows only, like
  /// DlacepPipeline. The level-2 type-shedding fallback relays the
  /// types `pattern` references or, when `shed_patterns` is non-empty,
  /// the union of the types they reference (the serving layer passes
  /// every query registered at run start).
  OnlineDlacep(const Pattern& pattern, const StreamFilter* filter,
               const OnlineConfig& config,
               std::span<const Pattern> shed_patterns = {});

  /// Online-mode precondition surfaced as a Status (for user-input
  /// paths like the CLI): the streaming assembler requires a count
  /// window. The constructor CHECKs the same condition.
  static Status ValidateForOnline(const Pattern& pattern);

  /// Drains `source` to completion into `result`. May be called again
  /// with a new source; each call is an independent run with fresh
  /// stats. Checkpoint-restore and configuration errors (num_shards or
  /// queue_capacity of 0) return a Status; both are checked before any
  /// thread or ring is built.
  Status Run(StreamSource* source, OnlineResult* result);

  const OnlineConfig& config() const { return config_; }

 private:
  struct WindowRecord;  ///< one closed window, close → merge (online.cc)
  struct RunState;

  void CloseWindow(RunState* state, size_t begin, size_t end);
  void MergeOne(RunState* state, WindowRecord window);
  /// Merges every completed window that is next in window order, in one
  /// loop that blocks while more than `target_in_flight` windows are
  /// pending and only try-pops after that.
  /// The owner shard of sequence `seq` is `seq % num_shards_`, and a
  /// shard's completion ring is sequence-ordered (its worker is FIFO),
  /// so each step pops exactly the owner's ring. With a mark
  /// deadline configured, an overdue window is abandoned: the router's
  /// shadow record, flagged timed out, takes its place so a wedged shard
  /// can never stall the merge line.
  void DrainMerges(RunState* state, size_t target_in_flight);
  /// Shard worker body: burst-pops windows from the shard's work ring,
  /// marks them (one MarkBatchOnline call per run of level-0/1
  /// windows), and burst-pushes them to its completion ring.
  void ShardLoop(RunState* state, size_t shard_index);
  /// Quiesces in-flight windows and atomically persists a checkpoint.
  void WriteCheckpointNow(RunState* state);
  /// Seeds a fresh RunState from the checkpoint in config_.checkpoint.
  Status RestoreFrom(RunState* state, StreamSource* source);

  Pattern pattern_;
  OnlineConfig config_;
  const StreamFilter* filter_;  ///< not owned
  size_t mark_size_;
  size_t step_size_;
  size_t num_shards_;
  size_t max_in_flight_;
  /// One scratch arena per shard, reused across windows and runs.
  std::vector<std::unique_ptr<InferenceContext>> contexts_;
  /// Level-2 fallbacks, built once from the pattern(s)/config.
  TypeSheddingFilter type_shed_;
  RandomSheddingFilter random_shed_;
  CepExtractor extractor_;
};

}  // namespace dlacep

#endif  // DLACEP_RUNTIME_ONLINE_H_
