// Observability for the online runtime: a fixed-bucket latency
// histogram, the overload transition log, and the RuntimeStats snapshot
// the `serve`/`replay` CLI modes print at exit.
//
// The accounting contract (pinned by tests/runtime_test.cc): every
// event the source offered is either dropped at ingest, relayed to the
// CEP extractor, filtered out, or relayed via a quarantined window —
//   events_relayed + events_filtered + events_dropped_queue
//     + events_quarantined == events_ingested.

#ifndef DLACEP_RUNTIME_STATS_H_
#define DLACEP_RUNTIME_STATS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace dlacep {

/// Fixed-bucket latency histogram: geometric bucket upper bounds
/// doubling from 1µs, so Record() is O(1) with no allocation (safe on
/// the merge hot path) and percentiles are one cumulative scan.
/// Single-writer; readers see a consistent snapshot only after the run
/// finished.
class LatencyHistogram {
 public:
  /// 1µs · 2^26 ≈ 67s — anything slower lands in the last bucket.
  static constexpr size_t kBuckets = 27;

  void Record(double seconds);

  uint64_t count() const { return count_; }
  double max_seconds() const { return max_seconds_; }

  /// Upper bound (seconds) of the bucket a sample of `seconds` lands
  /// in: the first i with seconds <= BucketBound(i), else the overflow
  /// bucket. O(1) via the bit width of the microsecond value; exposed
  /// so tests can pin its boundary behavior against the definition
  /// above.
  static size_t BucketFor(double seconds);

  /// Upper bound (seconds) of bucket i.
  static double BucketBound(size_t i);

  /// Upper bound (seconds) of the bucket containing the nearest-rank
  /// percentile sample for `p` in [0, 100]. Returns 0 when empty. The
  /// returned bound always belongs to a non-empty bucket.
  double Percentile(double p) const;

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  double max_seconds_ = 0.0;
};

/// One overload state change, recorded by the controller.
struct OverloadTransition {
  uint64_t at_window = 0;  ///< index of the closed window that tripped it
  int from = 0;
  int to = 0;
  double queue_fraction = 0.0;
  double latency_seconds = 0.0;
};

/// Per-shard accounting in the online runtime. The router dispatches
/// closed windows round-robin by dispatch sequence (window `seq` goes
/// to shard `seq mod N`), so `windows_routed` differs by at most 1
/// across the shards of a run.
/// Writers: the router counts `windows_routed`, the shard's worker
/// thread the marking fields, and Run() copies `work_high_water` from
/// the work ring's high_water() after the shard threads join; the
/// snapshot is read only after that.
struct ShardStats {
  uint64_t windows_routed = 0;  ///< closed windows forwarded here
  uint64_t windows_marked = 0;  ///< windows the worker finished marking
  uint64_t filter_calls = 0;    ///< solo marks + micro-batch calls
  double mark_seconds = 0.0;    ///< wall time inside the filter
  size_t work_high_water = 0;   ///< deepest the work ring ever got
  bool pinned = false;          ///< core affinity applied successfully
};

/// End-of-run snapshot of the online runtime.
struct RuntimeStats {
  // Event accounting (see the contract above).
  uint64_t events_ingested = 0;       ///< offered by the source
  uint64_t events_dropped_queue = 0;  ///< lost to a full ingest queue
  uint64_t events_appended = 0;       ///< entered the assembler stream
  uint64_t events_relayed = 0;        ///< deduplicated marked events
  uint64_t events_filtered = 0;       ///< appended but never marked
  /// Relayed unfiltered because every window containing them was
  /// quarantined/degraded (disjoint from events_relayed: an event also
  /// healthily marked in an overlapping window counts as relayed).
  uint64_t events_quarantined = 0;

  size_t queue_capacity = 0;
  size_t queue_high_water = 0;

  uint64_t windows_closed = 0;
  uint64_t windows_boosted = 0;  ///< marked under a raised threshold
  uint64_t windows_shed = 0;     ///< marked by the shedding fallback
  uint64_t windows_quarantined = 0;  ///< failed a health check
  uint64_t windows_degraded = 0;     ///< relayed unfiltered while degraded

  uint64_t overload_escalations = 0;
  uint64_t overload_recoveries = 0;
  int overload_level_at_exit = 0;
  std::vector<OverloadTransition> transitions;

  // Health / fault-tolerance counters.
  uint64_t health_violations = 0;   ///< HealthGuard Inspect() failures
  uint64_t health_degrades = 0;     ///< times the runtime entered degraded
  uint64_t health_recoveries = 0;   ///< probed recoveries out of degraded
  uint64_t probes_run = 0;          ///< shadow probes while degraded
  uint64_t probes_passed = 0;
  uint64_t source_read_errors = 0;  ///< transient Read() failures observed
  uint64_t source_retries = 0;      ///< retry attempts (incl. successes)
  bool source_aborted = false;      ///< source gave up mid-stream
  uint64_t checkpoints_written = 0;

  uint64_t drift_flags = 0;  ///< drift monitor firings (see drift.h)

  /// One entry per shard. Sums to the global window counters: every
  /// closed window is routed to exactly one shard.
  std::vector<ShardStats> shards;

  /// Watermark-close → merged-marks latency per window.
  LatencyHistogram window_latency;

  size_t matches = 0;
  /// Engine that ran the extraction: the configured kind's name, or —
  /// under adaptive selection — the engine the cost model had selected
  /// when the stream drained.
  std::string engine_selected;
  /// Adaptive reselections that changed the engine choice (0 for static
  /// engines and for adaptive runs that never switched).
  uint64_t engine_switches = 0;
  double extract_seconds = 0.0;
  double elapsed_seconds = 0.0;  ///< whole Run() wall clock

  bool Accounted() const {
    return events_relayed + events_filtered + events_dropped_queue +
               events_quarantined ==
           events_ingested;
  }

  /// Multi-line human-readable report (printed by `serve`/`replay`).
  std::string ToString() const;
};

}  // namespace dlacep

#endif  // DLACEP_RUNTIME_STATS_H_
