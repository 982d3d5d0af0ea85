// The multi-query serving runtime: one sharded OnlineDlacep run serving
// every query in a QueryRegistry.
//
//   registry snapshot ──▶ ServeFilter (one trunk forward per window,
//                          per-query heads, union marks to the runtime)
//   OnlineDlacep      ──▶ relayed events + quarantined ids
//                          (collect_relayed, skip_extraction)
//   shared extraction ──▶ per-query MatchSets via the SharedCepPlan:
//                          structural twins evaluated once, type-
//                          occupancy and 2-prefix witness pruning.
//
// Per-query event sets: a query owns the ids its head marked, plus
// every "unattributed" relayed event — events that reached the store
// without a per-query decode (quarantined/degraded windows, shed
// fallback marks). Unattributed events relay to every query, mirroring
// the single-query runtime's recall-1.0 fallback semantics. In a
// lossless healthy run the unattributed set is empty and each query's
// extraction input — hence MatchSet — is byte-identical to an isolated
// single-query run (see filter.h for the full contract).
//
// Queries unregistered mid-run keep their recorded attribution in the
// filter sink (so other queries' sets stay exact) but are not reported;
// queries registered mid-run are reported over the suffix of windows
// they were live for.

#ifndef DLACEP_SERVE_SERVER_H_
#define DLACEP_SERVE_SERVER_H_

#include <map>
#include <string>
#include <vector>

#include "runtime/online.h"
#include "serve/breaker.h"
#include "serve/filter.h"
#include "serve/registry.h"

namespace dlacep {
namespace serve {

struct ServeConfig {
  /// Runtime knobs (shards/batching/overload/health/...).
  /// mark_size/step_size of 0 resolve to 2W/W of the registry's widest
  /// query at Run() time; collect_relayed and skip_extraction are
  /// forced on. An isolated run compared against a serve run must use
  /// the same explicit geometry.
  OnlineConfig online;
  /// Per-chunk partial-match budget for every shared extraction engine
  /// run (EngineOptions::partial_match_budget). 0 disables: no aborts,
  /// breakers never trip, answers identical to the unbudgeted path.
  uint64_t query_pm_budget = 0;
  /// Per-chunk wall-clock deadline (EngineOptions::deadline_seconds).
  /// Timing-dependent — prefer the partial-match budget when the abort
  /// point must be deterministic.
  double query_deadline_seconds = 0.0;
  /// Circuit-breaker thresholds (trip_after / probe_period /
  /// probe_passes).
  BreakerConfig breaker;
};

/// One registered query's serving outcome.
struct QueryResult {
  QueryId id = 0;
  std::string name;
  MatchSet matches;
  size_t marked_events = 0;  ///< extraction input size (attributed + shared)
  bool shared = false;       ///< served from a structural twin's engine run
  /// True when this query's match set may be incomplete: its engine
  /// blew a budget, or its breaker kept it out of one or more chunk
  /// runs. Matches present are always real (no false positives) — the
  /// per-query analog of the runtime's degraded mode, except budgeted
  /// extraction trades recall for isolation instead of falling back.
  bool degraded = false;
  BreakerState breaker_state = BreakerState::kHealthy;
  uint64_t budget_aborts = 0;   ///< this Run()'s aborts charged to the query
  uint64_t breaker_trips = 0;   ///< breaker trips during this Run()
  uint64_t extract_cost = 0;    ///< fair-share cost units (runs + pm work)
};

/// Shared-CEP effectiveness counters for one Run().
struct SharingStats {
  size_t partitions = 0;      ///< (structural group × event set) units
  size_t engines_run = 0;     ///< engine evaluations actually executed
  size_t engines_shared = 0;  ///< queries served without their own run
  size_t guard_checks = 0;    ///< witness searches executed
  size_t guard_pruned = 0;    ///< queries emptied by a witness miss
  size_t type_pruned = 0;     ///< queries emptied by type occupancy
  /// Fair-share scheduler chunk outcomes (a unit's event span is
  /// evaluated in overlapping window-aligned chunks; see server.cc).
  size_t chunks_run = 0;
  size_t chunks_skipped = 0;  ///< every runnable member was suspended
  size_t budget_aborts = 0;   ///< chunks aborted with kBudgetExceeded
  size_t breaker_trips = 0;   ///< trips that occurred during this Run()
};

struct MultiQueryResult {
  std::vector<QueryResult> queries;
  RuntimeStats stats;  ///< extract_seconds covers the shared extraction
  SharingStats sharing;

  size_t total_matches() const;
  /// Streaming throughput including the shared extraction tail.
  double events_per_sec() const;
  /// The aggregate headline: queries/sec × events/sec, i.e. how many
  /// (query, event) pairs per second this one process serves.
  double query_events_per_sec() const {
    return static_cast<double>(queries.size()) * events_per_sec();
  }
};

class MultiQueryServer {
 public:
  /// `registry`, `base`, and `heads` are borrowed and must outlive the
  /// server; see ServeFilter for the base/heads contract.
  MultiQueryServer(QueryRegistry* registry, const StreamFilter* base,
                   const EventNetworkFilter* heads,
                   const ServeConfig& config);

  /// Drains `source` through the online runtime under the current
  /// registry (snapshots re-acquired per window, so concurrent
  /// register/unregister is served live), then runs the shared
  /// extraction under the end-of-run snapshot. kFailedPrecondition when
  /// the registry is empty at start.
  ///
  /// Not reentrant: a server owns one per-query attribution sink, and
  /// Run() resets it at start — two concurrent Run() calls on the same
  /// server would interleave recorded marks and discard each other's
  /// state. Serialize runs per server, or construct one MultiQueryServer
  /// per concurrent stream (registries are shareable across servers).
  Status Run(StreamSource* source, MultiQueryResult* result);

  /// The breaker for a registered query, or nullptr if it has never
  /// been through an extraction. Breakers persist across Run() calls
  /// (a query tripped by one stream stays suspended into the next) and
  /// are pruned to the live registry after each extraction.
  const QueryBreaker* breaker(QueryId id) const {
    const auto it = breakers_.find(id);
    return it == breakers_.end() ? nullptr : &it->second;
  }

 private:
  Status ExtractShared(const RegistrySnapshot& snapshot,
                       const OnlineResult& raw, MultiQueryResult* result);

  QueryRegistry* registry_;  ///< not owned
  ServeConfig config_;
  ServeFilter filter_;
  std::map<QueryId, QueryBreaker> breakers_;
};

}  // namespace serve
}  // namespace dlacep

#endif  // DLACEP_SERVE_SERVER_H_
