// The runtime query registry: the serving layer's source of truth for
// which patterns are live.
//
// Registrations and unregistrations rebuild an immutable
// RegistrySnapshot (query list + shared-CEP plan) under a writer mutex
// and publish it by swapping one shared_ptr (RCU-style). Readers — the
// ServeFilter on every shard thread, once per window — copy that
// pointer under a second mutex that guards nothing else, so a read
// waits only for another pointer copy or swap, never for a plan
// rebuild. A reader holds its snapshot for the duration of the window;
// a concurrent unregister can therefore never invalidate a pattern
// mid-mark. Mutations are O(live queries) for the plan rebuild, which
// is the intended trade: churn is rare, windows are not.
//
// A plain mutex rather than std::atomic<std::shared_ptr>: libstdc++
// implements the atomic with an internal lock as well
// (is_always_lock_free is false), and that lock bit is invisible to
// ThreadSanitizer, which then reports a race between a publish and an
// Acquire.

#ifndef DLACEP_SERVE_REGISTRY_H_
#define DLACEP_SERVE_REGISTRY_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/plan.h"

namespace dlacep {
namespace serve {

using QueryId = uint64_t;

struct QueryOptions {
  /// Metric/report label. Empty: "q<id>" is assigned.
  std::string name;
  /// Per-query event threshold decoded from the shared trunk's CRF
  /// marginals (the cheap "per-pattern head"). < 0: the trunk filter's
  /// own default threshold. Ignored by filters without marginals
  /// (pass-through, shedding): every query then shares the base marks.
  double threshold = -1.0;
  EngineKind engine = EngineKind::kNfa;
};

struct QueryEntry {
  QueryId id = 0;
  std::string name;
  std::shared_ptr<const Pattern> pattern;
  double threshold = -1.0;
  EngineKind engine = EngineKind::kNfa;
};

/// Immutable view of the registry at one version. The shared-CEP plan's
/// member indices point into `queries`.
struct RegistrySnapshot {
  uint64_t version = 0;
  std::vector<QueryEntry> queries;
  SharedCepPlan plan;
  /// Largest count window across queries (assembler-geometry hint).
  size_t max_window = 0;
};

class QueryRegistry {
 public:
  QueryRegistry();

  /// Validates (structure + count window + the chosen engine's support
  /// for the pattern's shape) and publishes a new snapshot including the
  /// pattern. Thread-safe; returns the id Unregister takes.
  StatusOr<QueryId> Register(const Pattern& pattern,
                             QueryOptions options = {});

  /// Removes a query and publishes a new snapshot. kNotFound for ids
  /// never registered or already removed.
  Status Unregister(QueryId id);

  /// Copies the current snapshot pointer under snapshot_mu_. Never
  /// null; the empty registry is a snapshot with no queries.
  std::shared_ptr<const RegistrySnapshot> Acquire() const;

  size_t size() const;

 private:
  void PublishLocked();

  mutable std::mutex mu_;  ///< writers: live_, next_id_, version_
  std::vector<QueryEntry> live_;
  QueryId next_id_ = 1;
  uint64_t version_ = 0;
  /// Guards only snapshot_, so Acquire never waits for a plan rebuild.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const RegistrySnapshot> snapshot_;
};

}  // namespace serve
}  // namespace dlacep

#endif  // DLACEP_SERVE_REGISTRY_H_
