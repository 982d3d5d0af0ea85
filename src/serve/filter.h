// The shared-inference filter: one StreamFilter that serves every
// registered query.
//
// Per window (on whatever shard thread the runtime dispatches to) the
// filter acquires the current registry snapshot (one pointer copy under
// the registry's snapshot mutex), featurizes ONCE, runs ONE trunk
// forward over the window's micro-batch slab (reusing the caller's
// InferenceContext scratch arena; a lone window is a batch of one), and
// decodes per-query marks:
//
//  * with a multi-head trunk (EventNetworkFilter): the CRF marginals
//    are computed once and thresholded once per query — the cheap
//    "per-pattern head" of ISSUE/ROADMAP item 1;
//  * with any other base filter (pass-through, shedding, oracle): the
//    base marks are shared by every query verbatim.
//
// The runtime consumes the UNION of the per-query marks (an event is
// relayed if any query wants it); the per-query attribution is recorded
// in a sink the MultiQueryServer reads at extraction time. Acquiring
// and recording are one short mutex hold each per window — window
// granularity, not event granularity; the featurize, forward and decode
// in between take no lock.
//
// Equivalence contract (tests/multi_query_runtime_test.cc): in a
// lossless below-capacity run, a query's recorded id set — and hence
// its extracted MatchSet — is byte-identical to an isolated
// single-query OnlineDlacep run over the same stream with the same
// base filter, threshold, and assembler geometry, at every shard and
// thread count. The trunk forward is query-independent, so marks never
// depend on which other queries are registered.

#ifndef DLACEP_SERVE_FILTER_H_
#define DLACEP_SERVE_FILTER_H_

#include <map>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dlacep/event_filter.h"
#include "dlacep/filter.h"
#include "serve/registry.h"

namespace dlacep {
namespace serve {

class ServeFilter : public StreamFilter {
 public:
  /// `registry` and `base` are borrowed. `heads` enables multi-head
  /// decoding and is typically the same object as `base` (a trained
  /// EventNetworkFilter); null means per-query thresholds are ignored
  /// and every query shares the base marks.
  ServeFilter(const QueryRegistry* registry, const StreamFilter* base,
              const EventNetworkFilter* heads = nullptr);

  std::string name() const override { return "serve"; }

  std::vector<int> Mark(const EventStream& stream,
                        WindowRange range) const override;
  std::vector<int> MarkWith(const EventStream& stream, WindowRange range,
                            InferenceContext* ctx) const override;
  /// A micro-batch of one window.
  std::vector<int> MarkOnline(const EventStream& window, size_t stream_begin,
                              InferenceContext* ctx,
                              double threshold_boost) const override;
  /// Decodes every window under one registry snapshot, records the
  /// per-query attribution, and writes each window's union marks
  /// (kInvalidMark sentinel preserved).
  void MarkBatchOnline(std::span<const OnlineWindow> windows,
                       InferenceContext* ctx,
                       std::vector<int>* marks) const override;

  /// Clears the per-query attribution sink (start of a run).
  void ResetRecording();

  /// The ids each query marked, sorted ascending. Queries registered
  /// only for part of the run have partial sets (their windows before
  /// registration were never decoded for them).
  std::map<QueryId, std::vector<EventId>> RecordedMarks() const;

 private:
  void Record(const RegistrySnapshot& snapshot, const EventStream& window,
              const std::vector<std::vector<int>>& per_query) const;
  std::vector<double> Thresholds(const RegistrySnapshot& snapshot) const;

  const QueryRegistry* registry_;      ///< not owned
  const StreamFilter* base_;           ///< not owned
  const EventNetworkFilter* heads_;    ///< not owned, may be null

  mutable std::mutex mu_;
  mutable std::unordered_map<QueryId, std::unordered_set<EventId>> sink_;
};

}  // namespace serve
}  // namespace dlacep

#endif  // DLACEP_SERVE_FILTER_H_
