#include "serve/filter.h"

#include <algorithm>

#include "common/logging.h"

namespace dlacep {
namespace serve {

ServeFilter::ServeFilter(const QueryRegistry* registry,
                         const StreamFilter* base,
                         const EventNetworkFilter* heads)
    : registry_(registry), base_(base), heads_(heads) {
  DLACEP_CHECK(registry_ != nullptr);
  DLACEP_CHECK(base_ != nullptr || heads_ != nullptr);
  if (base_ == nullptr) base_ = heads_;
}

void ServeFilter::ResetRecording() {
  std::lock_guard<std::mutex> lock(mu_);
  sink_.clear();
}

std::map<QueryId, std::vector<EventId>> ServeFilter::RecordedMarks() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<QueryId, std::vector<EventId>> out;
  for (const auto& [id, ids] : sink_) {
    std::vector<EventId> sorted(ids.begin(), ids.end());
    std::sort(sorted.begin(), sorted.end());
    out.emplace(id, std::move(sorted));
  }
  return out;
}

std::vector<double> ServeFilter::Thresholds(
    const RegistrySnapshot& snapshot) const {
  std::vector<double> thresholds;
  thresholds.reserve(snapshot.queries.size());
  for (const QueryEntry& entry : snapshot.queries) {
    thresholds.push_back(entry.threshold >= 0.0 ? entry.threshold
                                                : heads_->event_threshold());
  }
  return thresholds;
}

void ServeFilter::Record(const RegistrySnapshot& snapshot,
                         const EventStream& window,
                         const std::vector<std::vector<int>>& per_query) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t q = 0; q < snapshot.queries.size(); ++q) {
    std::unordered_set<EventId>& ids = sink_[snapshot.queries[q].id];
    const std::vector<int>& marks = per_query[q];
    for (size_t t = 0; t < marks.size(); ++t) {
      if (marks[t] == 1) ids.insert(window[t].id);
    }
  }
}

std::vector<int> ServeFilter::MarkOnline(const EventStream& window,
                                         size_t stream_begin,
                                         InferenceContext* ctx,
                                         double threshold_boost) const {
  const auto snapshot = registry_->Acquire();
  if (snapshot->queries.empty()) return std::vector<int>(window.size(), 0);

  // The marks of each query: with heads, one trunk forward and
  // per-query decodes off the shared marginals; otherwise the base
  // filter's marks, shared verbatim.
  const std::vector<std::vector<int>> per_query =
      heads_ != nullptr
          ? heads_->MarkOnlineMultiHead(window, ctx, Thresholds(*snapshot),
                                        threshold_boost)
          : std::vector<std::vector<int>>(
                snapshot->queries.size(),
                base_->MarkOnline(window, stream_begin, ctx,
                                  threshold_boost));
  // A non-finite score poisons every head's decode identically;
  // propagate the whole-window sentinel for the health guard.
  if (!per_query[0].empty() && per_query[0][0] == kInvalidMark) {
    return std::vector<int>(window.size(), kInvalidMark);
  }
  Record(*snapshot, window, per_query);
  std::vector<int> marks(window.size(), 0);
  for (const std::vector<int>& query_marks : per_query) {
    for (size_t t = 0; t < window.size(); ++t) {
      marks[t] |= query_marks[t] == 1;
    }
  }
  return marks;
}

std::vector<int> ServeFilter::Mark(const EventStream& stream,
                                   WindowRange range) const {
  return MarkWith(stream, range, nullptr);
}

std::vector<int> ServeFilter::MarkWith(const EventStream& stream,
                                       WindowRange range,
                                       InferenceContext* ctx) const {
  // The batch pipeline hands index ranges; detach the window so the
  // online decode path (and its id-based recording) applies verbatim.
  EventStream window(stream.schema_ptr());
  for (const Event& event : stream.View(range.begin, range.size())) {
    window.AppendArrival(event);
  }
  return MarkOnline(window, range.begin, ctx, 0.0);
}

}  // namespace serve
}  // namespace dlacep
