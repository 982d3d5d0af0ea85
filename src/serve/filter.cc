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
  const OnlineWindow one{&window, stream_begin, threshold_boost};
  std::vector<int> marks;
  MarkBatchOnline({&one, 1}, ctx, &marks);
  return marks;
}

void ServeFilter::MarkBatchOnline(std::span<const OnlineWindow> windows,
                                  InferenceContext* ctx,
                                  std::vector<int>* marks) const {
  if (windows.empty()) return;
  const auto snapshot = registry_->Acquire();
  if (snapshot->queries.empty()) {
    for (size_t w = 0; w < windows.size(); ++w) {
      marks[w].assign(windows[w].events->size(), 0);
    }
    return;
  }

  // Per window, the marks of each query: with heads, one trunk forward
  // over the micro-batch slab and per-query decodes off the shared
  // marginals; otherwise the base filter's marks, shared verbatim.
  std::vector<std::vector<std::vector<int>>> per_window;
  if (heads_ != nullptr) {
    heads_->MarkBatchOnlineMultiHead(windows, ctx, Thresholds(*snapshot),
                                     &per_window);
  } else {
    per_window.resize(windows.size());
    for (size_t w = 0; w < windows.size(); ++w) {
      per_window[w].assign(
          snapshot->queries.size(),
          base_->MarkOnline(*windows[w].events, windows[w].stream_begin, ctx,
                            windows[w].threshold_boost));
    }
  }
  for (size_t w = 0; w < windows.size(); ++w) {
    const EventStream& window = *windows[w].events;
    const std::vector<std::vector<int>>& per_query = per_window[w];
    // A non-finite score poisons every head's decode identically;
    // propagate the whole-window sentinel for the health guard.
    if (!per_query[0].empty() && per_query[0][0] == kInvalidMark) {
      marks[w].assign(window.size(), kInvalidMark);
      continue;
    }
    Record(*snapshot, window, per_query);
    marks[w].assign(window.size(), 0);
    for (const std::vector<int>& query_marks : per_query) {
      for (size_t t = 0; t < window.size(); ++t) {
        marks[w][t] |= query_marks[t] == 1;
      }
    }
  }
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
