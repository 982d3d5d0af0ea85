#include "stream/window.h"

#include <algorithm>
#include <cmath>

#include "common/status.h"

namespace dlacep {

bool FitsWindow(const std::vector<const Event*>& events,
                const WindowSpec& window) {
  if (events.empty()) return true;
  if (window.kind == WindowKind::kCount) {
    EventId lo = events[0]->id;
    EventId hi = events[0]->id;
    for (const Event* e : events) {
      lo = std::min(lo, e->id);
      hi = std::max(hi, e->id);
    }
    return hi - lo <= static_cast<EventId>(window.count_size()) - 1;
  }
  double lo = events[0]->timestamp;
  double hi = events[0]->timestamp;
  for (const Event* e : events) {
    lo = std::min(lo, e->timestamp);
    hi = std::max(hi, e->timestamp);
  }
  return hi - lo <= window.size;
}

std::vector<WindowRange> CountWindows(size_t stream_size, size_t window_size,
                                      size_t step) {
  DLACEP_CHECK_GT(window_size, 0u);
  DLACEP_CHECK_GT(step, 0u);
  std::vector<WindowRange> out;
  if (stream_size == 0) return out;
  for (size_t begin = 0;; begin += step) {
    const size_t end = std::min(begin + window_size, stream_size);
    out.push_back(WindowRange{begin, end});
    if (end == stream_size) break;
  }
  return out;
}

std::vector<WindowRange> TimeWindows(const EventStream& stream, double span) {
  std::vector<WindowRange> out;
  const size_t n = stream.size();

  // Coverage contract: every pair of events whose timestamps differ by
  // at most `span` must co-occur in at least one emitted window. With
  // monotone timestamps the window anchored at `i` can stop at the
  // first out-of-span event; an out-of-order stream (e.g. loaded from
  // an external CSV) must instead extend past local stragglers to the
  // LAST in-span event, or a straggler truncates the window's reach and
  // later in-span partners never co-occur with the anchor.
  bool sorted = true;
  for (size_t i = 1; i < n && sorted; ++i) {
    sorted = stream[i].timestamp >= stream[i - 1].timestamp;
  }

  size_t prev_end = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t end = i + 1;
    if (sorted) {
      while (end < n &&
             stream[end].timestamp - stream[i].timestamp <= span) {
        ++end;
      }
    } else {
      for (size_t k = i + 1; k < n; ++k) {
        if (std::abs(stream[k].timestamp - stream[i].timestamp) <= span) {
          end = k + 1;
        }
      }
    }
    // Suppress only windows contained in the previously emitted one:
    // begins strictly increase, so end <= prev_end means [i, end) is a
    // subrange and every pair it covers is already covered.
    if (end > prev_end) {
      out.push_back(WindowRange{i, end});
      prev_end = end;
    }
  }
  return out;
}

}  // namespace dlacep
