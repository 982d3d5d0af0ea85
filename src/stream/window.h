// Window semantics (paper §2.1, Fig 3).
//
// A count-based window of size W covers W consecutive events; a match is
// valid under it iff its events' arrival ids span at most W - 1 (§4.4's
// unique-ID formulation). A time-based window of size W requires the
// events' timestamps to span at most W time units.

#ifndef DLACEP_STREAM_WINDOW_H_
#define DLACEP_STREAM_WINDOW_H_

#include <cstddef>
#include <vector>

#include "stream/event.h"
#include "stream/stream.h"

namespace dlacep {

enum class WindowKind { kCount, kTime };

/// Declarative window specification attached to a pattern (WITHIN clause).
struct WindowSpec {
  WindowKind kind = WindowKind::kCount;
  /// Count: number of consecutive events. Time: span in time units.
  double size = 0.0;

  static WindowSpec Count(size_t w) {
    return WindowSpec{WindowKind::kCount, static_cast<double>(w)};
  }
  static WindowSpec Time(double w) {
    return WindowSpec{WindowKind::kTime, w};
  }

  size_t count_size() const { return static_cast<size_t>(size); }
};

/// True iff all events (given in any order) fit within the window.
/// For count windows: max(id) - min(id) <= W - 1.
/// For time windows: max(ts) - min(ts) <= W.
bool FitsWindow(const std::vector<const Event*>& events,
                const WindowSpec& window);

/// A half-open index range [begin, end) into a stream.
struct WindowRange {
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
};

/// Enumerates fixed-size count windows of `window_size` events advancing
/// by `step` (the paper's input assembler uses window 2W, step W). The
/// final window is truncated if the stream length is not a multiple of
/// the step.
std::vector<WindowRange> CountWindows(size_t stream_size, size_t window_size,
                                      size_t step);

/// Enumerates maximal time windows: for each event index i, the range of
/// events reaching to the last event whose timestamp lies within `span`
/// of ts(i). Windows contained in the previously emitted one are
/// dropped. Guarantee (unit-tested): every pair of events whose
/// timestamps differ by at most `span` co-occurs in at least one emitted
/// window, even when the stream's timestamps are out of order.
std::vector<WindowRange> TimeWindows(const EventStream& stream, double span);

}  // namespace dlacep

#endif  // DLACEP_STREAM_WINDOW_H_
