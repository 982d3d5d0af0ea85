// The primitive event model.
//
// Following the paper (§2.1), a primitive event is a tuple (N, F, t): an
// event type N, a fixed-size attribute set F, and a timestamp t. On
// arrival the system additionally attaches a unique increasing identifier
// `id` (§4.4) which the CEP extractor uses to enforce the count-window
// constraint on filtered streams.

#ifndef DLACEP_STREAM_EVENT_H_
#define DLACEP_STREAM_EVENT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace dlacep {

/// Unique, strictly increasing identifier assigned on arrival.
using EventId = uint64_t;

/// Dense integer identifier of an event type (stock symbol, sensor id...).
using TypeId = int32_t;

/// Type id of "blank" padding events used when simulating time-based
/// windows (paper §5.2, Fig 14). Blank events never match any pattern.
inline constexpr TypeId kBlankType = -1;

/// A primitive stream event.
struct Event {
  EventId id = 0;
  TypeId type = kBlankType;
  double timestamp = 0.0;
  std::vector<double> attrs;

  Event() = default;
  Event(EventId id_in, TypeId type_in, double ts, std::vector<double> a)
      : id(id_in), type(type_in), timestamp(ts), attrs(std::move(a)) {}

  /// Padding events carry no payload and match no pattern.
  bool is_blank() const { return type == kBlankType; }

  /// Attribute access (bounds-checked in debug builds; this sits on the
  /// condition-evaluation hot path of every engine).
  double attr(size_t index) const {
#ifndef NDEBUG
    DLACEP_CHECK_LT(index, attrs.size());
#endif
    return attrs[index];
  }
};

}  // namespace dlacep

#endif  // DLACEP_STREAM_EVENT_H_
