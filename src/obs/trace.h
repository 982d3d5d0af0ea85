// Scoped stage timers feeding the per-stage latency histograms.
//
// A TraceSpan brackets one pipeline stage execution (one window marked,
// one merge, one checkpoint write, ...) and records the elapsed wall
// time into a Histogram on destruction. When metrics are disabled the
// span disarms at construction and never reads the clock, so the
// instrumented hot paths pay a single branch.

#ifndef DLACEP_OBS_TRACE_H_
#define DLACEP_OBS_TRACE_H_

#include <chrono>

#include "obs/metrics.h"

namespace dlacep {
namespace obs {

/// RAII timer: records `now - construction` seconds into `sink` when it
/// goes out of scope. Pass nullptr (or disable metrics) to no-op.
class TraceSpan {
 public:
  explicit TraceSpan(Histogram* sink)
#ifndef DLACEP_NO_METRICS
      : sink_(MetricsEnabled() ? sink : nullptr) {
    if (sink_ != nullptr) start_ = Clock::now();
  }
#else
      : sink_(nullptr) {
    (void)sink;
  }
#endif

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() { Finish(); }

  /// Records and disarms early (before scope exit).
  void Finish() {
#ifndef DLACEP_NO_METRICS
    if (sink_ == nullptr) return;
    sink_->Observe(
        std::chrono::duration<double>(Clock::now() - start_).count());
    sink_ = nullptr;
#endif
  }

  /// Discards the measurement (e.g. the stage aborted).
  void Cancel() { sink_ = nullptr; }

 private:
  using Clock = std::chrono::steady_clock;
  Histogram* sink_;
#ifndef DLACEP_NO_METRICS
  Clock::time_point start_;
#endif
};

}  // namespace obs
}  // namespace dlacep

#endif  // DLACEP_OBS_TRACE_H_
