// Bench-side probes around the library's public extension points.
//
//   TimedSource — the load generator: a StreamSource wrapper that replays
//                 an inner source, optionally on a fixed schedule (open
//                 loop), and stamps every event's creation time.
//   TimedFilter — a StreamFilter wrapper that times every marking entry
//                 point and records when each window's marks came back.
//   Tracer      — in-memory spans (name, id, parent, thread, start, end),
//                 written once at exit as a Chrome trace-event file.
//
// Nothing here reaches inside the library: the probes sit on the
// interfaces a user would implement, so the benchmark measures each
// layer from outside, exactly as a caller sees it.

#ifndef DLACEP_BENCH_E2E_PROBES_H_
#define DLACEP_BENCH_E2E_PROBES_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "dlacep/filter.h"
#include "runtime/source.h"

namespace dlacep {
namespace bench {

using Clock = std::chrono::steady_clock;

/// Seconds since the process's first call — the one clock every probe
/// and every timed call shares.
inline double Now() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

inline void SleepUntil(double t) {
  const double wait = t - Now();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

/// Small dense index of the calling thread (0 = first thread seen).
inline uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

struct Span {
  const char* name = "";
  int64_t id = 0;     ///< window stream begin, or pass number
  int parent = -1;    ///< index of the enclosing span, -1 at top level
  uint32_t thread = 0;
  double start = 0.0;
  double end = 0.0;
};

/// Thread-safe in-memory span store.
class Tracer {
 public:
  int Record(const char* name, int64_t id, int parent, double start,
             double end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, id, parent, ThreadIndex(), start, end});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Opens a span now; close it with End().
  int Begin(const char* name, int64_t id, int parent) {
    const double t = Now();
    return Record(name, id, parent, t, t);
  }

  void End(int span) {
    const double t = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(span)].end = t;
  }

  /// Writes the spans as Chrome trace events ("X" phase, microseconds),
  /// with id/parent/span index in args, plus `summary_json` (an object)
  /// under "summary". Returns false when the file cannot be written.
  bool Write(const std::string& path, const std::string& summary_json) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(f, "{\"traceEvents\": [");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"span\": %zu, \"id\": %lld, \"parent\": %d}}",
                   i == 0 ? "" : ",", s.name, s.thread, s.start * 1e6,
                   (s.end - s.start) * 1e6, i, static_cast<long long>(s.id),
                   s.parent);
    }
    std::fprintf(f, "\n],\n\"summary\": %s}\n", summary_json.c_str());
    return std::fclose(f) == 0;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// The load generator. Replays `inner` to exhaustion; with rate > 0 the
/// i-th event is due at Start() + i / rate and Read() sleeps until then
/// (open loop: the schedule never slows when the runtime does, so a
/// stall shows up as lateness). With rate <= 0 events are produced as
/// fast as the runtime pulls (closed loop).
///
/// created()[i] is event i's creation time on the Now() clock: its due
/// time (open loop) or the moment Read() handed it over (closed loop).
/// lateness()[i] is hand-over minus due time, where a closed loop's due
/// time is the moment the runtime asked for the event.
class TimedSource : public StreamSource {
 public:
  TimedSource(StreamSource* inner, size_t expected_events, double rate)
      : inner_(inner), rate_(rate) {
    created_.reserve(expected_events);
    lateness_.reserve(expected_events);
  }

  /// Fixes the schedule origin; call right before handing the source
  /// to the runtime.
  void Start() { origin_ = Now(); }

  std::shared_ptr<const Schema> schema() const override {
    return inner_->schema();
  }

  Status Read(Event* out) override {
    const size_t i = created_.size();
    double due = 0.0;
    if (rate_ > 0.0) {
      due = origin_ + static_cast<double>(i) / rate_;
      SleepUntil(due);
    }
    const double entry = Now();
    const Status status = inner_->Read(out);
    const double done = Now();
    read_seconds_ += done - entry;
    if (!status.ok()) return status;
    if (rate_ <= 0.0) due = entry;
    created_.push_back(rate_ > 0.0 ? due : done);
    lateness_.push_back(done - due);
    return status;
  }

  const std::vector<double>& created() const { return created_; }
  const std::vector<double>& lateness() const { return lateness_; }
  /// Time spent inside the inner source, schedule waits excluded.
  double read_seconds() const { return read_seconds_; }

 private:
  StreamSource* inner_;
  double rate_;
  double origin_ = 0.0;
  double read_seconds_ = 0.0;
  std::vector<double> created_;
  std::vector<double> lateness_;
};

/// Forwards every marking entry point to `inner`, recording one "mark"
/// span per call (id = first window's stream begin, parent = the pass
/// span set with set_parent) and, per window, the stream index of its
/// last event and the time its marks came back.
class TimedFilter : public StreamFilter {
 public:
  struct WindowDone {
    size_t last_index = 0;
    double done = 0.0;
  };

  TimedFilter(const StreamFilter* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  void set_parent(int span) { parent_.store(span); }

  std::string name() const override { return inner_->name(); }

  std::vector<int> Mark(const EventStream& stream,
                        WindowRange range) const override {
    const double start = Now();
    std::vector<int> marks = inner_->Mark(stream, range);
    Done(start, range.begin, {range.begin + range.size() - 1});
    return marks;
  }
  std::vector<int> MarkWith(const EventStream& stream, WindowRange range,
                            InferenceContext* ctx) const override {
    const double start = Now();
    std::vector<int> marks = inner_->MarkWith(stream, range, ctx);
    Done(start, range.begin, {range.begin + range.size() - 1});
    return marks;
  }
  void MarkBatchWith(const EventStream& stream,
                     std::span<const WindowRange> windows,
                     InferenceContext* ctx,
                     std::vector<int>* marks) const override {
    const double start = Now();
    inner_->MarkBatchWith(stream, windows, ctx, marks);
    std::vector<size_t> last;
    for (const WindowRange& w : windows) last.push_back(w.begin + w.size() - 1);
    Done(start, windows.empty() ? 0 : windows[0].begin, last);
  }
  std::vector<int> MarkOnline(const EventStream& window, size_t stream_begin,
                              InferenceContext* ctx,
                              double threshold_boost) const override {
    const double start = Now();
    std::vector<int> marks =
        inner_->MarkOnline(window, stream_begin, ctx, threshold_boost);
    Done(start, stream_begin, {stream_begin + window.size() - 1});
    return marks;
  }
  void MarkBatchOnline(std::span<const OnlineWindow> windows,
                       InferenceContext* ctx,
                       std::vector<int>* marks) const override {
    const double start = Now();
    inner_->MarkBatchOnline(windows, ctx, marks);
    std::vector<size_t> last;
    for (const OnlineWindow& w : windows) {
      last.push_back(w.stream_begin + w.events->size() - 1);
    }
    Done(start, windows.empty() ? 0 : windows[0].stream_begin, last);
  }

  /// Drops what the previous pass recorded (spans stay in the tracer).
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    windows_.clear();
    calls_ = 0;
    busy_seconds_ = 0.0;
  }
  const std::vector<WindowDone>& windows() const { return windows_; }
  size_t calls() const { return calls_; }
  double busy_seconds() const { return busy_seconds_; }

 private:
  void Done(double start, size_t id, const std::vector<size_t>& last) const {
    const double end = Now();
    tracer_->Record("mark", static_cast<int64_t>(id), parent_.load(), start,
                    end);
    std::lock_guard<std::mutex> lock(mu_);
    for (const size_t index : last) windows_.push_back(WindowDone{index, end});
    ++calls_;
    busy_seconds_ += end - start;
  }

  const StreamFilter* inner_;
  Tracer* tracer_;
  std::atomic<int> parent_{-1};
  mutable std::mutex mu_;  ///< guards the three fields below
  mutable std::vector<WindowDone> windows_;
  mutable size_t calls_ = 0;
  mutable double busy_seconds_ = 0.0;
};

}  // namespace bench
}  // namespace dlacep

#endif  // DLACEP_BENCH_E2E_PROBES_H_
