// Wall-clock stopwatch used for throughput measurements.

#ifndef DLACEP_COMMON_TIMER_H_
#define DLACEP_COMMON_TIMER_H_

#include <chrono>

namespace dlacep {

/// A monotonic stopwatch. Start() (or construction) begins timing;
/// ElapsedSeconds() reads without stopping, so a single stopwatch can
/// bracket several measurements.
class Stopwatch {
 public:
  Stopwatch() { Start(); }

  void Start() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Computes a throughput figure (items per second) while guarding against
/// division by (near-)zero elapsed time on very fast runs.
inline double Throughput(double items, double elapsed_seconds) {
  constexpr double kMinSeconds = 1e-9;
  return items / (elapsed_seconds < kMinSeconds ? kMinSeconds
                                                : elapsed_seconds);
}

}  // namespace dlacep

#endif  // DLACEP_COMMON_TIMER_H_
