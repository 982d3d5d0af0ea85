// Online streaming runtime tests: bounded-queue accounting under
// overload (no deadlock, every ingested event is either relayed,
// filtered, or dropped), overload controller escalation AND recovery,
// drift flagging, source fidelity, and RingQueue unit behavior. The
// byte-equality contract with the batch DlacepPipeline lives in
// tests/sharded_runtime_test.cc. The whole file must also pass under
// TSan (see the CI sanitizer job).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "dlacep/oracle_filter.h"
#include "dlacep/shedding_filter.h"
#include "online_test_util.h"
#include "pattern/builder.h"
#include "runtime/online.h"
#include "runtime/ring_queue.h"
#include "runtime/source.h"
#include "stream/stocksim.h"
#include "test_util.h"

namespace dlacep {
namespace {

using testing_util::AscendingSeqPattern;
using testing_util::RunOnline;
using testing_util::SmallStream;

// ---------------------------------------------------------------------
// RingQueue.

TEST(RingQueue, FifoOrderAndHighWater) {
  RingQueue<int> queue(4);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_TRUE(queue.TryPush(3));
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.high_water(), 3u);
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(queue.TryPush(4));
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 3);
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 4);
  EXPECT_EQ(queue.high_water(), 3u);  // depth never exceeded 3
}

TEST(RingQueue, TryPushFailsWhenFull) {
  RingQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_TRUE(queue.TryPush(3));
}

TEST(RingQueue, CloseDrainsRemainingThenStops) {
  RingQueue<int> queue(4);
  EXPECT_TRUE(queue.TryPush(7));
  EXPECT_TRUE(queue.TryPush(8));
  queue.Close();
  EXPECT_FALSE(queue.TryPush(9));
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 7);
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 8);
  EXPECT_FALSE(queue.Pop(&out));
}

TEST(RingQueue, BlockingPushDeliversEverythingThroughTinyQueue) {
  RingQueue<int> queue(2);
  constexpr int kCount = 500;
  std::thread producer([&] {
    for (int i = 0; i < kCount; ++i) ASSERT_TRUE(queue.Push(i));
    queue.Close();
  });
  int expected = 0;
  int out = -1;
  while (queue.Pop(&out)) {
    EXPECT_EQ(out, expected++);
  }
  EXPECT_EQ(expected, kCount);
  producer.join();
}

TEST(RingQueue, CloseUnblocksPendingPush) {
  RingQueue<int> queue(1);
  ASSERT_TRUE(queue.TryPush(1));
  std::atomic<bool> push_result{true};
  std::thread producer([&] { push_result = queue.Push(2); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  producer.join();
  EXPECT_FALSE(push_result.load());
}

// ---------------------------------------------------------------------
// LatencyHistogram.

// The linear scan Record() historically ran per sample — the definition
// of bucket placement. The O(1) BucketFor must agree with it
// everywhere, most importantly exactly on bucket bounds, where the
// bit-width guess needs its adjust loops (1µs·2^i is not exactly
// representable in binary floating point).
size_t LinearScanBucket(double seconds) {
  for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    if (seconds <= LatencyHistogram::BucketBound(i)) return i;
  }
  return LatencyHistogram::kBuckets - 1;
}

TEST(LatencyHistogram, BucketForMatchesLinearScanEverywhere) {
  EXPECT_EQ(LatencyHistogram::BucketFor(0.0), LinearScanBucket(0.0));
  EXPECT_EQ(LatencyHistogram::BucketFor(-1.0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketFor(1e9),
            LatencyHistogram::kBuckets - 1);
  EXPECT_EQ(LatencyHistogram::BucketFor(1e300),
            LatencyHistogram::kBuckets - 1);
  for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    const double bound = LatencyHistogram::BucketBound(i);
    const double probes[] = {bound,
                             std::nextafter(bound, 0.0),
                             std::nextafter(bound, 1e18),
                             bound * 0.75,
                             bound * 1.5};
    for (double s : probes) {
      EXPECT_EQ(LatencyHistogram::BucketFor(s), LinearScanBucket(s))
          << "bucket " << i << " s=" << s;
    }
  }
}

TEST(LatencyHistogram, PercentileUsesCeilNearestRank) {
  LatencyHistogram h;
  h.Record(1.5e-6);  // one fast sample
  for (int i = 0; i < 99; ++i) h.Record(0.9);  // 99 slow ones
  const double fast =
      LatencyHistogram::BucketBound(LatencyHistogram::BucketFor(1.5e-6));
  const double slow =
      LatencyHistogram::BucketBound(LatencyHistogram::BucketFor(0.9));
  // Nearest rank of p=1% over 100 samples is ceil(1) = 1 — the single
  // fast sample. The old round-half-up arithmetic produced rank 0 and
  // walked off the front of the histogram.
  EXPECT_EQ(h.Percentile(1.0), fast);
  EXPECT_EQ(h.Percentile(0.0), fast);    // clamped to rank 1
  EXPECT_EQ(h.Percentile(1.001), slow);  // ceil rounds up to rank 2
  EXPECT_EQ(h.Percentile(50.0), slow);
  EXPECT_EQ(h.Percentile(100.0), slow);
  EXPECT_EQ(h.Percentile(200.0), slow);  // out-of-range p clamps
}

TEST(LatencyHistogram, PercentileSkipsEmptyBuckets) {
  LatencyHistogram h;
  h.Record(1e-6);  // bucket 0
  h.Record(1.0);   // a high bucket; everything in between stays empty
  const double fast = LatencyHistogram::BucketBound(0);
  const double slow =
      LatencyHistogram::BucketBound(LatencyHistogram::BucketFor(1.0));
  EXPECT_EQ(h.Percentile(50.0), fast);  // rank 1 of 2
  EXPECT_EQ(h.Percentile(51.0), slow);  // rank 2 of 2
  // Every answer must be a non-empty bucket's bound — never one of the
  // empty buckets between the two samples.
  for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const double v = h.Percentile(p);
    EXPECT_TRUE(v == fast || v == slow) << "p=" << p << " -> " << v;
  }
}

TEST(LatencyHistogram, PercentileOfEmptyHistogramIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.Percentile(0.0), 0.0);
  EXPECT_EQ(h.Percentile(50.0), 0.0);
  EXPECT_EQ(h.Percentile(100.0), 0.0);
}

// ---------------------------------------------------------------------
// Sources.

TEST(StockSimSource, ByteIdenticalToBatchGeneration) {
  StockSimConfig config;
  config.num_events = 500;
  config.num_symbols = 8;
  config.seed = 13;
  const EventStream batch = GenerateStockStream(config);

  StockSimSource source(config);
  Event event;
  size_t i = 0;
  while (source.Next(&event)) {
    ASSERT_LT(i, batch.size());
    EXPECT_EQ(event.type, batch[i].type);
    EXPECT_EQ(event.timestamp, batch[i].timestamp);
    ASSERT_EQ(event.attrs.size(), batch[i].attrs.size());
    for (size_t a = 0; a < event.attrs.size(); ++a) {
      EXPECT_EQ(event.attrs[a], batch[i].attrs[a]);
    }
    ++i;
  }
  EXPECT_EQ(i, batch.size());
}

// ---------------------------------------------------------------------
// Overload control and accounting above capacity.

/// Pass-through whose first `slow_calls` markings sleep, creating a
/// deterministic overload phase followed by guaranteed relief.
class SlowThenFastFilter : public StreamFilter {
 public:
  SlowThenFastFilter(int slow_calls, std::chrono::milliseconds delay)
      : remaining_(slow_calls), delay_(delay) {}

  std::string name() const override { return "slow-then-fast"; }

  std::vector<int> Mark(const EventStream&,
                        WindowRange range) const override {
    if (remaining_.fetch_sub(1) > 0) std::this_thread::sleep_for(delay_);
    return std::vector<int>(range.size(), 1);
  }

 private:
  mutable std::atomic<int> remaining_;
  std::chrono::milliseconds delay_;
};

/// Replays a burst of events as fast as possible (far above capacity),
/// then paces the remaining tail at a rate the consumer can keep up
/// with — so an overloaded phase is followed by guaranteed relief.
class BurstThenPacedSource : public StreamSource {
 public:
  BurstThenPacedSource(const EventStream* stream, size_t burst,
                       double tail_rate)
      : stream_(stream), burst_(burst), pacer_(tail_rate) {}

  std::shared_ptr<const Schema> schema() const override {
    return stream_->schema_ptr();
  }

  Status Read(Event* out) override {
    if (next_ >= stream_->size()) {
      return Status::OutOfRange("end of stream");
    }
    if (next_ >= burst_) pacer_.Tick();
    *out = (*stream_)[next_++];
    return Status::Ok();
  }

 private:
  const EventStream* stream_;
  size_t burst_;
  size_t next_ = 0;
  Pacer pacer_;
};

TEST(OnlineOverload, EscalatesRecoversAndAccountsEveryEvent) {
  const EventStream stream = SmallStream(3500, 17);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  // While the primary filter is slow, window closes are gated on merges
  // and the queue stays full at every close (pressure); once the slow
  // calls are spent, the consumer outpaces the paced tail and the queue
  // is empty at every close (relief).
  SlowThenFastFilter filter(/*slow_calls=*/6,
                            std::chrono::milliseconds(60));

  OnlineConfig config;
  config.queue_capacity = 8;
  config.drop_when_full = true;  // above capacity: count drops
  config.num_shards = 2;
  config.max_windows_in_flight = 2;
  config.overload.enabled = true;
  config.overload.high_watermark = 0.5;
  config.overload.low_watermark = 0.25;
  config.overload.dwell_windows = 1;
  config.overload.shedding = SheddingPolicy::kType;
  OnlineDlacep online(pattern, &filter, config);

  BurstThenPacedSource source(&stream, /*burst=*/2000,
                              /*tail_rate=*/4000.0);
  const OnlineResult result = RunOnline(&online, &source);
  const RuntimeStats& stats = result.stats;

  // No deadlock (we got here) and exact accounting despite drops.
  EXPECT_EQ(stats.events_ingested, stream.size());
  EXPECT_GT(stats.events_dropped_queue, 0u);
  EXPECT_TRUE(stats.Accounted()) << stats.ToString();
  EXPECT_EQ(stats.events_appended + stats.events_dropped_queue,
            stats.events_ingested);

  // The controller went INTO degraded mode and came back OUT.
  EXPECT_GE(stats.overload_escalations, 1u);
  EXPECT_GE(stats.overload_recoveries, 1u);
  EXPECT_EQ(stats.overload_level_at_exit, 0);
  ASSERT_FALSE(stats.transitions.empty());
  for (const OverloadTransition& t : stats.transitions) {
    EXPECT_EQ(std::abs(t.to - t.from), 1);  // one level at a time
    EXPECT_GE(t.to, 0);
    EXPECT_LE(t.to, OverloadController::kMaxLevel);
  }

  EXPECT_GT(stats.windows_closed, 0u);
  EXPECT_EQ(stats.window_latency.count(), stats.windows_closed);
}

TEST(OverloadController, HysteresisEscalatesAndRecoversOneLevelAtATime) {
  OverloadConfig config;
  config.high_watermark = 0.8;
  config.low_watermark = 0.25;
  config.dwell_windows = 3;
  OverloadController controller(config);

  // Pressure must persist for dwell_windows closes before a transition.
  EXPECT_EQ(controller.Observe(0.9, 0.0), 0);
  EXPECT_EQ(controller.Observe(0.9, 0.0), 0);
  EXPECT_EQ(controller.Observe(0.1, 0.0), 0);  // run broken, re-arm
  EXPECT_EQ(controller.Observe(0.9, 0.0), 0);
  EXPECT_EQ(controller.Observe(0.9, 0.0), 0);
  EXPECT_EQ(controller.Observe(0.9, 0.0), 1);  // 3rd consecutive
  // One level at a time: the next dwell run reaches level 2.
  EXPECT_EQ(controller.Observe(0.9, 0.0), 1);
  EXPECT_EQ(controller.Observe(0.9, 0.0), 1);
  EXPECT_EQ(controller.Observe(0.9, 0.0), 2);
  // Saturates at kMaxLevel.
  EXPECT_EQ(controller.Observe(1.0, 0.0), 2);
  EXPECT_EQ(controller.Observe(1.0, 0.0), 2);
  EXPECT_EQ(controller.Observe(1.0, 0.0), 2);
  // Mid-band (between watermarks) neither escalates nor recovers.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(controller.Observe(0.5, 0.0), 2);
  // Relief below the low watermark recovers, again one level per dwell.
  EXPECT_EQ(controller.Observe(0.1, 0.0), 2);
  EXPECT_EQ(controller.Observe(0.1, 0.0), 2);
  EXPECT_EQ(controller.Observe(0.1, 0.0), 1);
  EXPECT_EQ(controller.Observe(0.1, 0.0), 1);
  EXPECT_EQ(controller.Observe(0.1, 0.0), 1);
  EXPECT_EQ(controller.Observe(0.1, 0.0), 0);

  EXPECT_EQ(controller.escalations(), 2u);
  EXPECT_EQ(controller.recoveries(), 2u);
  ASSERT_EQ(controller.transitions().size(), 4u);
  EXPECT_EQ(controller.transitions()[0].to, 1);
  EXPECT_EQ(controller.transitions()[1].to, 2);
  EXPECT_EQ(controller.transitions()[2].to, 1);
  EXPECT_EQ(controller.transitions()[3].to, 0);
}

TEST(OverloadController, LatencySignalTriggersWithoutQueuePressure) {
  OverloadConfig config;
  config.latency_high_seconds = 0.5;
  config.dwell_windows = 2;
  OverloadController controller(config);
  EXPECT_EQ(controller.Observe(0.0, 1.0), 0);
  EXPECT_EQ(controller.Observe(0.0, 1.0), 1);
  // Recovery needs BOTH an empty-ish queue and latency well below the
  // trip point.
  EXPECT_EQ(controller.Observe(0.0, 0.6), 1);
  EXPECT_EQ(controller.Observe(0.0, 0.1), 1);
  EXPECT_EQ(controller.Observe(0.0, 0.1), 0);
}

// ---------------------------------------------------------------------
// Latency-EWMA warm-up: one slow first window must not escalate.

/// Sleeps while marking windows with seq < slow_before — a warm-up
/// outlier (seq 0 only) or sustained slowness (several windows).
class SlowSeqFilter : public StreamFilter {
 public:
  SlowSeqFilter(std::atomic<uint64_t>* seq_counter, uint64_t slow_before,
                std::chrono::milliseconds delay)
      : seq_(seq_counter), slow_before_(slow_before), delay_(delay) {}

  std::string name() const override { return "slow-seq"; }

  std::vector<int> Mark(const EventStream&,
                        WindowRange range) const override {
    if (seq_->fetch_add(1) < slow_before_) {
      std::this_thread::sleep_for(delay_);
    }
    return std::vector<int>(range.size(), 1);
  }

 private:
  std::atomic<uint64_t>* seq_;
  uint64_t slow_before_;
  std::chrono::milliseconds delay_;
};

// Latency-signal-only config: the queue can never signal pressure
// (high_watermark above any possible fill fraction), so escalations in
// these tests come from the window-latency EWMA alone.
OnlineConfig LatencySignalOnlyConfig() {
  OnlineConfig config;
  // One shard and one window in flight serialize close → mark → merge,
  // so window latencies are exactly the per-window mark costs.
  config.num_shards = 1;
  config.max_windows_in_flight = 1;
  config.overload.enabled = true;
  config.overload.high_watermark = 2.0;
  config.overload.latency_high_seconds = 0.05;
  config.overload.dwell_windows = 1;
  return config;
}

TEST(OnlineOverload, SingleSlowWarmupWindowDoesNotEscalate) {
  const EventStream stream = SmallStream(600, 67);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  // Only window 0 is slow (250ms >> the 50ms trip point): the classic
  // cold-cache warm-up outlier. Before the warm-up discard the EWMA
  // seeded from this first observation and, with dwell_windows=1, fired
  // a spurious escalation a healthy steady state then had to undo.
  std::atomic<uint64_t> seq{0};
  SlowSeqFilter filter(&seq, /*slow_before=*/1,
                       std::chrono::milliseconds(250));
  OnlineConfig config = LatencySignalOnlyConfig();
  ASSERT_EQ(config.overload.latency_warmup_windows, 1u);  // the default
  OnlineDlacep online(pattern, &filter, config);
  ReplaySource source(&stream);
  const OnlineResult result = RunOnline(&online, &source);

  EXPECT_EQ(result.stats.overload_escalations, 0u)
      << "a single warm-up outlier seeded the latency EWMA";
  EXPECT_EQ(result.stats.overload_level_at_exit, 0);
  EXPECT_TRUE(result.stats.transitions.empty());
  EXPECT_TRUE(result.stats.Accounted()) << result.stats.ToString();
}

TEST(OnlineOverload, SustainedSlownessStillEscalatesPastWarmup) {
  const EventStream stream = SmallStream(600, 71);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  // Six consecutive slow windows: the warm-up discard skips only the
  // first, so the EWMA seeds from window 1 and the latency signal must
  // still fire — the fix ignores one outlier, not the signal.
  std::atomic<uint64_t> seq{0};
  SlowSeqFilter filter(&seq, /*slow_before=*/6,
                       std::chrono::milliseconds(100));
  OnlineDlacep online(pattern, &filter, LatencySignalOnlyConfig());
  ReplaySource source(&stream);
  const OnlineResult result = RunOnline(&online, &source);

  EXPECT_GE(result.stats.overload_escalations, 1u);
  EXPECT_TRUE(result.stats.Accounted()) << result.stats.ToString();
}

TEST(OnlineOverload, DisabledControllerStaysLossyButLevelZero) {
  const EventStream stream = SmallStream(2000, 19);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  SlowThenFastFilter filter(/*slow_calls=*/3,
                            std::chrono::milliseconds(40));

  OnlineConfig config;
  config.queue_capacity = 8;
  config.drop_when_full = true;
  config.num_shards = 1;
  config.max_windows_in_flight = 1;
  config.overload.enabled = false;
  OnlineDlacep online(pattern, &filter, config);

  ReplaySource source(&stream);
  const OnlineResult result = RunOnline(&online, &source);
  EXPECT_TRUE(result.stats.Accounted()) << result.stats.ToString();
  EXPECT_GT(result.stats.events_dropped_queue, 0u);
  EXPECT_EQ(result.stats.overload_escalations, 0u);
  EXPECT_EQ(result.stats.windows_shed, 0u);
  EXPECT_EQ(result.stats.windows_boosted, 0u);
}

// ---------------------------------------------------------------------
// Drift monitoring inside the runtime loop.

TEST(OnlineDrift, FlagsWhenLiveRateLeavesReferenceBand) {
  const EventStream stream = SmallStream(800, 29);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  PassThroughFilter filter;  // live marking rate is exactly 1.0

  OnlineConfig config;
  config.overload.enabled = false;
  config.drift.enabled = true;
  config.drift.reference_rate = 0.0;  // trained reference: nothing marked
  config.drift.tolerance = 0.1;
  config.drift.window_budget = 4;
  OnlineDlacep online(pattern, &filter, config);
  ReplaySource source(&stream);
  EXPECT_GE(RunOnline(&online, &source).stats.drift_flags, 1u);
}

TEST(OnlineDrift, QuietWhenRateMatchesReference) {
  const EventStream stream = SmallStream(800, 31);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  PassThroughFilter filter;

  OnlineConfig config;
  config.overload.enabled = false;
  config.drift.enabled = true;
  config.drift.reference_rate = 1.0;  // matches pass-through exactly
  config.drift.tolerance = 0.1;
  config.drift.window_budget = 4;
  OnlineDlacep online(pattern, &filter, config);
  ReplaySource source(&stream);
  EXPECT_EQ(RunOnline(&online, &source).stats.drift_flags, 0u);
}

}  // namespace
}  // namespace dlacep
