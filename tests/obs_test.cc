// Observability layer unit and property tests: log2 bucket boundary
// placement, the Quantile-within-one-bucket guarantee, striped
// counter/histogram aggregation under concurrent writers (this file
// runs in the CI TSan job), the Prometheus text exposition format, the
// runtime kill switch, TraceSpan lifecycle, and the trunk-forward
// count of dlacep_nn_batch_windows. Registry instruments are
// process-global, so every test uses its own metric names or reads
// deltas.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "dlacep/pipeline.h"
#include "obs/metrics.h"
#include "obs/stages.h"
#include "obs/trace.h"
#include "test_util.h"

namespace dlacep {
namespace obs {
namespace {

// ---------------------------------------------------------------------
// Bucket geometry.

TEST(HistogramBuckets, PowerOfTwoEdgesAreInclusiveUpperBounds) {
  Histogram h(HistogramOptions{/*min_value=*/1.0, /*num_buckets=*/4});
  // Bucket i covers (min·2^(i-1), min·2^i]; bounds are 1, 2, 4, 8, +Inf.
  EXPECT_EQ(h.BucketIndex(0.5), 0u);
  EXPECT_EQ(h.BucketIndex(1.0), 0u);  // exactly min_value: underflow
  EXPECT_EQ(h.BucketIndex(1.5), 1u);
  EXPECT_EQ(h.BucketIndex(2.0), 1u);  // exact power of two: inclusive
  EXPECT_EQ(h.BucketIndex(2.0000001), 2u);
  EXPECT_EQ(h.BucketIndex(4.0), 2u);
  EXPECT_EQ(h.BucketIndex(8.0), 3u);
  EXPECT_EQ(h.BucketIndex(8.1), 4u);   // overflow bucket
  EXPECT_EQ(h.BucketIndex(1e12), 4u);  // saturates, never out of range
  EXPECT_EQ(h.num_buckets(), 5u);
}

TEST(HistogramBuckets, BoundsMatchIndexRoundTrip) {
  Histogram h;  // runtime/stats.h defaults: 1µs min, 27 finite buckets
  for (size_t i = 0; i + 1 < h.num_buckets(); ++i) {
    const double bound = h.BucketBound(i);
    // The bound itself belongs to bucket i; nudging above moves to i+1.
    EXPECT_EQ(h.BucketIndex(bound), i);
    EXPECT_EQ(h.BucketIndex(bound * 1.0001), i + 1);
  }
  EXPECT_TRUE(std::isinf(h.BucketBound(h.num_buckets() - 1)));
}

TEST(HistogramBuckets, PathologicalValuesLandInUnderflow) {
  Histogram h(HistogramOptions{1.0, 4});
  EXPECT_EQ(h.BucketIndex(std::nan("")), 0u);
  EXPECT_EQ(h.BucketIndex(-3.0), 0u);
  EXPECT_EQ(h.BucketIndex(0.0), 0u);
  h.Observe(std::nan(""));
  h.Observe(-3.0);
  EXPECT_EQ(h.Count(), 2u);
  EXPECT_EQ(h.BucketCounts()[0], 2u);
}

// ---------------------------------------------------------------------
// Quantile: nearest-rank over buckets is exact to one bucket.

TEST(HistogramQuantile, WithinOneBucketOfExactOverRandomValues) {
  Histogram h;
  Rng rng(4242);
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) {
    // Log-uniform over 7 decades — spans most buckets while staying
    // inside the finite range (1µs·2^26 ≈ 67s), where the one-bucket
    // guarantee is meaningful (the overflow bucket's bound is +Inf).
    const double v = std::pow(10.0, -6.0 + 7.0 * rng.Uniform());
    values.push_back(v);
    h.Observe(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.99}) {
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const double exact = values[rank - 1];
    const double estimate = h.Quantile(q);
    // The estimate is the upper bound of the bucket holding the exact
    // nearest-rank value — same bucket, so within one log2 bucket.
    EXPECT_EQ(h.BucketIndex(estimate), h.BucketIndex(exact)) << "q=" << q;
    EXPECT_GE(estimate, exact) << "q=" << q;
    EXPECT_LE(estimate, exact * 2.0) << "q=" << q;
  }
}

TEST(HistogramQuantile, EmptyAndSingleObservation) {
  Histogram h(HistogramOptions{1.0, 8});
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  h.Observe(3.0);  // bucket (2, 4]
  EXPECT_EQ(h.Quantile(0.0), 4.0);
  EXPECT_EQ(h.Quantile(0.5), 4.0);
  EXPECT_EQ(h.Quantile(1.0), 4.0);
}

// ---------------------------------------------------------------------
// Striped aggregation under concurrent writers (TSan coverage).

TEST(Concurrency, CounterSumsAllShards) {
  Counter* c = MetricsRegistry::Global().GetCounter(
      "obs_test_concurrent_counter_total");
  c->Reset();
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kIncrements; ++i) c->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->Value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(Concurrency, HistogramCountSumAndBucketsAggregate) {
  Histogram* h = MetricsRegistry::Global().GetHistogram(
      "obs_test_concurrent_hist", {}, "",
      HistogramOptions{/*min_value=*/1.0, /*num_buckets=*/8});
  h->Reset();
  constexpr int kThreads = 8;
  constexpr int kObservations = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      // 1.5·2^t is exactly representable, so the aggregated sum is
      // order-independent and can be compared exactly.
      const double v = 1.5 * std::ldexp(1.0, t % 4);
      for (int i = 0; i < kObservations; ++i) h->Observe(v);
    });
  }
  for (auto& t : threads) t.join();
  const uint64_t total = static_cast<uint64_t>(kThreads) * kObservations;
  EXPECT_EQ(h->Count(), total);
  uint64_t bucket_total = 0;
  for (uint64_t b : h->BucketCounts()) bucket_total += b;
  EXPECT_EQ(bucket_total, total);
  double expected_sum = 0.0;
  for (int t = 0; t < kThreads; ++t) {
    expected_sum += 1.5 * std::ldexp(1.0, t % 4) * kObservations;
  }
  EXPECT_DOUBLE_EQ(h->Sum(), expected_sum);
}

// ---------------------------------------------------------------------
// Prometheus exposition.

TEST(Exposition, CounterGaugeAndHistogramSamples) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* a = reg.GetCounter("obs_test_requests_total", {{"kind", "a"}},
                              "test counter");
  Counter* b = reg.GetCounter("obs_test_requests_total", {{"kind", "b"}});
  Gauge* g = reg.GetGauge("obs_test_depth");
  Histogram* h = reg.GetHistogram("obs_test_latency_seconds", {}, "",
                                  HistogramOptions{1.0, 3});
  a->Reset();
  b->Reset();
  h->Reset();
  a->Increment(3);
  b->Increment(5);
  g->Set(2.5);
  h->Observe(1.5);  // bucket le=2
  h->Observe(3.0);  // bucket le=4
  h->Observe(99.0);  // overflow le=+Inf

  const std::string text = reg.RenderPrometheus();
  EXPECT_NE(text.find("# HELP obs_test_requests_total test counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_requests_total{kind=\"a\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_requests_total{kind=\"b\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("obs_test_depth 2.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_latency_seconds histogram\n"),
            std::string::npos);
  // Cumulative buckets: 0 at le=1, 1 at le=2, 2 at le=4, 3 at +Inf.
  EXPECT_NE(text.find("obs_test_latency_seconds_bucket{le=\"1\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_latency_seconds_bucket{le=\"2\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_latency_seconds_bucket{le=\"4\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_latency_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_latency_seconds_sum 103.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_latency_seconds_count 3\n"),
            std::string::npos);
}

TEST(Exposition, EveryFamilyHeaderAppearsExactlyOnce) {
  // Register the full standard schema plus interleaved same-name
  // entries, then check the format-level invariant the exposition
  // format requires: one # TYPE line per family across the whole
  // document, regardless of registration order.
  TouchStandardMetrics();
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("obs_test_interleaved_total", {{"x", "1"}});
  reg.GetCounter("obs_test_other_total");
  reg.GetCounter("obs_test_interleaved_total", {{"x", "2"}});
  const std::string text = reg.RenderPrometheus();
  std::map<std::string, int> type_lines;
  size_t pos = 0;
  while ((pos = text.find("# TYPE ", pos)) != std::string::npos) {
    const size_t name_begin = pos + 7;
    const size_t name_end = text.find(' ', name_begin);
    ASSERT_NE(name_end, std::string::npos);
    ++type_lines[text.substr(name_begin, name_end - name_begin)];
    pos = name_end;
  }
  EXPECT_FALSE(type_lines.empty());
  for (const auto& [name, count] : type_lines) {
    EXPECT_EQ(count, 1) << "family " << name << " emitted " << count
                        << " headers";
  }
  EXPECT_EQ(type_lines["obs_test_interleaved_total"], 1);
}

TEST(Exposition, JsonRendersParsableStructure) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.GetCounter("obs_test_json_total", {{"q", "v\"w"}});
  c->Reset();
  c->Increment(7);
  const std::string json = reg.RenderJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\":["), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":["), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":["), std::string::npos);
  // Label values are escaped and the counter value is present.
  EXPECT_NE(json.find("{\"name\":\"obs_test_json_total\",\"labels\":"
                      "{\"q\":\"v\\\"w\"},\"value\":7}"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Kill switch and reset.

TEST(KillSwitch, DisabledMutationsAreNoOps) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.GetCounter("obs_test_toggle_total");
  Gauge* g = reg.GetGauge("obs_test_toggle_gauge");
  Histogram* h = reg.GetHistogram("obs_test_toggle_hist");
  c->Reset();
  g->Reset();
  h->Reset();

  MetricsRegistry::SetEnabled(false);
  c->Increment(10);
  g->Set(5.0);
  g->Add(2.0);
  h->Observe(1.0);
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(g->Value(), 0.0);
  EXPECT_EQ(h->Count(), 0u);

  MetricsRegistry::SetEnabled(true);
  c->Increment(10);
  g->Add(2.0);
  h->Observe(1.0);
  EXPECT_EQ(c->Value(), 10u);
  EXPECT_EQ(g->Value(), 2.0);
  EXPECT_EQ(h->Count(), 1u);
}

TEST(KillSwitch, ResetValuesZeroesEverythingButKeepsPointersValid) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.GetCounter("obs_test_reset_total");
  Histogram* h = reg.GetHistogram("obs_test_reset_hist");
  c->Increment(4);
  h->Observe(2.0);
  reg.ResetValues();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(h->Count(), 0u);
  EXPECT_EQ(h->Sum(), 0.0);
  // Same (name, labels) resolves to the same instrument after reset.
  EXPECT_EQ(reg.GetCounter("obs_test_reset_total"), c);
  c->Increment();
  EXPECT_EQ(c->Value(), 1u);
}

// ---------------------------------------------------------------------
// TraceSpan lifecycle.

TEST(TraceSpanTest, RecordsOneObservationOnScopeExit) {
  Histogram* h =
      MetricsRegistry::Global().GetHistogram("obs_test_span_hist");
  h->Reset();
  {
    TraceSpan span(h);
  }
  EXPECT_EQ(h->Count(), 1u);
  EXPECT_GE(h->Sum(), 0.0);
}

TEST(TraceSpanTest, FinishIsIdempotentAndCancelDiscards) {
  Histogram* h =
      MetricsRegistry::Global().GetHistogram("obs_test_span_hist2");
  h->Reset();
  {
    TraceSpan span(h);
    span.Finish();
    span.Finish();  // second call must not double-record
  }                 // destructor must not record again
  EXPECT_EQ(h->Count(), 1u);
  {
    TraceSpan span(h);
    span.Cancel();
  }
  EXPECT_EQ(h->Count(), 1u);
}

TEST(TraceSpanTest, DisarmedWhenMetricsDisabled) {
  Histogram* h =
      MetricsRegistry::Global().GetHistogram("obs_test_span_hist3");
  h->Reset();
  MetricsRegistry::SetEnabled(false);
  {
    TraceSpan span(h);
  }
  MetricsRegistry::SetEnabled(true);
  EXPECT_EQ(h->Count(), 0u);
}

// ---------------------------------------------------------------------
// Stage handles.

TEST(Stages, AccessorsAreStableAndTouchRegistersSchema) {
  EXPECT_EQ(StageQueueWait(), StageQueueWait());
  EXPECT_EQ(EventsIngested(), EventsIngested());
  EXPECT_EQ(OverloadTransitions(0, 1), OverloadTransitions(0, 1));
  EXPECT_NE(OverloadTransitions(0, 1), OverloadTransitions(1, 0));
  EXPECT_EQ(CepTransitions("nfa"), CepTransitions("nfa"));
  EXPECT_NE(CepTransitions("nfa"), CepTransitions("tree"));
  TouchStandardMetrics();
  const std::string text = MetricsRegistry::Global().RenderPrometheus();
  for (const char* family :
       {"dlacep_stage_latency_seconds", "dlacep_runtime_events_total",
        "dlacep_runtime_windows_total", "dlacep_runtime_health_total",
        "dlacep_overload_transitions_total", "dlacep_cep_transitions_total",
        "dlacep_queue_depth", "dlacep_overload_level"}) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
  // The NN forward stages are present even though nothing observed them.
  EXPECT_NE(
      text.find("dlacep_stage_latency_seconds_count{stage=\"nn_forward_"
                "infer\"}"),
      std::string::npos);
}

// Every marking call runs the trunk Forward, a lone window as a batch
// of one, so Evaluate observes one forward of one window per assembler
// window.
TEST(Stages, SoloEvaluateCountsOneTrunkForwardPerWindow) {
  const EventStream stream = testing_util::SmallStream(300, 5);
  const Pattern pattern =
      testing_util::AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  DlacepConfig config;
  config.network.hidden_dim = 4;
  config.network.num_layers = 1;
  config.train.max_epochs = 1;
  const BuiltDlacep built =
      BuildDlacep(pattern, stream, FilterKind::kEventNetwork, config);
  const size_t windows =
      built.pipeline->assembler().Windows(stream.size()).size();
  ASSERT_GT(windows, 0u);

  Histogram* forwards = NnBatchWindows();
  const uint64_t count_before = forwards->Count();
  const double sum_before = forwards->Sum();
  built.pipeline->Evaluate(stream);
  EXPECT_EQ(forwards->Count() - count_before, windows);
  EXPECT_EQ(forwards->Sum() - sum_before, static_cast<double>(windows));
}

}  // namespace
}  // namespace obs
}  // namespace dlacep
