// Parallel filtration sweep: filtration-stage wall clock vs
// config.num_threads on the Figure-8 stock workload.
//
// Every assembler window is an independent inference, so the filtration
// stage should scale with the worker count while producing the exact
// mark sequence of the sequential run (deterministic window-order
// merge). This bench trains each filter once, then re-evaluates the
// same test stream under num_threads in {1, 2, 4, 8} and reports the
// filtration wall clock, the speedup over the sequential run, and an
// equality check of the merged mark vector against the 1-thread
// baseline. Speedups flatten once the worker count passes the
// machine's core count.
//
// A second sweep re-runs the same trained filters with every window
// routed through the autograd tape forward instead of the frozen
// inference path, reporting windows/sec for both — the before/after
// picture of the tape-free fast path at the pipeline level, and a check
// that both paths merge to identical marks.
//
// A third sweep streams its own, longer stream (kShardStreamEvents)
// through the sharded online runtime (OnlineConfig::num_shards in
// {1, 2, 4, 8}) and reports end-to-end events/sec — the
// thread-per-core runtime's headline scaling number, gated in CI (4
// shards must beat 1 shard by >= 2.5x on the multi-core runners, with
// byte-identical marks).

#include <cstdio>
#include <thread>

#include "cep/adaptive_engine.h"
#include "cep/engine.h"
#include "obs/metrics.h"
#include "obs/stages.h"
#include "pattern/builder.h"
#include "runtime/online.h"
#include "runtime/source.h"
#include "stream/stocksim.h"
#include "workloads/queries_a.h"
#include "workloads/recipes.h"
#include "workloads/report.h"

#include "bench_json.h"

namespace dlacep {
namespace workloads {
namespace {

/// Non-owning view so one trained filter can serve several pipelines.
/// Forwards every marking entry point, so the borrowed filter keeps its
/// arena reuse (MarkWith) and its batched trunk (MarkBatchWith) instead
/// of falling back to the base-class defaults.
class BorrowedFilter : public StreamFilter {
 public:
  explicit BorrowedFilter(const StreamFilter* inner) : inner_(inner) {}
  std::string name() const override { return inner_->name(); }
  std::vector<int> Mark(const EventStream& stream,
                        WindowRange range) const override {
    return inner_->Mark(stream, range);
  }
  std::vector<int> MarkWith(const EventStream& stream, WindowRange range,
                            InferenceContext* ctx) const override {
    return inner_->MarkWith(stream, range, ctx);
  }
  void MarkBatchWith(const EventStream& stream,
                     std::span<const WindowRange> windows,
                     InferenceContext* ctx,
                     std::vector<int>* marks) const override {
    inner_->MarkBatchWith(stream, windows, ctx, marks);
  }
  std::vector<int> MarkOnline(const EventStream& window, size_t stream_begin,
                              InferenceContext* ctx,
                              double threshold_boost) const override {
    return inner_->MarkOnline(window, stream_begin, ctx, threshold_boost);
  }
  void MarkBatchOnline(std::span<const OnlineWindow> windows,
                       InferenceContext* ctx,
                       std::vector<int>* marks) const override {
    inner_->MarkBatchOnline(windows, ctx, marks);
  }

 private:
  const StreamFilter* inner_;
};

/// Tape-path view: routes every window through featurization plus the
/// autograd tape forward — the pre-fast-path cost model. MarkWith is
/// inherited (it drops the context and calls Mark), so the pipeline's
/// per-worker arenas are deliberately unused on this side.
class TapePathFilter : public StreamFilter {
 public:
  TapePathFilter(const TrainableFilter* inner, const Featurizer* featurizer)
      : inner_(inner), featurizer_(featurizer) {}
  std::string name() const override { return inner_->name() + "+tape"; }
  std::vector<int> Mark(const EventStream& stream,
                        WindowRange range) const override {
    return inner_->MarkFeaturesTape(
        featurizer_->Encode(stream.View(range.begin, range.size())));
  }

 private:
  const TrainableFilter* inner_;
  const Featurizer* featurizer_;
};

constexpr size_t kThreadSweep[] = {1, 2, 4, 8};
constexpr int kRepetitions = 3;
// The shard sweep's stream: long enough (0.66–1.0 s per 1-shard pass
// on a 4-vCPU VM) that thread start-up is a negligible share of a
// pass. A 3,000-event stream (4–6 ms per pass) let the 4-shard ratio
// swing 0.45–1.89x between runs of one binary.
constexpr size_t kShardStreamEvents = 300000;

void SweepThreads(const std::string& label, const Pattern& pattern,
                  const BuiltDlacep& built, const DlacepConfig& base,
                  const EventStream& test) {
  double baseline_seconds = 0.0;
  PipelineResult reference;
  for (const size_t threads : kThreadSweep) {
    DlacepConfig config = base;
    config.num_threads = threads;
    DlacepPipeline pipeline(
        pattern, std::make_unique<BorrowedFilter>(&built.pipeline->filter()),
        config);
    // Best-of-N filtration wall clock; the mark vector is checked on
    // every repetition.
    double best_seconds = 0.0;
    bool identical = true;
    PipelineResult result;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      result = pipeline.Evaluate(test);
      if (rep == 0 || result.filter_seconds < best_seconds) {
        best_seconds = result.filter_seconds;
      }
      if (threads == 1 && rep == 0) reference = result;
      identical = identical && result.marked_ids == reference.marked_ids &&
                  result.marked_events == reference.marked_events &&
                  result.matches.size() == reference.matches.size();
    }
    if (threads == 1) baseline_seconds = best_seconds;
    std::printf("%-28s threads=%zu  filter=%8.4fs  speedup=%5.2fx  "
                "filt=%5.1f%%  matches=%zu  identical=%s\n",
                label.c_str(), threads, best_seconds,
                baseline_seconds / std::max(best_seconds, 1e-9),
                result.filtering_ratio() * 100.0, result.matches.size(),
                identical ? "yes" : "NO");
    std::fflush(stdout);
    const std::string key = label + " threads=" + std::to_string(threads);
    JsonReport::Metric(key, "filter_seconds", best_seconds);
    JsonReport::Metric(key, "speedup",
                       baseline_seconds / std::max(best_seconds, 1e-9));
    JsonReport::Metric(key, "matches",
                       static_cast<double>(result.matches.size()));
    JsonReport::Metric(key, "identical", identical ? 1.0 : 0.0);
  }
}

/// Sharded online-runtime sweep: end-to-end ingest throughput through
/// OnlineDlacep at num_shards in {1, 2, 4, 8} — the thread-per-core
/// runtime's headline metric. Lossless, overload disabled, shard-local
/// micro-batching on; events/sec is measured over the streaming phase
/// only (ingest through merged marks — end-of-stream CEP extraction is
/// a serial tail every shard count pays identically). The 1-shard run
/// is the baseline and every shard count must merge byte-identical
/// marks (the CI perf job gates on speedup at 4 shards AND identical).
void SweepShards(const std::string& label, const Pattern& pattern,
                 const BuiltDlacep& built, const EventStream& test) {
  constexpr size_t kShardSweep[] = {1, 2, 4, 8};
  double baseline_seconds = 0.0;
  OnlineResult reference;
  for (const size_t shards : kShardSweep) {
    OnlineConfig config;
    config.num_shards = shards;
    config.queue_capacity = 4096;
    config.batch_size = 8;
    config.overload.enabled = false;
    BorrowedFilter borrowed(&built.pipeline->filter());
    OnlineDlacep online(pattern, &borrowed, config);
    double best_seconds = 0.0;
    bool identical = true;
    OnlineResult result;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      ReplaySource source(&test);
      const Status status = online.Run(&source, &result);
      DLACEP_CHECK_MSG(status.ok(), status.ToString());
      const double stream_seconds =
          result.stats.elapsed_seconds - result.stats.extract_seconds;
      if (rep == 0 || stream_seconds < best_seconds) {
        best_seconds = stream_seconds;
      }
      if (shards == 1 && rep == 0) reference = result;
      identical = identical && result.marked_ids == reference.marked_ids &&
                  result.marked_events == reference.marked_events &&
                  result.matches.size() == reference.matches.size();
    }
    if (shards == 1) baseline_seconds = best_seconds;
    const double events_per_sec =
        static_cast<double>(test.size()) / std::max(best_seconds, 1e-9);
    std::printf("%-28s shards=%zu  stream=%8.4fs  %9.0f ev/s  "
                "speedup=%5.2fx  identical=%s\n",
                label.c_str(), shards, best_seconds, events_per_sec,
                baseline_seconds / std::max(best_seconds, 1e-9),
                identical ? "yes" : "NO");
    std::fflush(stdout);
    const std::string key = label + " shards=" + std::to_string(shards);
    JsonReport::Metric(key, "stream_seconds", best_seconds);
    JsonReport::Metric(key, "events_per_sec", events_per_sec);
    JsonReport::Metric(key, "speedup",
                       baseline_seconds / std::max(best_seconds, 1e-9));
    JsonReport::Metric(key, "identical", identical ? 1.0 : 0.0);
  }
}

void SweepInferencePath(const std::string& label, const Pattern& pattern,
                        const BuiltDlacep& built, const DlacepConfig& base,
                        const EventStream& test) {
  const auto* trainable =
      dynamic_cast<const TrainableFilter*>(&built.pipeline->filter());
  if (trainable == nullptr) return;
  const double num_windows = static_cast<double>(
      built.pipeline->assembler().Windows(test.size()).size());
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    DlacepConfig config = base;
    config.num_threads = threads;
    DlacepPipeline tape_pipeline(
        pattern,
        std::make_unique<TapePathFilter>(trainable, built.featurizer.get()),
        config);
    DlacepPipeline fast_pipeline(
        pattern, std::make_unique<BorrowedFilter>(&built.pipeline->filter()),
        config);
    double tape_best = 0.0;
    double fast_best = 0.0;
    bool identical = true;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      const PipelineResult tape = tape_pipeline.Evaluate(test);
      const PipelineResult fast = fast_pipeline.Evaluate(test);
      if (rep == 0 || tape.filter_seconds < tape_best) {
        tape_best = tape.filter_seconds;
      }
      if (rep == 0 || fast.filter_seconds < fast_best) {
        fast_best = fast.filter_seconds;
      }
      identical = identical && tape.marked_ids == fast.marked_ids &&
                  tape.marked_events == fast.marked_events;
    }
    std::printf("%-28s threads=%zu  tape=%9.1f w/s  infer=%9.1f w/s  "
                "speedup=%5.2fx  identical=%s\n",
                label.c_str(), threads,
                num_windows / std::max(tape_best, 1e-9),
                num_windows / std::max(fast_best, 1e-9),
                tape_best / std::max(fast_best, 1e-9),
                identical ? "yes" : "NO");
    std::fflush(stdout);
    const std::string key =
        label + " path threads=" + std::to_string(threads);
    JsonReport::Metric(key, "tape_windows_per_sec",
                       num_windows / std::max(tape_best, 1e-9));
    JsonReport::Metric(key, "infer_windows_per_sec",
                       num_windows / std::max(fast_best, 1e-9));
    JsonReport::Metric(key, "speedup", tape_best / std::max(fast_best, 1e-9));
    JsonReport::Metric(key, "identical", identical ? 1.0 : 0.0);
  }
}

/// Metrics on/off A-B on the inference fast path: the observability
/// layer budgets <2% filtration throughput (CI gates on overhead_pct).
/// Single-threaded so the scheduler can't masquerade as
/// instrumentation cost, best-of-N per side, and A-B-B-A ordering so
/// slow frequency/thermal drift cancels instead of biasing one side.
/// The "on" side pre-registers the full standard schema to measure the
/// realistic steady state, not an empty registry.
void SweepMetricsOverhead(const std::string& label, const Pattern& pattern,
                          const BuiltDlacep& built, const DlacepConfig& base,
                          const EventStream& test) {
  constexpr int kOverheadReps = 8;
  const double num_windows = static_cast<double>(
      built.pipeline->assembler().Windows(test.size()).size());
  DlacepConfig config = base;
  config.num_threads = 1;
  DlacepPipeline pipeline(
      pattern, std::make_unique<BorrowedFilter>(&built.pipeline->filter()),
      config);
  obs::TouchStandardMetrics();
  pipeline.Evaluate(test);  // warm caches/arenas outside the measurement
  double best_on = 0.0;
  double best_off = 0.0;
  for (int rep = 0; rep < kOverheadReps; ++rep) {
    const bool on_first = rep % 2 == 0;
    for (int side = 0; side < 2; ++side) {
      const bool on = (side == 0) == on_first;
      obs::MetricsRegistry::SetEnabled(on);
      const PipelineResult r = pipeline.Evaluate(test);
      double& best = on ? best_on : best_off;
      if (rep == 0 || r.filter_seconds < best) best = r.filter_seconds;
    }
  }
  obs::MetricsRegistry::SetEnabled(true);
  const double on_wps = num_windows / std::max(best_on, 1e-9);
  const double off_wps = num_windows / std::max(best_off, 1e-9);
  const double overhead_pct = (off_wps - on_wps) / off_wps * 100.0;
  std::printf("%-28s metrics on=%9.1f w/s  off=%9.1f w/s  "
              "overhead=%+5.2f%%\n",
              label.c_str(), on_wps, off_wps, overhead_pct);
  std::fflush(stdout);
  const std::string key = label + " metrics";
  JsonReport::Metric(key, "windows_per_sec_on", on_wps);
  JsonReport::Metric(key, "windows_per_sec_off", off_wps);
  JsonReport::Metric(key, "overhead_pct", overhead_pct);
}

/// Adaptive engine-selection gate on the Zipf-skewed stock workload:
/// SEQ(hot, hot, rare) with band conditions. In chain order the NFA
/// opens a partial match at nearly every hot event, while the lazy
/// engine's frequency-ordered chain anchors on the rare tail type and
/// touches only a fraction of the candidates — so the static engines
/// are far apart by construction, and the adaptive engine's cost model
/// must find the cheap one. CI gates the "adaptive-gate engine=..."
/// rows: adaptive events_per_sec >= 0.9x the best static engine and
/// >= 1.2x the worst (the cost of picking wrong), the "selected=" row
/// must name the lazy engine, and the tree's work_per_event ((transitions
/// + partial matches) per event, deterministic) must be below the NFA's.
void SweepEngines() {
  const EventStream stream = GenerateStockStream(StockConfig(30000, 4242));
  PatternBuilder b(stream.schema_ptr());
  std::vector<PatternBuilder::Node> children;
  children.push_back(b.PrimAnyOfIds(TopK(3), "s1"));
  children.push_back(b.PrimAnyOfIds(TopK(3), "s2"));
  children.push_back(b.PrimAnyOfIds(RankRange(40, 50), "s3"));
  auto root = b.SeqOf(std::move(children));
  b.Where(MakeBandCondition(b.Var("s3"), 0, b.Var("s1"), 0, 0.9, 1.1));
  b.Where(MakeBandCondition(b.Var("s3"), 0, b.Var("s2"), 0, 0.9, 1.1));
  const Pattern pattern =
      b.BuildOrDie(std::move(root), WindowSpec::Count(30));

  const std::span<const Event> span(stream.events().data(), stream.size());
  constexpr EngineKind kKinds[] = {EngineKind::kNfa, EngineKind::kTree,
                                   EngineKind::kLazy, EngineKind::kAdaptive};
  MatchSet reference;
  bool have_reference = false;
  for (const EngineKind kind : kKinds) {
    double best_seconds = 0.0;
    bool identical = true;
    size_t match_count = 0;
    double work_per_event = 0.0;
    std::string selected;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      auto engine = CreateEngine(kind, pattern);
      DLACEP_CHECK_MSG(engine.ok(), engine.status().ToString());
      MatchSet matches;
      const Status status = engine.value()->Evaluate(span, &matches);
      DLACEP_CHECK_MSG(status.ok(), status.ToString());
      const EngineStats& stats = engine.value()->stats();
      const double seconds = stats.elapsed_seconds;
      work_per_event =
          static_cast<double>(stats.transitions + stats.partial_matches) /
          static_cast<double>(stats.events_processed);
      if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
      match_count = matches.size();
      if (!have_reference) {
        reference = matches;
        have_reference = true;
      }
      identical = identical && matches.size() == reference.size() &&
                  matches.IntersectionSize(reference) == reference.size();
      if (kind == EngineKind::kAdaptive) {
        selected = EngineKindName(
            static_cast<AdaptiveEngine*>(engine.value().get())
                ->selected_kind());
      }
    }
    const double events_per_sec =
        static_cast<double>(stream.size()) / std::max(best_seconds, 1e-9);
    std::printf("%-28s engine=%-12s  eval=%8.4fs  %9.0f ev/s  "
                "work/ev=%8.2f  matches=%zu  identical=%s%s%s\n",
                "adaptive-gate", EngineKindName(kind), best_seconds,
                events_per_sec, work_per_event, match_count,
                identical ? "yes" : "NO",
                selected.empty() ? "" : "  selected=", selected.c_str());
    std::fflush(stdout);
    const std::string key =
        std::string("adaptive-gate engine=") + EngineKindName(kind);
    JsonReport::Metric(key, "eval_seconds", best_seconds);
    JsonReport::Metric(key, "events_per_sec", events_per_sec);
    JsonReport::Metric(key, "work_per_event", work_per_event);
    JsonReport::Metric(key, "matches", static_cast<double>(match_count));
    JsonReport::Metric(key, "identical", identical ? 1.0 : 0.0);
    if (!selected.empty()) {
      JsonReport::Metric(key + " selected=" + selected, "selected", 1.0);
    }
  }
}

int Run() {
  const EventStream train = GenerateStockStream(StockConfig(6000, 1001));
  const EventStream test = GenerateStockStream(StockConfig(3000, 2002));
  auto s = train.schema_ptr();
  const size_t w = 20;

  DlacepConfig config = BenchConfig();
  config.event_threshold = 0.35;

  std::printf("=== Parallel filtration sweep (hardware threads: %u) ===\n",
              std::thread::hardware_concurrency());

  std::printf("--- engine sweep: Zipf-skewed stock workload ---\n");
  SweepEngines();

  {
    const Pattern pattern = QA1(s, 4, 4, 0.9, 1.1, 3, w);
    BuiltDlacep built =
        BuildDlacep(pattern, train, FilterKind::kEventNetwork, config);
    SweepThreads("QA1(j=4,k=4) event-net", pattern, built, config, test);
    std::printf("--- sharded online runtime (events/sec) ---\n");
    SweepShards("QA1(j=4,k=4) event-net", pattern, built,
                GenerateStockStream(StockConfig(kShardStreamEvents, 2002)));
    std::printf("--- tape vs inference fast path (windows/sec) ---\n");
    SweepInferencePath("QA1(j=4,k=4) event-net", pattern, built, config,
                       test);
    std::printf("--- metrics overhead (windows/sec) ---\n");
    SweepMetricsOverhead("QA1(j=4,k=4) event-net", pattern, built, config,
                         test);
  }
  {
    const Pattern pattern = QA3(s, 5, 12, 3, 2, 1, 4, 0.9, 1.1, 1.5, w);
    BuiltDlacep built =
        BuildDlacep(pattern, train, FilterKind::kEventNetwork, config);
    SweepThreads("QA3(j=5,k=12) event-net", pattern, built, config, test);
    std::printf("--- tape vs inference fast path (windows/sec) ---\n");
    SweepInferencePath("QA3(j=5,k=12) event-net", pattern, built, config,
                       test);
  }
  {
    const Pattern pattern = QA3(s, 5, 12, 3, 2, 1, 4, 0.9, 1.1, 1.5, w);
    BuiltDlacep built =
        BuildDlacep(pattern, train, FilterKind::kWindowNetwork, config);
    SweepThreads("QA3(j=5,k=12) window-net", pattern, built, config, test);
    std::printf("--- tape vs inference fast path (windows/sec) ---\n");
    SweepInferencePath("QA3(j=5,k=12) window-net", pattern, built, config,
                       test);
  }
  return 0;
}

}  // namespace
}  // namespace workloads
}  // namespace dlacep

int main(int argc, char** argv) {
  dlacep::workloads::JsonReport::Init(argc, argv);
  return dlacep::workloads::JsonReport::Finish(dlacep::workloads::Run());
}
