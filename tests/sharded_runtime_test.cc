// Sharded runtime tests — the online runtime's correctness contract:
// OnlineDlacep must be byte-identical — marks, matches, accounting,
// overload/health trajectories — to the batch pipeline at EVERY shard
// count and micro-batch size. Routing is an implementation detail; only
// throughput may change.
//
// Also covers round-robin window dispatch (window `seq` runs on shard
// `seq mod N`, also after a restore), per-shard stats aggregation, and
// checkpoint kill-and-restore across shard counts. The whole file must
// pass under TSan (see the CI sanitizer job).

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dlacep/event_filter.h"
#include "dlacep/oracle_filter.h"
#include "dlacep/pipeline.h"
#include "dlacep/shedding_filter.h"
#include "online_test_util.h"
#include "pattern/builder.h"
#include "runtime/checkpoint.h"
#include "runtime/fault_injection.h"
#include "runtime/online.h"
#include "runtime/source.h"
#include "stream/stocksim.h"
#include "test_util.h"

namespace dlacep {
namespace {

using testing_util::AscendingSeqPattern;
using testing_util::RunOnline;
using testing_util::SmallStream;

void ExpectSameMatches(const MatchSet& a, const MatchSet& b) {
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.IntersectionSize(b), a.size());
}

// ---------------------------------------------------------------------
// Byte-equality with the batch pipeline across shard counts.

/// SEQ(S0 a, S1 b) with an ascending-volume condition — a two-symbol
/// pattern over the stock schema, so type-shedding has irrelevant
/// traffic to drop and a match's events span windows that different
/// shards mark at every shard count.
Pattern StockSeqPattern(std::shared_ptr<const Schema> schema,
                        size_t window) {
  PatternBuilder builder(std::move(schema));
  std::vector<PatternBuilder::Node> children;
  children.push_back(builder.Prim("S0", "a"));
  children.push_back(builder.Prim("S1", "b"));
  auto root = builder.SeqOf(std::move(children));
  builder.WhereCmp(1.0, "a", "vol", CmpOp::kLt, 1.2, "b");
  return builder.BuildOrDie(std::move(root), WindowSpec::Count(window));
}

/// Content-based filter: relay events whose volume clears a gate. Pure
/// function of the event payload, so any routing must reproduce it.
class VolGateFilter : public StreamFilter {
 public:
  explicit VolGateFilter(double gate) : gate_(gate) {}

  std::string name() const override { return "vol-gate"; }

  std::vector<int> Mark(const EventStream& stream,
                        WindowRange range) const override {
    std::vector<int> marks(range.size(), 0);
    for (size_t t = 0; t < range.size(); ++t) {
      const Event& e = stream[range.begin + t];
      if (!e.is_blank() && !e.attrs.empty() && e.attrs[0] > gate_) {
        marks[t] = 1;
      }
    }
    return marks;
  }

 private:
  double gate_;
};

/// A Zipf-skewed stock stream: a few hot symbols dominate, so windows
/// differ widely in content but never in size.
EventStream ZipfStream() {
  StockSimConfig config;
  config.num_events = 4000;
  config.num_symbols = 12;
  config.zipf_exponent = 1.4;
  config.seed = 21;
  return GenerateStockStream(config);
}

struct EqualityCase {
  const EventStream* stream;
  const Pattern* pattern;
  const StreamFilter* filter;
  size_t mark_size = 0;
  size_t step_size = 0;
  size_t batch_size = 1;
};

PipelineResult BatchReference(const EqualityCase& c,
                              std::unique_ptr<StreamFilter> filter) {
  DlacepConfig config;
  config.num_threads = 1;
  config.mark_size = c.mark_size;
  config.step_size = c.step_size;
  DlacepPipeline pipeline(*c.pattern, std::move(filter), config);
  return pipeline.Evaluate(*c.stream);
}

// Runs the online runtime at shard counts {1, 2, 4, 8} and checks marks,
// relayed-event counts, matches, accounting, and per-shard stats
// aggregation against the batch pipeline result. Micro-batching may
// only change how a shard groups windows into filter calls, never a
// window's marks or merge position, so c.batch_size must not matter.
void CheckShardedMatchesBatch(const EqualityCase& c,
                              const PipelineResult& batch) {
  for (size_t shards : {1u, 2u, 4u, 8u}) {
    OnlineConfig config;
    config.num_shards = shards;
    config.queue_capacity = 64;
    config.mark_size = c.mark_size;
    config.step_size = c.step_size;
    config.batch_size = c.batch_size;
    config.overload.enabled = false;  // lossless backpressure only
    OnlineDlacep online(*c.pattern, c.filter, config);
    ReplaySource source(c.stream);
    const OnlineResult result = RunOnline(&online, &source);

    EXPECT_EQ(result.marked_ids, batch.marked_ids)
        << "shards=" << shards << " batch_size=" << c.batch_size;
    EXPECT_EQ(result.marked_events, batch.marked_events)
        << "shards=" << shards << " batch_size=" << c.batch_size;
    ExpectSameMatches(result.matches, batch.matches);

    EXPECT_TRUE(result.stats.Accounted()) << result.stats.ToString();
    EXPECT_EQ(result.stats.events_ingested, c.stream->size());
    EXPECT_EQ(result.stats.events_dropped_queue, 0u);
    EXPECT_EQ(result.stats.overload_escalations, 0u);
    EXPECT_EQ(result.stats.overload_level_at_exit, 0);

    // Per-shard accounting must aggregate to the global counters: every
    // closed window routed to exactly one shard and marked exactly once.
    ASSERT_EQ(result.stats.shards.size(), shards);
    uint64_t routed = 0;
    uint64_t marked = 0;
    for (const ShardStats& s : result.stats.shards) {
      routed += s.windows_routed;
      marked += s.windows_marked;
      EXPECT_LE(s.windows_marked, s.windows_routed);
    }
    EXPECT_EQ(routed, result.stats.windows_closed) << "shards=" << shards;
    EXPECT_EQ(marked, result.stats.windows_closed) << "shards=" << shards;
  }
}

TEST(ShardedEquality, PassThroughOnZipfStream) {
  const EventStream stream = ZipfStream();
  const Pattern pattern = StockSeqPattern(stream.schema_ptr(), 12);
  PassThroughFilter filter;
  EqualityCase c{&stream, &pattern, &filter};
  CheckShardedMatchesBatch(
      c, BatchReference(c, std::make_unique<PassThroughFilter>()));
}

TEST(ShardedEquality, TypeSheddingOnZipfStream) {
  const EventStream stream = ZipfStream();
  const Pattern pattern = StockSeqPattern(stream.schema_ptr(), 12);
  TypeSheddingFilter filter(pattern);
  EqualityCase c{&stream, &pattern, &filter};
  CheckShardedMatchesBatch(
      c, BatchReference(c, std::make_unique<TypeSheddingFilter>(pattern)));
}

TEST(ShardedEquality, RandomSheddingOnZipfStream) {
  const EventStream stream = ZipfStream();
  const Pattern pattern = StockSeqPattern(stream.schema_ptr(), 12);
  RandomSheddingFilter filter(0.5, 0x5eed);
  EqualityCase c{&stream, &pattern, &filter};
  CheckShardedMatchesBatch(
      c,
      BatchReference(c, std::make_unique<RandomSheddingFilter>(0.5, 0x5eed)));
}

TEST(ShardedEquality, ContentFilterOnZipfStream) {
  const EventStream stream = ZipfStream();
  const Pattern pattern = StockSeqPattern(stream.schema_ptr(), 12);
  VolGateFilter filter(20.0);
  EqualityCase c{&stream, &pattern, &filter};
  CheckShardedMatchesBatch(
      c, BatchReference(c, std::make_unique<VolGateFilter>(20.0)));
}

TEST(ShardedEquality, ShardLocalMicroBatchingPreservesOutput) {
  // batch_size > 1 moves the micro-batch grouping into the shard
  // workers (adjacent batchable tasks in a burst) — output must not
  // notice.
  const EventStream stream = ZipfStream();
  const Pattern pattern = StockSeqPattern(stream.schema_ptr(), 12);
  VolGateFilter filter(20.0);
  EqualityCase c{&stream, &pattern, &filter};
  c.batch_size = 4;
  CheckShardedMatchesBatch(
      c, BatchReference(c, std::make_unique<VolGateFilter>(20.0)));
}

TEST(ShardedEquality, NonDefaultGeometryAndSmallStream) {
  const EventStream stream = SmallStream(900, 19);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 3, 12);
  PassThroughFilter filter;
  EqualityCase c{&stream, &pattern, &filter, /*mark_size=*/30,
                 /*step_size=*/10};
  CheckShardedMatchesBatch(
      c, BatchReference(c, std::make_unique<PassThroughFilter>()));
}

TEST(OnlineEquality, PassThroughFilter) {
  const EventStream stream = SmallStream(600, 11);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 3, 12);
  PassThroughFilter filter;
  EqualityCase c{&stream, &pattern, &filter};
  CheckShardedMatchesBatch(
      c, BatchReference(c, std::make_unique<PassThroughFilter>()));
}

TEST(OnlineEquality, TypeSheddingFilter) {
  const EventStream stream = SmallStream(800, 23, /*num_types=*/6);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 3, 10);
  TypeSheddingFilter filter(pattern);
  EqualityCase c{&stream, &pattern, &filter};
  CheckShardedMatchesBatch(
      c, BatchReference(c, std::make_unique<TypeSheddingFilter>(pattern)));
}

TEST(OnlineEquality, RandomSheddingFilterKeepsWindowSalt) {
  const EventStream stream = SmallStream(700, 37);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  RandomSheddingFilter filter(0.4, 99);
  EqualityCase c{&stream, &pattern, &filter};
  CheckShardedMatchesBatch(
      c, BatchReference(c, std::make_unique<RandomSheddingFilter>(0.4, 99)));
}

TEST(OnlineEquality, OracleFilter) {
  const EventStream stream = SmallStream(400, 51);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  OracleFilter filter(pattern);
  EqualityCase c{&stream, &pattern, &filter};
  CheckShardedMatchesBatch(
      c, BatchReference(c, std::make_unique<OracleFilter>(pattern)));
}

/// A small trained event network over SmallStream(900, 61), evaluated
/// in batch on SmallStream(500, 62).
struct TrainedCase {
  EventStream train = SmallStream(900, 61);
  EventStream test = SmallStream(500, 62);
  Pattern pattern = AscendingSeqPattern(train.schema_ptr(), 2, 8);
  BuiltDlacep built = Build(pattern, train);
  PipelineResult batch = built.pipeline->Evaluate(test);

  static BuiltDlacep Build(const Pattern& pattern, const EventStream& train) {
    DlacepConfig config;
    config.network.hidden_dim = 6;
    config.network.num_layers = 1;
    config.train.max_epochs = 2;
    return BuildDlacep(pattern, train, FilterKind::kEventNetwork, config);
  }
};

TEST(OnlineEquality, TrainedEventNetworkFilter) {
  const TrainedCase t;
  // The pipeline owns the trained filter; borrow it for the online run.
  EqualityCase c{&t.test, &t.pattern, &t.built.pipeline->filter()};
  CheckShardedMatchesBatch(c, t.batch);
}

TEST(OnlineEquality, NonDefaultAssemblerGeometry) {
  const EventStream stream = SmallStream(300, 71);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 7);
  PassThroughFilter filter;
  // mark not a multiple of step, truncated tail windows.
  EqualityCase c{&stream, &pattern, &filter, /*mark_size=*/11,
                 /*step_size=*/4};
  CheckShardedMatchesBatch(
      c, BatchReference(c, std::make_unique<PassThroughFilter>()));
}

TEST(OnlineEquality, StreamShorterThanOneWindow) {
  const EventStream full = SmallStream(200, 81);
  const EventStream stream = full.Slice(0, 5);  // N << mark_size
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 30);
  PassThroughFilter filter;
  EqualityCase c{&stream, &pattern, &filter};
  CheckShardedMatchesBatch(
      c, BatchReference(c, std::make_unique<PassThroughFilter>()));
}

TEST(OnlineEquality, EmptyStream) {
  const EventStream full = SmallStream(10, 91);
  const EventStream stream = full.Slice(0, 0);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  PassThroughFilter filter;
  OnlineConfig config;
  config.overload.enabled = false;
  OnlineDlacep online(pattern, &filter, config);
  ReplaySource source(&stream);
  const OnlineResult result = RunOnline(&online, &source);
  EXPECT_TRUE(result.matches.empty());
  EXPECT_TRUE(result.marked_ids.empty());
  EXPECT_EQ(result.stats.windows_closed, 0u);
  EXPECT_TRUE(result.stats.Accounted());
}

// Micro-batched filtration (batch_size > 1): every (shards × batch_size)
// cell must stay byte-identical to the per-window batch pipeline.

TEST(OnlineBatching, PassThroughFilterMatchesBatchPipeline) {
  const EventStream stream = SmallStream(600, 11);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 3, 12);
  PassThroughFilter filter;
  EqualityCase c{&stream, &pattern, &filter};
  const PipelineResult batch =
      BatchReference(c, std::make_unique<PassThroughFilter>());
  for (size_t batch_size : {2u, 4u, 7u}) {
    c.batch_size = batch_size;
    CheckShardedMatchesBatch(c, batch);
  }
}

TEST(OnlineBatching, TrainedEventNetworkFilterMatchesBatchPipeline) {
  const TrainedCase t;
  EqualityCase c{&t.test, &t.pattern, &t.built.pipeline->filter()};
  for (size_t batch_size : {2u, 4u, 7u}) {
    c.batch_size = batch_size;
    CheckShardedMatchesBatch(c, t.batch);
  }
}

TEST(OnlineBatching, PartialBatchFlushesAtEndOfStream) {
  // batch_size larger than the whole window count: a shard can only
  // group what it has popped, so the last group of the stream is always
  // partial. The run must still terminate and match byte for byte.
  const EventStream stream = SmallStream(300, 71);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 7);
  PassThroughFilter filter;
  EqualityCase c{&stream, &pattern, &filter, /*mark_size=*/11,
                 /*step_size=*/4};
  c.batch_size = 1000;
  CheckShardedMatchesBatch(
      c, BatchReference(c, std::make_unique<PassThroughFilter>()));
}

// A configuration the runtime cannot build is a Status, never a CHECK:
// zero shards would route every window to nowhere, and a zero-capacity
// ingest queue could never accept an event.
TEST(OnlineConfigValidation, ZeroShardsOrQueueCapacityIsInvalidArgument) {
  const EventStream stream = SmallStream(50, 3);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  PassThroughFilter filter;
  for (const bool zero_shards : {true, false}) {
    OnlineConfig config;
    if (zero_shards) {
      config.num_shards = 0;
    } else {
      config.queue_capacity = 0;
    }
    OnlineDlacep online(pattern, &filter, config);
    ReplaySource source(&stream);
    OnlineResult result;
    const Status status = online.Run(&source, &result);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "zero_shards=" << zero_shards << ": " << status.ToString();
    EXPECT_EQ(result.stats.events_ingested, 0u);
  }
}

// ---------------------------------------------------------------------
// Overload determinism across shard counts.

OnlineResult RunOnline(const EventStream& stream, const Pattern& pattern,
                       const StreamFilter* filter,
                       const OnlineConfig& config) {
  OnlineDlacep online(pattern, filter, config);
  ReplaySource source(&stream);
  return RunOnline(&online, &source);
}

TEST(ShardedOverload, EscalationLadderIsShardCountInvariant) {
  // Watermarks rigged so the pressure signal is a constant: high = 0
  // makes every queue fraction pressure, low < 0 makes relief
  // impossible. The controller's level is then a pure function of the
  // window index (escalate every dwell_windows), so boosted/shed window
  // sets — and with the head-arrival-id shedding salt, the shed marks
  // themselves — must be byte-identical at every shard count.
  const EventStream stream = SmallStream(1500, 33);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  PassThroughFilter filter;

  OnlineConfig base;
  base.queue_capacity = 64;
  base.overload.enabled = true;
  base.overload.high_watermark = 0.0;
  base.overload.low_watermark = -1.0;
  base.overload.latency_high_seconds = 0.0;
  base.overload.dwell_windows = 2;
  base.overload.shedding = SheddingPolicy::kRandom;

  OnlineConfig single = base;
  single.num_shards = 1;
  const OnlineResult reference = RunOnline(stream, pattern, &filter, single);

  // Windows 0..1 run at level 0, 1..2 boosted, everything after shed.
  EXPECT_EQ(reference.stats.overload_escalations, 2u);
  EXPECT_EQ(reference.stats.overload_level_at_exit, 2);
  EXPECT_EQ(reference.stats.windows_boosted, 2u);
  EXPECT_EQ(reference.stats.windows_shed,
            reference.stats.windows_closed - 3);
  EXPECT_TRUE(reference.stats.Accounted());

  for (size_t shards : {2u, 4u, 8u}) {
    OnlineConfig config = base;
    config.num_shards = shards;
    const OnlineResult result = RunOnline(stream, pattern, &filter, config);
    EXPECT_EQ(result.marked_ids, reference.marked_ids)
        << "shards=" << shards;
    EXPECT_EQ(result.marked_events, reference.marked_events);
    ExpectSameMatches(result.matches, reference.matches);
    EXPECT_EQ(result.stats.windows_boosted, reference.stats.windows_boosted);
    EXPECT_EQ(result.stats.windows_shed, reference.stats.windows_shed);
    EXPECT_EQ(result.stats.overload_escalations,
              reference.stats.overload_escalations);
    EXPECT_EQ(result.stats.overload_level_at_exit,
              reference.stats.overload_level_at_exit);
    EXPECT_TRUE(result.stats.Accounted()) << result.stats.ToString();
  }
}

// ---------------------------------------------------------------------
// Degrade-to-exact determinism across shard counts.

/// Pass-through that reports invalid (untrustworthy) marks for a fixed
/// set of window begins — a deterministic health violation. Overrides
/// BOTH entry points: the batch path keys on range.begin, the online
/// path on the stream_begin the runtime dispatched (identical values,
/// since window geometry is global in every mode).
class PoisonWindowFilter : public StreamFilter {
 public:
  std::string name() const override { return "poison-window"; }

  static bool Poisoned(size_t begin) { return begin == 48 || begin == 640; }

  std::vector<int> Mark(const EventStream&,
                        WindowRange range) const override {
    return MarkAt(range.begin, range.size());
  }

  std::vector<int> MarkOnline(const EventStream& window, size_t stream_begin,
                              InferenceContext*, double) const override {
    return MarkAt(stream_begin, window.size());
  }

 private:
  static std::vector<int> MarkAt(size_t begin, size_t count) {
    return std::vector<int>(count, Poisoned(begin) ? kInvalidMark : 1);
  }
};

TEST(ShardedDegrade, DegradeToExactIsShardCountInvariant) {
  // max_windows_in_flight = 1 serializes close → mark → merge, so the
  // degraded/probe trajectory (which depends on merge-vs-close order)
  // is a pure function of the window index at every shard count. The poisoned
  // begins (windows 3 and 40 of the 16-step geometry) each force one
  // quarantine + degrade; probes recover well before the next poison.
  const EventStream stream = SmallStream(2000, 55);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  PoisonWindowFilter filter;

  OnlineConfig base;
  base.queue_capacity = 64;
  base.mark_size = 32;
  base.step_size = 16;
  base.max_windows_in_flight = 1;
  base.overload.enabled = false;
  base.health.enabled = true;
  base.health.probe_period = 4;
  base.health.probe_passes = 2;

  OnlineConfig single = base;
  single.num_shards = 1;
  const OnlineResult reference = RunOnline(stream, pattern, &filter, single);

  EXPECT_EQ(reference.stats.windows_quarantined, 2u);
  EXPECT_EQ(reference.stats.health_degrades, 2u);
  EXPECT_EQ(reference.stats.health_recoveries, 2u);
  EXPECT_GT(reference.stats.windows_degraded, 0u);
  EXPECT_GT(reference.stats.probes_run, 0u);
  EXPECT_TRUE(reference.stats.Accounted());

  for (size_t shards : {2u, 4u, 8u}) {
    OnlineConfig config = base;
    config.num_shards = shards;
    const OnlineResult result = RunOnline(stream, pattern, &filter, config);
    EXPECT_EQ(result.marked_ids, reference.marked_ids)
        << "shards=" << shards;
    EXPECT_EQ(result.marked_events, reference.marked_events);
    ExpectSameMatches(result.matches, reference.matches);
    EXPECT_EQ(result.stats.events_quarantined,
              reference.stats.events_quarantined);
    EXPECT_EQ(result.stats.windows_quarantined,
              reference.stats.windows_quarantined);
    EXPECT_EQ(result.stats.windows_degraded,
              reference.stats.windows_degraded);
    EXPECT_EQ(result.stats.health_violations,
              reference.stats.health_violations);
    EXPECT_EQ(result.stats.health_degrades, reference.stats.health_degrades);
    EXPECT_EQ(result.stats.health_recoveries,
              reference.stats.health_recoveries);
    EXPECT_EQ(result.stats.probes_run, reference.stats.probes_run);
    EXPECT_EQ(result.stats.probes_passed, reference.stats.probes_passed);
    EXPECT_TRUE(result.stats.Accounted()) << result.stats.ToString();
  }
}

// ---------------------------------------------------------------------
// Checkpoint/restore across shard counts.

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  ::mkdir(dir.c_str(), 0755);
  std::remove(CheckpointPath(dir).c_str());
  return dir;
}

TEST(ShardedCheckpoint, KillAndRestoreMatchesSingleShardUninterruptedRun) {
  // Checkpoints are written quiescently (all shards drained), so the
  // snapshot carries no shard-count state: a 2-shard run killed
  // mid-stream restores into a 4-shard run and finishes byte-identical
  // to a single-shard run that was never interrupted.
  const EventStream stream = SmallStream(900, 77);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  const std::string dir = FreshDir("ck_sharded_restore");

  PassThroughFilter pass_a;
  OnlineConfig config_a;
  config_a.num_shards = 1;
  config_a.overload.enabled = false;
  OnlineDlacep online_a(pattern, &pass_a, config_a);
  ReplaySource source_a(&stream);
  const OnlineResult a = RunOnline(&online_a, &source_a);

  // Run B: 2 shards, permanent source failure mid-stream ("kill"), with
  // a final checkpoint written at abort.
  FaultPlan plan;
  plan.source_fail = true;
  plan.fail_at = 500;
  plan.fail_count = 0;
  FaultInjector injector(plan);
  auto source_b = injector.WrapSource(std::make_unique<ReplaySource>(&stream));
  PassThroughFilter pass_b;
  OnlineConfig config_b;
  config_b.num_shards = 2;
  config_b.overload.enabled = false;
  config_b.checkpoint.dir = dir;
  config_b.checkpoint.every_events = 128;
  OnlineDlacep online_b(pattern, &pass_b, config_b);
  OnlineResult b;
  ASSERT_TRUE(online_b.Run(source_b.get(), &b).ok());
  EXPECT_TRUE(b.stats.source_aborted);
  EXPECT_TRUE(b.stats.Accounted());

  // Run C: 4 shards, restored from B's
  // checkpoint over a fresh source.
  PassThroughFilter pass_c;
  OnlineConfig config_c;
  config_c.num_shards = 4;
  config_c.overload.enabled = false;
  config_c.checkpoint.dir = dir;
  config_c.checkpoint.restore = true;
  OnlineDlacep online_c(pattern, &pass_c, config_c);
  ReplaySource source_c(&stream);
  OnlineResult c;
  ASSERT_TRUE(online_c.Run(&source_c, &c).ok());

  EXPECT_TRUE(c.stats.Accounted());
  EXPECT_EQ(c.stats.events_ingested, stream.size());
  EXPECT_EQ(c.marked_ids, a.marked_ids);
  EXPECT_EQ(c.marked_events, a.marked_events);
  ExpectSameMatches(c.matches, a.matches);
}

// ---------------------------------------------------------------------
// Round-robin dispatch: window `seq` runs on shard `seq mod N`.

/// The worker thread that marked each dispatch sequence of a run,
/// recorded through OnlineConfig::worker_window_hook.
class WorkerLog {
 public:
  void Attach(OnlineConfig* config) {
    config->worker_window_hook = [this](uint64_t seq) {
      std::lock_guard<std::mutex> lock(mu_);
      worker_[seq] = std::this_thread::get_id();
    };
  }
  const std::map<uint64_t, std::thread::id>& worker() const {
    return worker_;
  }

 private:
  std::mutex mu_;
  std::map<uint64_t, std::thread::id> worker_;
};

/// Checks that windows [first, last) ran round-robin over `shards`
/// shards: one worker thread per residue class of seq mod shards, and
/// ShardStats::windows_routed of shard s equal to the number of
/// sequences in the range with seq % shards == s.
void ExpectRoundRobin(const WorkerLog& log, const OnlineResult& result,
                      size_t shards, uint64_t first, uint64_t last) {
  ASSERT_EQ(result.stats.shards.size(), shards);
  ASSERT_EQ(log.worker().size(), last - first) << "shards=" << shards;
  ASSERT_EQ(log.worker().begin()->first, first) << "shards=" << shards;
  std::map<uint64_t, std::thread::id> owner;  // residue -> worker thread
  std::set<std::thread::id> threads;
  for (const auto& [seq, thread] : log.worker()) {
    const auto [it, fresh] = owner.emplace(seq % shards, thread);
    if (fresh) threads.insert(thread);
    EXPECT_EQ(it->second, thread)
        << "shards=" << shards << " seq=" << seq << " changed worker";
  }
  EXPECT_EQ(threads.size(), owner.size()) << "shards=" << shards;

  uint64_t least = last;
  uint64_t most = 0;
  for (size_t s = 0; s < shards; ++s) {
    uint64_t expected = 0;
    for (uint64_t seq = first; seq < last; ++seq) {
      if (seq % shards == s) ++expected;
    }
    const uint64_t routed = result.stats.shards[s].windows_routed;
    EXPECT_EQ(routed, expected) << "shards=" << shards << " shard=" << s;
    least = std::min(least, routed);
    most = std::max(most, routed);
  }
  EXPECT_LE(most - least, 1u) << "shards=" << shards;
}

TEST(RoundRobinDispatch, BalancedAtEveryShardCount) {
  // Most windows of the Zipf stream start with one of a few hot
  // symbols, so any routing keyed on window content would load one
  // shard far more than the others. Dispatch by sequence splits the
  // fixed-size windows evenly anyway.
  const EventStream stream = ZipfStream();
  const Pattern pattern = StockSeqPattern(stream.schema_ptr(), 12);
  PassThroughFilter filter;
  for (size_t shards : {1u, 2u, 3u, 4u, 8u}) {
    OnlineConfig config;
    config.num_shards = shards;
    config.overload.enabled = false;
    WorkerLog log;
    log.Attach(&config);
    const OnlineResult result = RunOnline(stream, pattern, &filter, config);
    ASSERT_GT(result.stats.windows_closed, 8u);
    ExpectRoundRobin(log, result, shards, 0, result.stats.windows_closed);
  }
}

TEST(RoundRobinDispatch, RestoredRunContinuesFromDispatchedCount) {
  // A 2-shard run killed mid-stream checkpoints windows_dispatched = D.
  // A 3-shard run restored from it dispatches windows D, D+1, ... to
  // shards D mod 3, (D+1) mod 3, ...: the owner is a function of the
  // global sequence, so output stays byte-identical to batch Evaluate.
  const EventStream stream = SmallStream(908, 77);
  const Pattern pattern = AscendingSeqPattern(stream.schema_ptr(), 2, 8);
  const std::string dir = FreshDir("ck_round_robin_resume");
  PassThroughFilter filter;
  const PipelineResult batch =
      BatchReference(EqualityCase{&stream, &pattern, &filter},
                     std::make_unique<PassThroughFilter>());

  FaultPlan plan;
  plan.source_fail = true;
  plan.fail_at = 500;
  plan.fail_count = 0;
  FaultInjector injector(plan);
  auto killed_source =
      injector.WrapSource(std::make_unique<ReplaySource>(&stream));
  OnlineConfig killed;
  killed.num_shards = 2;
  killed.overload.enabled = false;
  killed.checkpoint.dir = dir;
  killed.checkpoint.every_events = 128;
  OnlineDlacep killed_run(pattern, &filter, killed);
  OnlineResult partial;
  ASSERT_TRUE(killed_run.Run(killed_source.get(), &partial).ok());
  ASSERT_TRUE(partial.stats.source_aborted);

  const StatusOr<CheckpointState> checkpoint = LoadCheckpoint(dir);
  ASSERT_TRUE(checkpoint.ok());
  const uint64_t resumed_at = checkpoint.value().windows_dispatched;

  OnlineConfig restored;
  restored.num_shards = 3;
  restored.overload.enabled = false;
  restored.checkpoint.dir = dir;
  restored.checkpoint.restore = true;
  WorkerLog log;
  log.Attach(&restored);
  OnlineDlacep restored_run(pattern, &filter, restored);
  ReplaySource source(&stream);
  OnlineResult result;
  ASSERT_TRUE(restored_run.Run(&source, &result).ok());

  EXPECT_TRUE(result.stats.Accounted()) << result.stats.ToString();
  EXPECT_EQ(result.stats.events_ingested, stream.size());
  EXPECT_EQ(result.marked_ids, batch.marked_ids);
  EXPECT_EQ(result.marked_events, batch.marked_events);
  ExpectSameMatches(result.matches, batch.matches);
  // "Continue at D" and "start again at 0" give different per-shard
  // counts only if neither D nor the number of resumed windows is a
  // multiple of 3.
  const uint64_t windows = result.stats.windows_closed;
  ASSERT_NE(resumed_at % 3, 0u);
  ASSERT_NE((windows - resumed_at) % 3, 0u);
  ExpectRoundRobin(log, result, 3, resumed_at, windows);
}

}  // namespace
}  // namespace dlacep
