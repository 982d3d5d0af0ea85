// dlacep_bench: the repository's end-to-end benchmark (see README.md).
//
//   dlacep_bench --workload filter_online|filter_paced|cep_batch|serve8
//                --seed N [--seconds S] [--trace FILE] [--smoke]
//                [--json FILE]
//
// One workload per process. The bench generates its streams from
// --seed, builds the system through the library's public calls
// (BuildDlacep / MultiPatternDlacep, OnlineDlacep::Run,
// DlacepPipeline::Evaluate, MultiQueryServer::Run, CreateEngine), runs
// timed passes over the live stream until S seconds of them accumulate,
// and checks the output against an exact engine over the same stream.
// It prints each metric as `workload metric value unit`, then one JSON
// line
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// and exits non-zero when an output check failed.
//
// Untraced (the default) it reports the end-to-end metrics. With
// --trace FILE it alternates untraced and traced passes, runs one
// decomposed featurize → forward → extract pass, reports the per-layer
// metrics and writes the spans to FILE. --smoke shortens every stream
// and training run (for the smoke test; its numbers mean nothing).

#include <sys/resource.h>

#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cep/engine.h"
#include "dlacep/assembler.h"
#include "dlacep/extractor.h"
#include "dlacep/labeler.h"
#include "dlacep/multi_pattern.h"
#include "dlacep/pipeline.h"
#include "nn/infer.h"
#include "obs/stages.h"
#include "pattern/parser.h"
#include "runtime/online.h"
#include "runtime/source.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "stream/stocksim.h"
#include "workloads/queries_a.h"
#include "workloads/recipes.h"

#include "bench_json.h"
#include "probes.h"

namespace dlacep {
namespace bench {
namespace {

using workloads::JsonReport;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_path;  ///< empty = untraced
  bool smoke = false;

  bool traced() const { return !trace_path.empty(); }
  size_t Events(size_t n) const {
    return smoke ? std::max<size_t>(n / 10, 400) : n;
  }
  size_t Epochs(size_t n) const { return smoke ? 1 : n; }
  /// Set-ups per run; setup_s is their median.
  int setups() const { return smoke || traced() ? 1 : 3; }
  /// Timed passes at least; traced runs alternate untraced/traced.
  int min_passes() const { return traced() ? 4 : 3; }
};

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The historical (training) stream and the live stream of a seed: the
/// head and the continuation of one simulated market, so the model
/// serves the distribution it was trained on. Both are numbered from 0:
/// a live event's id is its index in the live stream.
struct Streams {
  EventStream train;
  EventStream live;
};

/// Every symbol shares one base volume level and volumes revert fast
/// without shocks, so the markets of any two seeds are statistically
/// identical and a live stream spans many volume-correlation times. With
/// the simulator's defaults (per-symbol base levels drawn from the seed,
/// slow reversion, shocks) events_per_s moved 5x and recall by 0.3
/// between seeds on cep_batch.
Streams StockStreams(uint64_t seed, size_t train_events, size_t live_events) {
  StockSimConfig config =
      workloads::StockConfig(train_events + live_events, Mix(seed, 1));
  config.base_volume_stddev = 0.0;
  config.mean_reversion = 0.2;
  config.walk_stddev = 0.15;
  config.shock_prob = 0.0;
  const EventStream market = GenerateStockStream(config);
  Streams streams{EventStream(market.schema_ptr()),
                  EventStream(market.schema_ptr())};
  for (size_t i = 0; i < market.size(); ++i) {
    const Event& e = market[i];
    (i < train_events ? streams.train : streams.live)
        .Append(e.type, e.timestamp, e.attrs);
  }
  return streams;
}

EventStream Prefix(const EventStream& stream, size_t n) {
  EventStream out(stream.schema_ptr());
  for (size_t i = 0; i < std::min(n, stream.size()); ++i) {
    out.AppendArrival(stream[i]);
  }
  return out;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool SameMatches(const MatchSet& a, const MatchSet& b) {
  return a.size() == b.size() && a.IntersectionSize(b) == a.size();
}

/// Metrics, checks and event accounting of one run; Print() emits the
/// text lines and the final JSON line.
class Result {
 public:
  explicit Result(std::string workload) : workload_(std::move(workload)) {}

  /// A metric of the JSON line (end-to-end untraced, per-layer traced).
  void Metric(const std::string& name, double value, const char* unit) {
    Check(std::isfinite(value), name + " is not finite");
    metrics_.push_back(
        {name, std::isfinite(value) ? value : 0.0, unit, true});
  }
  /// A text-only diagnostic line.
  void Info(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit, false});
  }
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    correct_ = false;
    std::fprintf(stderr, "%s: CHECK FAILED: %s\n", workload_.c_str(),
                 what.c_str());
  }
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  int Print() const {
    for (const Entry& m : metrics_) {
      std::printf("%s %s %.17g %s\n", workload_.c_str(), m.name.c_str(),
                  m.value, m.unit);
      JsonReport::Metric(workload_, m.name, m.value);
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct_ ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    bool first = true;
    for (const Entry& m : metrics_) {
      if (!m.in_json) continue;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name.c_str(), m.value, m.unit);
      first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return correct_ && attempted_ > 0 ? 0 : 1;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
    bool in_json;
  };
  std::string workload_;
  std::vector<Entry> metrics_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Median wall time of `setups` repetitions of `build`; the system the
/// last repetition built is the one measured afterwards.
double MedianSetup(int setups, const std::function<void()>& build) {
  std::vector<double> seconds;
  for (int i = 0; i < setups; ++i) {
    const double start = Now();
    build();
    seconds.push_back(Now() - start);
  }
  return Median(seconds);
}

struct Exact {
  MatchSet matches;
  double seconds = 0.0;
};

/// The reference: the exact NFA engine over the whole live stream.
Exact RunExact(const Pattern& pattern, const EventStream& stream) {
  auto engine = CreateEngine(EngineKind::kNfa, pattern);
  DLACEP_CHECK_MSG(engine.ok(), engine.status().ToString());
  Exact exact;
  const double start = Now();
  const Status status = engine.value()->Evaluate(
      std::span<const Event>(stream.events().data(), stream.size()),
      &exact.matches);
  exact.seconds = Now() - start;
  DLACEP_CHECK_MSG(status.ok(), status.ToString());
  return exact;
}

/// |got ∩ exact|, checking precision == 1: every pattern here is
/// NEG-free, so DLACEP output must be a subset of the exact set.
size_t CheckedCommon(Result* result, const MatchSet& exact,
                     const MatchSet& got, const std::string& what) {
  const size_t common = got.IntersectionSize(exact);
  result->Check(common == got.size(),
                what + ": " + std::to_string(got.size() - common) +
                    " matches not in the exact set (precision < 1)");
  return common;
}

double Recall(size_t common, size_t exact) {
  return exact == 0 ? 1.0
                    : static_cast<double>(common) / static_cast<double>(exact);
}

/// CEP work counters the extractor and the serve layer publish, read
/// around a timed call.
struct CepCounters {
  uint64_t events = 0, partial = 0, pruned = 0, transitions = 0,
           matches = 0;

  static CepCounters Read() {
    const std::string nfa = EngineKindName(EngineKind::kNfa);
    return CepCounters{obs::CepEvents(nfa)->Value(),
                       obs::CepPartialMatches(nfa)->Value(),
                       obs::CepPartialMatchesPruned(nfa)->Value(),
                       obs::CepTransitions(nfa)->Value(),
                       obs::CepMatches(nfa)->Value()};
  }
  CepCounters operator-(const CepCounters& o) const {
    return CepCounters{events - o.events, partial - o.partial,
                       pruned - o.pruned, transitions - o.transitions,
                       matches - o.matches};
  }
};

/// Everything one timed pass leaves behind for the metrics.
struct Pass {
  bool traced = false;
  double wall = 0.0;     ///< the timed call
  double extract = 0.0;  ///< its end-of-stream extraction
  size_t events = 0;
  /// Match latency quantiles (seconds) over the matches handed over.
  double match_lat_p50 = 0.0;
  double match_lat_p99 = 0.0;
  size_t matches = 0;
  double window_lat_p50 = 0.0;  ///< seconds
  double window_lat_p99 = 0.0;
  double read_seconds = 0.0;
  double gen_late_p99 = 0.0;
  CepCounters cep;
  size_t queue_high_water = 0;
  double shard_skew = 1.0;
  double filter_busy = 0.0;
  size_t shards = 1;
  size_t filter_windows = 0;
  size_t filter_calls = 0;
  size_t relayed = 0;
  serve::SharingStats sharing;
};

void FillRuntime(const RuntimeStats& stats, Pass* pass) {
  pass->queue_high_water = stats.queue_high_water;
  pass->shards = std::max<size_t>(stats.shards.size(), 1);
  double max_routed = 0.0, sum_routed = 0.0;
  for (const ShardStats& shard : stats.shards) {
    const double routed = static_cast<double>(shard.windows_routed);
    max_routed = std::max(max_routed, routed);
    sum_routed += routed;
    pass->filter_busy += shard.mark_seconds;
    pass->filter_windows += shard.windows_marked;
    pass->filter_calls += shard.filter_calls;
  }
  if (sum_routed > 0) {
    pass->shard_skew =
        max_routed / (sum_routed / static_cast<double>(pass->shards));
  }
  pass->relayed = stats.events_relayed;
}

/// Latency from each match's last event's creation to `handed_over`.
void MatchLatencies(const MatchSet& matches,
                    const std::vector<double>& created, double handed_over,
                    std::vector<double>* out) {
  for (const Match& match : matches) {
    out->push_back(handed_over - created.at(match.ids.back()));
  }
}

void SetMatchLatency(const std::vector<double>& latency, Pass* pass) {
  pass->match_lat_p50 = Quantile(latency, 0.5);
  pass->match_lat_p99 = Quantile(latency, 0.99);
  pass->matches = latency.size();
}

/// Window latency: the creation of each window's last event → its marks
/// coming back through the filter wrapper.
void WindowLatencies(const TimedFilter& timed,
                     const std::function<double(size_t)>& created,
                     Pass* pass) {
  std::vector<double> latency;
  for (const TimedFilter::WindowDone& window : timed.windows()) {
    latency.push_back(window.done - created(window.last_index));
  }
  pass->window_lat_p50 = Quantile(latency, 0.5);
  pass->window_lat_p99 = Quantile(latency, 0.99);
}

/// Quantile q of the runtime's log2-bucketed latency histogram,
/// interpolated linearly inside the bucket that holds it (as
/// Prometheus's histogram_quantile does). The histogram exposes only
/// nearest-rank bucket bounds, so the cumulative share at a bound is
/// found by bisection over Percentile().
double HistogramQuantile(const LatencyHistogram& h, double q) {
  if (h.count() == 0) return 0.0;
  const auto share_at = [&h](double bound) {
    double lo = 0.0, hi = 100.0;
    for (int i = 0; i < 60; ++i) {
      const double mid = (lo + hi) / 2;
      (h.Percentile(mid) <= bound ? lo : hi) = mid;
    }
    return lo / 100.0;
  };
  const double upper = h.Percentile(q * 100.0);
  const size_t bucket = LatencyHistogram::BucketFor(upper);
  const double lower =
      bucket == 0 ? 0.0 : LatencyHistogram::BucketBound(bucket - 1);
  const double f_lower = bucket == 0 ? 0.0 : share_at(lower);
  const double f_upper = share_at(upper);
  if (f_upper <= f_lower) return upper;
  return lower + (upper - lower) * (q - f_lower) / (f_upper - f_lower);
}

/// The end-to-end metrics: medians over the untraced passes.
void EndToEnd(Result* result, const std::vector<Pass>& passes,
              double recall, double setup_s, double peak_rss_mb) {
  std::vector<double> eps, p50, p99;
  for (const Pass& pass : passes) {
    if (pass.traced) continue;
    eps.push_back(static_cast<double>(pass.events) / pass.wall);
    p50.push_back(pass.match_lat_p50 * 1e3);
    p99.push_back(pass.match_lat_p99 * 1e3);
    result->Check(pass.matches >= 1000,
                  "a pass handed over fewer than 1000 matches, too few "
                  "for a p99");
  }
  result->Metric("events_per_s", Median(eps), "events/s");
  result->Metric("match_lat_p50_ms", Median(p50), "ms");
  result->Metric("match_lat_p99_ms", Median(p99), "ms");
  result->Metric("recall", recall, "fraction");
  result->Metric("setup_s", setup_s, "s");
  result->Metric("peak_rss_mb", peak_rss_mb, "MB");
  result->Info("match_lat_n", static_cast<double>(passes.back().matches),
               "count");
  result->Info("passes", static_cast<double>(eps.size()), "count");
}

/// Per-layer inputs measured outside the timed passes.
struct Layers {
  double label_s = 0.0;
  double train_s = 0.0;
  double ecep_s = 0.0;
  // The decomposed pass.
  size_t windows = 0;
  double featurize_s = 0.0;
  double forward_s = 0.0;
  double extract_s = 0.0;
  double wall_s = 0.0;
  double flops = 0.0;

  double residual_s() const {
    return wall_s - featurize_s - forward_s - extract_s;
  }
};

/// The per-layer metrics, from the traced pass of median wall time.
void PerLayer(Result* result, const std::vector<Pass>& passes,
              const Layers& layers) {
  std::vector<double> untraced_eps, traced_eps;
  std::vector<const Pass*> traced;
  for (const Pass& pass : passes) {
    const double eps = static_cast<double>(pass.events) / pass.wall;
    (pass.traced ? traced_eps : untraced_eps).push_back(eps);
    if (pass.traced) traced.push_back(&pass);
  }
  std::sort(traced.begin(), traced.end(),
            [](const Pass* a, const Pass* b) { return a->wall < b->wall; });
  const Pass& p = *traced[traced.size() / 2];
  const double events = static_cast<double>(p.events);
  const double stream_s = p.wall - p.extract;
  const double windows =
      static_cast<double>(std::max<size_t>(p.filter_windows, 1));
  const double untraced = Median(untraced_eps);
  auto metric = [&](const char* name, double value, const char* unit) {
    result->Metric(name, value, unit);
  };
  auto count = [&](const char* name, uint64_t value) {
    result->Metric(name, static_cast<double>(value), "count");
  };

  metric("stream.read_us_per_event", p.read_seconds / events * 1e6, "us");
  metric("stream.gen_late_ms_p99", p.gen_late_p99 * 1e3, "ms");

  metric("runtime.stream_s", stream_s, "s");
  metric("runtime.window_lat_p50_ms", p.window_lat_p50 * 1e3, "ms");
  metric("runtime.window_lat_p99_ms", p.window_lat_p99 * 1e3, "ms");
  count("runtime.queue_high_water", p.queue_high_water);
  metric("runtime.shard_skew", p.shard_skew, "ratio");
  metric("runtime.filter_busy_frac",
         p.filter_busy / (stream_s * static_cast<double>(p.shards)),
         "fraction");

  const double decomposed =
      static_cast<double>(std::max<size_t>(layers.windows, 1));
  count("filter.windows", p.filter_windows);
  count("filter.calls", p.filter_calls);
  metric("filter.windows_per_call",
         windows / static_cast<double>(std::max<size_t>(p.filter_calls, 1)),
         "ratio");
  metric("filter.us_per_window", p.filter_busy / windows * 1e6, "us");
  metric("filter.filtering_ratio",
         1.0 - static_cast<double>(p.relayed) / events, "fraction");
  metric("filter.featurize_us_per_window",
         layers.featurize_s / decomposed * 1e6, "us");

  metric("nn.forward_us_per_window", layers.forward_s / decomposed * 1e6,
         "us");
  metric("nn.gflops", layers.flops / layers.forward_s / 1e9, "GFLOP/s");

  const CepCounters& c = p.cep;
  metric("cep.extract_s", p.extract, "s");
  metric("cep.extract_share", p.extract / p.wall, "fraction");
  count("cep.events_in", c.events);
  count("cep.partial_matches", c.partial);
  count("cep.transitions", c.transitions);
  count("cep.pruned", c.pruned);
  metric("cep.match_yield",
         static_cast<double>(c.matches) /
             static_cast<double>(std::max<uint64_t>(c.partial, 1)),
         "ratio");
  metric("cep.ns_per_transition",
         p.extract * 1e9 /
             static_cast<double>(std::max<uint64_t>(c.transitions, 1)),
         "ns");
  metric("cep.ecep_s", layers.ecep_s, "s");
  // The paper's headline ratio: exact CEP time over DLACEP time on the
  // same stream (DLACEP time from the untraced median).
  metric("paper.gain", layers.ecep_s * untraced / events, "ratio");

  const serve::SharingStats& s = p.sharing;
  count("serve.engines_run", s.engines_run);
  count("serve.engines_shared", s.engines_shared);
  count("serve.type_pruned", s.type_pruned);
  count("serve.guard_pruned", s.guard_pruned);
  count("serve.chunks_run", s.chunks_run);
  metric("serve.extract_share", s.chunks_run > 0 ? p.extract / p.wall : 0.0,
         "fraction");

  metric("setup.label_s", layers.label_s, "s");
  metric("setup.train_s", layers.train_s, "s");

  metric("trace.overhead_pct",
         (untraced - Median(traced_eps)) / untraced * 100.0, "%");
  metric("ledger.residual_s", layers.residual_s(), "s");
  result->Info("ledger.wall_s", layers.wall_s, "s");
  result->Info("ledger.featurize_s", layers.featurize_s, "s");
  result->Info("ledger.forward_s", layers.forward_s, "s");
  result->Info("ledger.extract_s", layers.extract_s, "s");
  result->Info("ledger.residual_frac", layers.residual_s() / layers.wall_s,
               "fraction");
}

/// Analytic multiply-add FLOPs of one event-network forward over a
/// window of `t` events: per BiLSTM layer and direction, the gate
/// projections 8·H·(in + H) per step; plus the two 2H→2 emission heads.
double ForwardFlops(size_t t, size_t feature_dim, const NetworkConfig& net) {
  const double h = static_cast<double>(net.hidden_dim);
  double per_step = 0.0;
  for (size_t l = 0; l < net.num_layers; ++l) {
    const double in = l == 0 ? static_cast<double>(feature_dim) : 2.0 * h;
    per_step += 2.0 * 8.0 * h * (in + h);
  }
  per_step += 2.0 * 2.0 * 2.0 * (2.0 * h);
  return per_step * static_cast<double>(t);
}

/// The decomposed pass: assembler windows → Featurizer::Encode →
/// TrainableFilter::MarkFeaturesWith → one CepExtractor per pattern, each
/// step timed and traced (a window's spans share its stream begin as
/// id). Returns one MatchSet per pattern.
std::vector<MatchSet> Decompose(const EventStream& stream,
                                const InputAssembler& assembler,
                                const Featurizer& featurizer,
                                const TrainableFilter& filter,
                                const NetworkConfig& net,
                                const std::vector<Pattern>& patterns,
                                Tracer* tracer, Layers* layers) {
  const int root = tracer->Begin("decomposed", 0, -1);
  const double start = Now();
  const std::vector<WindowRange> windows = assembler.Windows(stream.size());
  InferenceContext ctx;
  std::vector<const Event*> marked;
  std::vector<uint8_t> seen(stream.size(), 0);
  for (const WindowRange& w : windows) {
    const double a = Now();
    const Matrix features =
        featurizer.Encode(stream.View(w.begin, w.size()));
    const double b = Now();
    const std::vector<int> marks = filter.MarkFeaturesWith(features, &ctx);
    const double c = Now();
    tracer->Record("featurize", static_cast<int64_t>(w.begin), root, a, b);
    tracer->Record("forward", static_cast<int64_t>(w.begin), root, b, c);
    layers->featurize_s += b - a;
    layers->forward_s += c - b;
    layers->flops += ForwardFlops(w.size(), featurizer.feature_dim(), net);
    for (size_t t = 0; t < marks.size(); ++t) {
      const size_t pos = w.begin + t;
      if (marks[t] != 0 && !seen[pos]) {
        seen[pos] = 1;
        marked.push_back(&stream[pos]);
      }
    }
  }
  std::vector<MatchSet> out(patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    CepExtractor extractor(patterns[i]);
    const double a = Now();
    const Status status = extractor.Extract(marked, &out[i]);
    const double b = Now();
    DLACEP_CHECK_MSG(status.ok(), status.ToString());
    tracer->Record("extract", static_cast<int64_t>(i), root, a, b);
    layers->extract_s += b - a;
  }
  layers->windows += windows.size();
  layers->wall_s += Now() - start;
  tracer->End(root);
  return out;
}

void WriteTrace(Result* result, const Options& options,
                const Tracer& tracer, const Layers& layers) {
  char summary[512];
  std::snprintf(summary, sizeof summary,
                "{\"ledger\": {\"wall_s\": %.9g, \"featurize_s\": %.9g, "
                "\"forward_s\": %.9g, \"extract_s\": %.9g, "
                "\"residual_s\": %.9g, \"windows\": %zu}}",
                layers.wall_s, layers.featurize_s, layers.forward_s,
                layers.extract_s, layers.residual_s(), layers.windows);
  result->Check(tracer.Write(options.trace_path, summary),
                "cannot write trace file " + options.trace_path);
}

/// Match sets compared by content (MatchSet has no operator==).
struct Outputs {
  std::vector<MatchSet> sets;

  bool operator==(const Outputs& other) const {
    if (sets.size() != other.sets.size()) return false;
    for (size_t i = 0; i < sets.size(); ++i) {
      if (!SameMatches(sets[i], other.sets[i])) return false;
    }
    return true;
  }
};

/// The timed-pass loop every workload shares: passes run until
/// --seconds of them accumulate (and at least min_passes() ran), each
/// with a pass span and the CEP counters read around it, and every
/// pass's match sets are checked equal to the first pass's (the runs
/// are lossless, so the output is deterministic). `run(traced,
/// &matches)` times one call.
std::vector<Pass> TimedPasses(const Options& options, Tracer* tracer,
                              TimedFilter* timed, Result* result,
                              Outputs* first,
                              const std::function<Pass(bool, Outputs*)>& run) {
  std::vector<Pass> passes;
  double spent = 0.0;
  for (int i = 0; i < options.min_passes() || spent < options.seconds; ++i) {
    const bool traced = options.traced() && i % 2 == 1;
    const CepCounters before = CepCounters::Read();
    const int span = tracer->Begin("pass", i, -1);
    if (timed != nullptr) {
      timed->set_parent(span);
      timed->Reset();
    }
    Outputs matches;
    Pass pass = run(traced, &matches);
    tracer->End(span);
    pass.traced = traced;
    pass.cep = CepCounters::Read() - before;
    if (i == 0) {
      *first = std::move(matches);
    } else {
      result->Check(matches == *first, "passes disagree on the matches");
    }
    spent += pass.wall;
    passes.push_back(std::move(pass));
  }
  return passes;
}

// ---------------------------------------------------------------------
// filter_online / filter_paced: one event network behind the sharded
// online runtime.

constexpr char kFilterQuery[] =
    "SEQ(ANY(S0,S1,S2,S3) a, ANY(S0,S1,S2,S3) b, ANY(S0,S1,S2,S3) c) "
    "WHERE 0.9*a.vol < b.vol < 1.1*a.vol WITHIN 20";
constexpr size_t kFilterTrainEvents = 4000;
constexpr size_t kFilterEvents = 20000;
constexpr double kPacedRate = 20000.0;  // events/s, ~65% of capacity
constexpr size_t kWarmupEvents = 4000;
constexpr size_t kFilterDecomposeEvents = 8000;

DlacepConfig FilterModelConfig(const Options& options) {
  DlacepConfig config;
  config.network.hidden_dim = 64;
  config.network.num_layers = 2;
  config.train.max_epochs = options.Epochs(3);
  config.event_threshold = 0.35;
  return config;
}

/// Producer + router + 2 shards = 4 threads; lossless and overload-free
/// so every event is accounted for and the output is deterministic.
OnlineConfig RuntimeConfig(size_t mark_size, size_t step_size) {
  OnlineConfig config;
  config.num_shards = 2;
  config.queue_capacity = 4096;
  config.batch_size = 8;
  config.overload.enabled = false;
  config.mark_size = mark_size;
  config.step_size = step_size;
  return config;
}

/// Checks shared by every online run.
void CheckRuntime(Result* result, const RuntimeStats& stats, size_t events) {
  result->Check(stats.Accounted(), "RuntimeStats::Accounted() is false");
  result->Check(stats.events_ingested == events,
                "runtime ingested " + std::to_string(stats.events_ingested) +
                    " of " + std::to_string(events) + " events");
  result->Check(stats.windows_shed == 0 && stats.windows_boosted == 0,
                "overload control acted with overload disabled");
}

/// One timed OnlineDlacep::Run over `stream`; rate > 0 paces it. `timed`
/// is the filter wrapper the runtime marks through on traced passes.
Pass OnlinePass(OnlineDlacep* online, const EventStream& stream, double rate,
                const TimedFilter* timed, Result* result, Outputs* matches) {
  ReplaySource inner(&stream);
  TimedSource source(&inner, stream.size(), rate);
  Pass pass;
  pass.events = stream.size();
  source.Start();
  const double start = Now();
  OnlineResult run;
  const Status status = online->Run(&source, &run);
  const double done = Now();
  result->Check(status.ok(), "OnlineDlacep::Run: " + status.ToString());
  CheckRuntime(result, run.stats, stream.size());
  result->Count(run.stats.events_ingested,
                run.stats.events_dropped_queue + run.stats.events_quarantined);
  pass.wall = done - start;
  pass.extract = run.stats.extract_seconds;
  std::vector<double> latency;
  MatchLatencies(run.matches, source.created(), done, &latency);
  SetMatchLatency(latency, &pass);
  if (timed != nullptr) {
    WindowLatencies(
        *timed, [&](size_t i) { return source.created().at(i); }, &pass);
  }
  pass.read_seconds = source.read_seconds();
  pass.gen_late_p99 = Quantile(source.lateness(), 0.99);
  FillRuntime(run.stats, &pass);
  matches->sets.push_back(std::move(run.matches));
  return pass;
}

int RunFilter(const Options& options, bool paced) {
  Result result(options.workload);
  const Streams streams =
      StockStreams(options.seed, options.Events(kFilterTrainEvents),
                   options.Events(kFilterEvents));
  const EventStream& live = streams.live;
  auto parsed = ParsePattern(kFilterQuery, streams.train.schema_ptr());
  DLACEP_CHECK_MSG(parsed.ok(), parsed.status().ToString());
  const Pattern& pattern = parsed.value();
  const DlacepConfig config = FilterModelConfig(options);
  const size_t w = pattern.window().count_size();
  const OnlineConfig runtime = RuntimeConfig(2 * w, w);

  std::unique_ptr<OnlineDlacep> online;
  std::unique_ptr<BuiltDlacep> built;
  const double setup_s = MedianSetup(options.setups(), [&] {
    online.reset();
    built.reset();
    built = std::make_unique<BuiltDlacep>(BuildDlacep(
        pattern, streams.train, FilterKind::kEventNetwork, config));
    online = std::make_unique<OnlineDlacep>(
        pattern, &built->pipeline->filter(), runtime);
  });

  Tracer tracer;
  TimedFilter timed(&built->pipeline->filter(), &tracer);
  OnlineDlacep traced_online(pattern, &timed, runtime);
  const double rate = paced ? kPacedRate : 0.0;
  {
    Outputs ignored;
    OnlinePass(online.get(), Prefix(live, options.Events(kWarmupEvents)),
               0.0, nullptr, &result, &ignored);
  }
  Outputs first;
  const std::vector<Pass> passes = TimedPasses(
      options, &tracer, &timed, &result, &first,
      [&](bool traced, Outputs* matches) {
        return traced ? OnlinePass(&traced_online, live, rate, &timed,
                                   &result, matches)
                      : OnlinePass(online.get(), live, rate, nullptr,
                                   &result, matches);
      });
  const double peak_rss = PeakRssMb();

  const Exact exact = RunExact(pattern, live);
  const double recall = Recall(
      CheckedCommon(&result, exact.matches, first.sets[0], "online run"),
      exact.matches.size());
  result.Info("exact_matches", static_cast<double>(exact.matches.size()),
              "count");
  if (!options.traced()) {
    EndToEnd(&result, passes, recall, setup_s, peak_rss);
    return result.Print();
  }

  Layers layers;
  layers.label_s = built->label_seconds;
  layers.train_s = built->train_seconds;
  layers.ecep_s = exact.seconds;
  const auto* trainable =
      dynamic_cast<const TrainableFilter*>(&built->pipeline->filter());
  DLACEP_CHECK(trainable != nullptr);
  const EventStream prefix =
      Prefix(live, options.Events(kFilterDecomposeEvents));
  const std::vector<MatchSet> decomposed = Decompose(
      prefix, built->pipeline->assembler(), *built->featurizer, *trainable,
      config.network, {pattern}, &tracer, &layers);
  result.Check(
      SameMatches(decomposed[0], built->pipeline->Evaluate(prefix).matches),
      "decomposed pass disagrees with DlacepPipeline::Evaluate");
  PerLayer(&result, passes, layers);
  WriteTrace(&result, options, tracer, layers);
  return result.Print();
}

// ---------------------------------------------------------------------
// cep_batch: one single-threaded DlacepPipeline::Evaluate call in a
// heavy partial-match regime, where extraction is nearly the whole call.

constexpr size_t kBatchTrainEvents = 3000;
constexpr size_t kBatchEvents = 20000;
constexpr size_t kBatchWarmupEvents = 2000;

/// QA1 with j=3 over the top-32 symbols: every pair of relayed events in
/// a 24-event window is a partial match, and a quarter of the third
/// events pass the band. A longer sequence (the j=5 of Figs 8/12) costs
/// ~700 us per event in the exact engine and made both labeling and the
/// timed call too slow to repeat.
Pattern BatchPattern(std::shared_ptr<const Schema> schema) {
  return workloads::QA1(std::move(schema), 3, 32, 0.9, 1.1, 2, 24);
}

DlacepConfig BatchModelConfig(const Options& options) {
  DlacepConfig config;
  config.network.hidden_dim = 12;
  config.network.num_layers = 1;
  config.train.max_epochs = options.Epochs(4);
  config.oversample_positive = 4;
  config.event_threshold = 0.3;
  config.num_threads = 1;
  return config;
}

/// Reads `stream` through the load generator into the in-memory batch
/// the call consumes (ids 0..n-1, as the generator numbered them).
EventStream ReadBatch(const EventStream& stream, Pass* pass) {
  ReplaySource inner(&stream);
  TimedSource source(&inner, stream.size(), 0.0);
  source.Start();
  EventStream batch(stream.schema_ptr());
  Event event;
  while (source.Read(&event).ok()) {
    batch.Append(event.type, event.timestamp, event.attrs);
  }
  pass->read_seconds = source.read_seconds();
  pass->gen_late_p99 = Quantile(source.lateness(), 0.99);
  return batch;
}

/// One timed Evaluate over `stream`. Every event was created when the
/// call started and every match is handed over when it returns.
Pass BatchPass(DlacepPipeline* pipeline, const EventStream& stream,
               const TimedFilter* timed, Result* result, Outputs* matches) {
  Pass pass;
  pass.events = stream.size();
  const EventStream batch = ReadBatch(stream, &pass);
  const double start = Now();
  PipelineResult run = pipeline->Evaluate(batch);
  const double done = Now();
  result->Count(batch.size(), 0);
  pass.wall = done - start;
  pass.extract = run.cep_seconds;
  SetMatchLatency(std::vector<double>(run.matches.size(), done - start),
                  &pass);
  pass.relayed = run.marked_events;
  if (timed != nullptr) {
    WindowLatencies(*timed, [&](size_t) { return start; }, &pass);
    pass.filter_windows = timed->windows().size();
    pass.filter_calls = timed->calls();
    pass.filter_busy = timed->busy_seconds();
  }
  matches->sets.push_back(std::move(run.matches));
  return pass;
}

int RunBatch(const Options& options) {
  Result result(options.workload);
  const Streams streams =
      StockStreams(options.seed, options.Events(kBatchTrainEvents),
                   options.Events(kBatchEvents));
  const EventStream& live = streams.live;
  const Pattern pattern = BatchPattern(streams.train.schema_ptr());
  const DlacepConfig config = BatchModelConfig(options);

  std::unique_ptr<BuiltDlacep> built;
  const double setup_s = MedianSetup(options.setups(), [&] {
    built.reset();
    built = std::make_unique<BuiltDlacep>(BuildDlacep(
        pattern, streams.train, FilterKind::kEventNetwork, config));
  });

  Tracer tracer;
  auto owned = std::make_unique<TimedFilter>(&built->pipeline->filter(),
                                             &tracer);
  TimedFilter* timed = owned.get();
  DlacepPipeline traced_pipeline(pattern, std::move(owned), config);
  {
    Outputs ignored;
    BatchPass(built->pipeline.get(),
              Prefix(live, options.Events(kBatchWarmupEvents)), nullptr,
              &result, &ignored);
  }
  Outputs first;
  const std::vector<Pass> passes = TimedPasses(
      options, &tracer, timed, &result, &first,
      [&](bool traced, Outputs* matches) {
        return traced ? BatchPass(&traced_pipeline, live, timed, &result,
                                  matches)
                      : BatchPass(built->pipeline.get(), live, nullptr,
                                  &result, matches);
      });
  const double peak_rss = PeakRssMb();

  const Exact exact = RunExact(pattern, live);
  const double recall =
      Recall(CheckedCommon(&result, exact.matches, first.sets[0], "Evaluate"),
             exact.matches.size());
  result.Info("exact_matches", static_cast<double>(exact.matches.size()),
              "count");
  if (!options.traced()) {
    EndToEnd(&result, passes, recall, setup_s, peak_rss);
    return result.Print();
  }

  Layers layers;
  layers.label_s = built->label_seconds;
  layers.train_s = built->train_seconds;
  layers.ecep_s = exact.seconds;
  const auto* trainable =
      dynamic_cast<const TrainableFilter*>(&built->pipeline->filter());
  DLACEP_CHECK(trainable != nullptr);
  const std::vector<MatchSet> decomposed = Decompose(
      live, built->pipeline->assembler(), *built->featurizer, *trainable,
      config.network, {pattern}, &tracer, &layers);
  result.Check(SameMatches(decomposed[0], first.sets[0]),
               "decomposed pass disagrees with DlacepPipeline::Evaluate");
  PerLayer(&result, passes, layers);
  WriteTrace(&result, options, tracer, layers);
  return result.Print();
}

// ---------------------------------------------------------------------
// serve8: eight registered queries behind one MultiQueryServer.

constexpr size_t kServeTrainEvents = 2000;
constexpr size_t kServeEvents = 15000;
constexpr size_t kServeWarmupEvents = 2000;
constexpr size_t kServeDecomposeEvents = 4000;

/// bench_multi_query's serving mix at W=12: two structural-twin pairs
/// (q0/q1, q3/q4) for the dedup path plus four distinct shapes.
std::vector<Pattern> ServingMix(std::shared_ptr<const Schema> s) {
  using namespace workloads;
  constexpr size_t w = 12;
  std::vector<Pattern> patterns;
  patterns.push_back(QA1(s, 4, 7, 0.9, 1.1, 3, w));
  patterns.push_back(QA1(s, 4, 7, 0.9, 1.1, 3, w));
  patterns.push_back(QA1(s, 5, 5, 0.85, 1.15, 2, w));
  patterns.push_back(QA3(s, 5, 6, 3, 2, 1, 4, 0.9, 1.1, 1.5, w));
  patterns.push_back(QA3(s, 5, 6, 3, 2, 1, 4, 0.9, 1.1, 1.5, w));
  patterns.push_back(QA4(s, 4, 6, 3, 1, 3, 0.9, 1.1, 0.8, 1.25, w));
  patterns.push_back(QA10(s, 3, 8, 0.85, 1.2, w));
  patterns.push_back(QA11(s, false, 8, 0.8, 1.25, w));
  return patterns;
}

DlacepConfig ServeModelConfig(const Options& options) {
  DlacepConfig config = workloads::FastBenchConfig();
  config.network.hidden_dim = 96;
  config.train.max_epochs = options.Epochs(4);
  return config;
}

/// One timed MultiQueryServer::Run; per-query match sets in query order.
Pass ServePass(serve::MultiQueryServer* server, const EventStream& stream,
               Result* result, Outputs* matches) {
  ReplaySource inner(&stream);
  TimedSource source(&inner, stream.size(), 0.0);
  Pass pass;
  pass.events = stream.size();
  source.Start();
  const double start = Now();
  serve::MultiQueryResult run;
  const Status status = server->Run(&source, &run);
  const double done = Now();
  result->Check(status.ok(), "MultiQueryServer::Run: " + status.ToString());
  CheckRuntime(result, run.stats, stream.size());
  // Accounting in (query, event) pairs: a degraded query fails all of
  // its events.
  uint64_t degraded = 0;
  for (const serve::QueryResult& query : run.queries) {
    degraded += query.degraded ? 1 : 0;
  }
  const uint64_t queries = run.queries.size();
  result->Count(run.stats.events_ingested * queries,
                (run.stats.events_dropped_queue +
                 run.stats.events_quarantined) * queries +
                    run.stats.events_ingested * degraded);
  pass.wall = done - start;
  pass.extract = run.stats.extract_seconds;
  std::vector<double> latency;
  for (serve::QueryResult& query : run.queries) {
    MatchLatencies(query.matches, source.created(), done, &latency);
    matches->sets.push_back(std::move(query.matches));
  }
  SetMatchLatency(latency, &pass);
  // The shared trunk decodes every query's head inside the server's own
  // filter, out of a wrapper's reach: window latency here is the
  // runtime's watermark-close → merged-marks histogram.
  pass.window_lat_p50 = HistogramQuantile(run.stats.window_latency, 0.5);
  pass.window_lat_p99 = HistogramQuantile(run.stats.window_latency, 0.99);
  pass.read_seconds = source.read_seconds();
  pass.gen_late_p99 = Quantile(source.lateness(), 0.99);
  FillRuntime(run.stats, &pass);
  pass.sharing = run.sharing;
  return pass;
}

int RunServe(const Options& options) {
  Result result(options.workload);
  const Streams streams =
      StockStreams(options.seed, options.Events(kServeTrainEvents),
                   options.Events(kServeEvents));
  const EventStream& live = streams.live;
  const std::vector<Pattern> patterns =
      ServingMix(streams.train.schema_ptr());
  const DlacepConfig config = ServeModelConfig(options);

  std::unique_ptr<serve::MultiQueryServer> server;
  std::unique_ptr<serve::QueryRegistry> registry;
  std::unique_ptr<MultiPatternDlacep> multi;
  const double setup_s = MedianSetup(options.setups(), [&] {
    server.reset();
    registry.reset();
    multi.reset();
    multi = std::make_unique<MultiPatternDlacep>(patterns, streams.train,
                                                 config);
    registry = std::make_unique<serve::QueryRegistry>();
    for (size_t q = 0; q < patterns.size(); ++q) {
      serve::QueryOptions query;
      query.name = "q";
      query.name += std::to_string(q);
      const auto id = registry->Register(patterns[q], query);
      DLACEP_CHECK_MSG(id.ok(), id.status().ToString());
    }
    serve::ServeConfig serve_config;
    serve_config.online =
        RuntimeConfig(2 * multi->max_window(), multi->max_window());
    server = std::make_unique<serve::MultiQueryServer>(
        registry.get(), multi->filter(), multi->filter(), serve_config);
  });

  Tracer tracer;
  {
    Outputs ignored;
    ServePass(server.get(), Prefix(live, options.Events(kServeWarmupEvents)),
              &result, &ignored);
  }
  Outputs first;
  const std::vector<Pass> passes = TimedPasses(
      options, &tracer, nullptr, &result, &first,
      [&](bool, Outputs* matches) {
        return ServePass(server.get(), live, &result, matches);
      });
  const double peak_rss = PeakRssMb();

  // Recall pooled over the queries' matches: a mean of per-query recalls
  // jumps by 1/8 whenever a query with one or two exact matches wins or
  // loses one. Structural twins share one exact run.
  result.Check(first.sets.size() == patterns.size(),
               "server reported " + std::to_string(first.sets.size()) +
                   " of " + std::to_string(patterns.size()) + " queries");
  std::map<std::string, Exact> exact;
  double ecep_s = 0.0;
  size_t common = 0, total = 0;
  for (size_t q = 0; q < first.sets.size() && q < patterns.size(); ++q) {
    const std::string key = patterns[q].ToString();
    if (exact.count(key) == 0) {
      exact[key] = RunExact(patterns[q], live);
      ecep_s += exact[key].seconds;
    }
    common += CheckedCommon(&result, exact[key].matches, first.sets[q],
                            "query q" + std::to_string(q));
    total += exact[key].matches.size();
  }
  result.Info("exact_matches", static_cast<double>(total), "count");
  if (!options.traced()) {
    EndToEnd(&result, passes, Recall(common, total), setup_s, peak_rss);
    return result.Print();
  }

  // MultiPatternDlacep keeps its featurizer private; the same inputs
  // rebuild an identical one, and re-running the unified labeling splits
  // set-up into labeling and training.
  std::vector<std::vector<TypeId>> type_sets;
  for (const Pattern& pattern : patterns) {
    for (auto& set : pattern.PrimitiveTypeSets()) {
      type_sets.push_back(std::move(set));
    }
  }
  const Featurizer featurizer(type_sets, streams.train);
  const InputAssembler assembler(2 * multi->max_window(),
                                 multi->max_window());
  Layers layers;
  const double label_start = Now();
  for (const Pattern& pattern : patterns) {
    BuildFilterDataset(pattern, streams.train, assembler, featurizer,
                       config.train_fraction, config.split_seed,
                       config.negation_aware_labeling);
  }
  layers.label_s = Now() - label_start;
  layers.train_s = setup_s - layers.label_s;
  layers.ecep_s = ecep_s;
  const EventStream prefix =
      Prefix(live, options.Events(kServeDecomposeEvents));
  const Outputs decomposed{Decompose(prefix, assembler, featurizer,
                                     *multi->filter(), config.network,
                                     patterns, &tracer, &layers)};
  result.Check(decomposed == Outputs{multi->Evaluate(prefix).per_pattern},
               "decomposed pass disagrees with MultiPatternDlacep::Evaluate");
  PerLayer(&result, passes, layers);
  WriteTrace(&result, options, tracer, layers);
  return result.Print();
}

int Usage() {
  std::fprintf(stderr,
               "usage: dlacep_bench --workload "
               "filter_online|filter_paced|cep_batch|serve8 --seed N\n"
               "                    [--seconds S] [--trace FILE] [--smoke] "
               "[--json FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      options.trace_path = argv[++i];
    } else if (flag == "--json" && has_value) {
      ++i;  // consumed by JsonReport::Init
    } else if (flag == "--smoke") {
      options.smoke = true;
    } else {
      return Usage();
    }
  }
  if (!(options.seconds > 0.0 && options.seconds <= 600.0)) return Usage();
  if (options.workload == "filter_online") return RunFilter(options, false);
  if (options.workload == "filter_paced") return RunFilter(options, true);
  if (options.workload == "cep_batch") return RunBatch(options);
  if (options.workload == "serve8") return RunServe(options);
  return Usage();
}

}  // namespace
}  // namespace bench
}  // namespace dlacep

int main(int argc, char** argv) {
  dlacep::workloads::JsonReport::Init(argc, argv);
  return dlacep::workloads::JsonReport::Finish(
      dlacep::bench::Main(argc, argv));
}
