// dlacep — command-line front end to the library.
//
// Subcommands:
//   generate  --kind stock|synthetic --events N [--seed S] --out F.csv
//       Synthesize a dataset and write it as CSV.
//   run       --query Q --data F.csv [--engine nfa|tree|lazy|adaptive]
//       Evaluate a PQL query exactly and print matches + statistics.
//   compare   --query Q --train F.csv --test G.csv
//             [--filter event|window] [--hidden N] [--layers N]
//             [--epochs N] [--num_threads N] [--shards N]
//             [--save model.bin | --load model.bin]
//       Train (or load) a DLACEP filter on the training stream and
//       compare DLACEP against exact CEP on the test stream. With
//       --shards N the trained filter additionally streams the test
//       set through the sharded online runtime and the match sets are
//       cross-checked.
//   replay    --query Q --data F.csv [--filter KIND] [--rate R]
//             [--queue_capacity N] [--shards N] [--batch_size N]
//             [--drop 0|1]
//       Stream a CSV through the online runtime (bounded ingest queue,
//       N thread-per-core shards fed round-robin, overload control)
//       and print RuntimeStats at exit. --shards defaults to 1;
//       --pin 0 disables core pinning. Output is byte-identical at
//       any shard count and batch size.
//   serve     --query Q [--events N] [--symbols N] [--seed S]
//             [--filter KIND] [--rate R] [--queue_capacity N] ...
//       Like replay, but the source is live stock-market simulation.
//
// Multi-query serving: replay/serve/compare accept --queries, either an
// integer N (register N copies of --query — exercises structural-twin
// dedup) or a semicolon-separated PQL list. Queries are registered in a
// runtime QueryRegistry and served by one shared pipeline (one NN trunk
// forward per window with per-query heads, shared CEP sub-plans);
// per-query match counts, sharing statistics, and the aggregate
// queries/sec x events/sec headline print at exit. --churn_every_ms MS
// (replay/serve) registers/unregisters a clone of query 0 on that
// cadence while the stream drains. compare --queries additionally
// cross-checks every served query against the batch evaluator and an
// isolated single-query online run.
//
// Online filter KINDs: pass (default), type-shed, random-shed, oracle,
// or event|window with --train F.csv (trains first, then streams).
//
// Fault tolerance (replay/serve): --deadline/--anomaly_streak tune the
// HealthGuard, --checkpoint_dir/--checkpoint_every/--restore drive
// crash-consistent snapshots, and --inject=... runs the deterministic
// fault harness (see runtime/fault_injection.h for the spec grammar).
//
// Per-query fault isolation (--queries serving): --query_pm_budget /
// --query_deadline_ms cap each shared-extraction engine chunk;
// --breaker_trips sets the circuit breaker's consecutive-abort trip
// threshold. A query that keeps blowing its budget is suspended alone
// (reported degraded) while every other query keeps exact answers.
// --inject pathological_query registers a combinatorial-blowup pattern
// mid-run and churn_storm hammers register/unregister; replay's
// --verify_isolated 1 re-runs each initial query in isolation and exits
// nonzero unless non-degraded served match sets are byte-identical.
//
// Notes: --load restores network weights only; the featurizer is refit
// from --train, so pass the same training stream used with --save.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "cep/engine.h"
#include "dlacep/event_filter.h"
#include "dlacep/multi_pattern.h"
#include "dlacep/oracle_filter.h"
#include "dlacep/pipeline.h"
#include "dlacep/shedding_filter.h"
#include "dlacep/window_filter.h"
#include "nn/serialize.h"
#include "obs/export.h"
#include "obs/stages.h"
#include "pattern/parser.h"
#include "runtime/fault_injection.h"
#include "runtime/online.h"
#include "runtime/source.h"
#include "serve/server.h"
#include "stream/csv_io.h"
#include "stream/generator.h"
#include "stream/stocksim.h"

namespace dlacep {
namespace {

/// Minimal --flag value parser.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "expected --flag, got '%s'\n", argv[i]);
        ok_ = false;
        return;
      }
      values_[argv[i] + 2] = argv[i + 1];
    }
    ok_ = argc % 2 == 0;
    if (!ok_) std::fprintf(stderr, "flags must come in --name value pairs\n");
  }

  bool ok() const { return ok_; }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  long GetInt(const std::string& name, long fallback) const {
    return Has(name) ? std::strtol(Get(name).c_str(), nullptr, 10)
                     : fallback;
  }
  double GetDouble(const std::string& name, double fallback) const {
    return Has(name) ? std::strtod(Get(name).c_str(), nullptr) : fallback;
  }

 private:
  std::map<std::string, std::string> values_;
  bool ok_ = true;
};

/// The integer flags the commands cast to an unsigned type, each with
/// the least value the library accepts. A negative value would wrap to
/// a huge count and a non-numeric one would silently read as 0, so both
/// are rejected before any command runs, as is a value below the least.
struct CountFlag {
  const char* name;
  long least;
};
constexpr CountFlag kCountFlags[] = {
    {"shards", 0},          {"queue_capacity", 0},  {"batch_size", 0},
    {"num_threads", 0},     {"hidden", 1},          {"layers", 1},
    {"epochs", 0},          {"events", 0},          {"symbols", 1},
    {"query_pm_budget", 0}, {"breaker_trips", 0},   {"checkpoint_every", 0},
    {"anomaly_streak", 0},  {"probe_period", 0},    {"probe_passes", 0},
};

/// The floating-point flags, each with the closed range the commands
/// accept. strtod reads a non-numeric value as 0 and NaN passes no
/// comparison, so a value must parse whole and lie in its range; the
/// ranges stop at the largest finite double, which rejects infinities.
/// --keep outside [0, 1] would otherwise fail a CHECK.
constexpr double kMaxFinite = std::numeric_limits<double>::max();
struct RealFlag {
  const char* name;
  double least;
  double most;
  const char* range;  ///< the range in words, for the error message
};
constexpr RealFlag kRealFlags[] = {
    {"keep", 0.0, 1.0, "a number in [0, 1]"},
    {"threshold", -kMaxFinite, kMaxFinite, "a finite number"},
    {"rate", 0.0, kMaxFinite, "a finite non-negative number"},
    {"deadline", 0.0, kMaxFinite, "a finite non-negative number"},
    {"metrics_every", 0.0, kMaxFinite, "a finite non-negative number"},
    {"query_deadline_ms", 0.0, kMaxFinite, "a finite non-negative number"},
    {"churn_every_ms", 0.0, kMaxFinite, "a finite non-negative number"},
    {"drift_reference", 0.0, kMaxFinite, "a finite non-negative number"},
};

Status CheckNumericFlags(const Args& args) {
  for (const CountFlag& flag : kCountFlags) {
    if (!args.Has(flag.name)) continue;
    const std::string text = args.Get(flag.name);
    char* end = nullptr;
    const long value = std::strtol(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || value < flag.least) {
      return Status::InvalidArgument(
          "--" + std::string(flag.name) + " must be a " +
          (flag.least > 0 ? "positive" : "non-negative") +
          " integer, got '" + text + "'");
    }
  }
  for (const RealFlag& flag : kRealFlags) {
    if (!args.Has(flag.name)) continue;
    const std::string text = args.Get(flag.name);
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' ||
        !(value >= flag.least && value <= flag.most)) {
      return Status::InvalidArgument("--" + std::string(flag.name) +
                                     " must be " + flag.range + ", got '" +
                                     text + "'");
    }
  }
  return Status::Ok();
}

/// --engine NAME (default nfa). Main rejects an unknown name before any
/// command runs, so the commands read value() directly.
StatusOr<EngineKind> ParseEngineKind(const Args& args) {
  const std::string name = args.Get("engine", "nfa");
  if (name == "nfa") return EngineKind::kNfa;
  if (name == "tree") return EngineKind::kTree;
  if (name == "lazy") return EngineKind::kLazy;
  if (name == "adaptive") return EngineKind::kAdaptive;
  return Status::InvalidArgument("unknown --engine '" + name +
                                 "' (expected nfa|tree|lazy|adaptive)");
}

/// The filter flags shared by every command that trains one: --hidden,
/// --layers, --epochs, --threshold and --batch_size.
DlacepConfig MakeTrainConfig(const Args& args) {
  DlacepConfig config;
  config.network.hidden_dim = static_cast<size_t>(args.GetInt("hidden", 12));
  config.network.num_layers = static_cast<size_t>(args.GetInt("layers", 1));
  config.train.max_epochs = static_cast<size_t>(args.GetInt("epochs", 30));
  config.event_threshold = args.GetDouble("threshold", 0.35);
  config.window_threshold = config.event_threshold;
  config.batch_size = static_cast<size_t>(args.GetInt("batch_size", 1));
  return config;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  dlacep generate --kind stock|synthetic --events N "
               "[--seed S] --out F.csv\n"
               "  dlacep run --query Q --data F.csv "
               "[--engine nfa|tree|lazy|adaptive]\n"
               "  dlacep compare --query Q --train F.csv --test G.csv\n"
               "       [--filter event|window] [--hidden N] [--layers N]"
               " [--epochs N]\n"
               "       [--threshold P] [--num_threads N] [--batch_size N]"
               " [--shards N]\n"
               "       [--save model.bin | --load model.bin]\n"
               "  dlacep replay --query Q --data F.csv [--filter KIND]\n"
               "       [--rate EV_PER_SEC] [--queue_capacity N]"
               " [--shards N [--pin 0|1]]\n"
               "       [--batch_size N]\n"
               "       [--drop 0|1] [--overload 0|1] [--train F.csv]\n"
               "  dlacep serve --query Q [--events N] [--symbols N]"
               " [--seed S]\n"
               "       [--filter KIND] [--rate EV_PER_SEC]"
               " [--queue_capacity N]\n"
               "       [--shards N [--pin 0|1]] [--batch_size N]\n"
               "       [--drop 0|1] [--overload 0|1]"
               " [--train F.csv]\n"
               "  (online filter KINDs: pass | type-shed | random-shed |"
               " oracle | event | window)\n"
               "  multi-query serving (replay/serve/compare):\n"
               "       [--queries N | --queries 'Q1;Q2;...']"
               " [--engine nfa|tree|lazy|adaptive]\n"
               "       [--churn_every_ms MS]   (replay/serve only)\n"
               "  observability flags (replay/serve):\n"
               "       [--metrics_out FILE(.prom|.json)]"
               " [--metrics_every SEC]\n"
               "  fault-tolerance flags (replay/serve):\n"
               "       [--health 0|1] [--deadline SEC] [--anomaly_streak N]\n"
               "       [--probe_period N] [--probe_passes N]\n"
               "       [--checkpoint_dir DIR] [--checkpoint_every N]"
               " [--restore 0|1]\n"
               "       [--inject nan_burst[:B[:C]],model_corrupt,"
               "corrupt_source[:P],\n"
               "                wedge[:W[:S]],source_fail[:AT[:N]],\n"
               "                pathological_query[:AT[:W]],"
               "churn_storm[:N]]\n"
               "  per-query isolation flags (--queries serving):\n"
               "       [--query_pm_budget N] [--query_deadline_ms MS]"
               " [--breaker_trips N]\n"
               "       [--verify_isolated 0|1]   (replay only)\n");
  return 2;
}

int Generate(const Args& args) {
  const std::string kind = args.Get("kind", "synthetic");
  const size_t events =
      static_cast<size_t>(args.GetInt("events", 10000));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  const std::string out = args.Get("out");
  if (out.empty()) return Usage();
  if (kind != "stock" && kind != "synthetic") {
    std::fprintf(stderr, "unknown --kind '%s' (generate: stock|synthetic)\n",
                 kind.c_str());
    return 1;
  }

  EventStream stream = [&] {
    if (kind == "stock") {
      StockSimConfig config;
      config.num_events = events;
      config.seed = seed;
      return GenerateStockStream(config);
    }
    SyntheticConfig config;
    config.num_events = events;
    config.seed = seed;
    return GenerateSynthetic(config);
  }();
  const Status status = WriteCsv(stream, out);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu events to %s\n", stream.size(), out.c_str());
  return 0;
}

StatusOr<EventStream> LoadStream(const std::string& path) {
  if (path.empty()) {
    return Status::InvalidArgument("missing CSV path");
  }
  return ReadCsv(path);
}

int RunQuery(const Args& args) {
  auto stream = LoadStream(args.Get("data"));
  if (!stream.ok()) {
    std::fprintf(stderr, "%s\n", stream.status().ToString().c_str());
    return 1;
  }
  auto pattern = ParsePattern(args.Get("query"), stream.value().schema_ptr());
  if (!pattern.ok()) {
    std::fprintf(stderr, "%s\n", pattern.status().ToString().c_str());
    return 1;
  }
  auto engine = CreateEngine(ParseEngineKind(args).value(), pattern.value());
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }
  MatchSet matches;
  const Status status = engine.value()->Evaluate(
      {stream.value().events().data(), stream.value().size()}, &matches);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  const EngineStats& stats = engine.value()->stats();
  std::printf("pattern        : %s\n", pattern.value().ToString().c_str());
  std::printf("engine         : %s\n", engine.value()->name().c_str());
  std::printf("events         : %llu\n",
              static_cast<unsigned long long>(stats.events_processed));
  std::printf("partial matches: %llu\n",
              static_cast<unsigned long long>(stats.partial_matches));
  std::printf("matches        : %zu\n", matches.size());
  std::printf("elapsed        : %.3fs (%.0f events/s)\n",
              stats.elapsed_seconds, stats.throughput());
  size_t shown = 0;
  for (const Match& match : matches) {
    if (++shown > 20) {
      std::printf("  ... (%zu more)\n", matches.size() - 20);
      break;
    }
    std::printf("  %s\n", match.ToString().c_str());
  }
  return 0;
}

int CompareMulti(const Args& args, const EventStream& train,
                 const EventStream& test);

int Compare(const Args& args) {
  auto train = LoadStream(args.Get("train"));
  auto test = LoadStream(args.Get("test"));
  if (!train.ok() || !test.ok()) {
    std::fprintf(stderr, "cannot load streams\n");
    return 1;
  }
  const std::string filter = args.Get("filter", "event");
  if (filter != "event" && filter != "window") {
    std::fprintf(stderr, "unknown --filter '%s' (compare: event|window)\n",
                 filter.c_str());
    return 1;
  }
  if (args.Has("queries")) {
    if (filter != "event") {
      std::fprintf(stderr,
                   "compare --queries trains the shared event trunk; "
                   "--filter '%s' is not supported\n",
                   filter.c_str());
      return 1;
    }
    return CompareMulti(args, train.value(), test.value());
  }
  auto pattern = ParsePattern(args.Get("query"), train.value().schema_ptr());
  if (!pattern.ok()) {
    std::fprintf(stderr, "%s\n", pattern.status().ToString().c_str());
    return 1;
  }
  // The batch pipeline and the --shards replay both need a count window.
  const Status online_ok = OnlineDlacep::ValidateForOnline(pattern.value());
  if (!online_ok.ok()) {
    std::fprintf(stderr, "%s\n", online_ok.ToString().c_str());
    return 1;
  }

  DlacepConfig config = MakeTrainConfig(args);
  config.num_threads = static_cast<size_t>(args.GetInt("num_threads", 1));
  const FilterKind kind = filter == "window" ? FilterKind::kWindowNetwork
                                             : FilterKind::kEventNetwork;

  std::printf("building DLACEP (%s) on %zu training events...\n",
              FilterKindName(kind), train.value().size());
  BuiltDlacep built =
      BuildDlacep(pattern.value(), train.value(), kind, config);
  std::printf("  trained %zu epochs, held-out entity F1 %.3f\n",
              built.train_result.epochs_run, built.test_metrics.f1());

  // Optional persistence of the filter network.
  auto* trainable = dynamic_cast<TrainableFilter*>(&built.pipeline->filter());
  if (args.Has("load") && trainable != nullptr) {
    const Status status =
        LoadParameters(trainable->Params(), args.Get("load"));
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    trainable->OnParamsChanged();  // repack frozen inference weights
    std::printf("  loaded weights from %s\n", args.Get("load").c_str());
  }
  if (args.Has("save") && trainable != nullptr) {
    const Status status =
        SaveParameters(trainable->Params(), args.Get("save"));
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("  saved weights to %s\n", args.Get("save").c_str());
  }

  const ComparisonResult result =
      built.pipeline->CompareWithEcep(test.value());
  std::printf("\nexact matches   : %zu\n", result.exact_matches.size());
  std::printf("DLACEP matches  : %zu\n", result.dlacep.matches.size());
  std::printf("recall          : %.3f\n", result.quality.recall);
  std::printf("precision       : %.3f\n", result.quality.precision);
  std::printf("filtering ratio : %.1f%%\n",
              result.dlacep.filtering_ratio() * 100);
  std::printf("throughput gain : %.2fx\n", result.throughput_gain());

  // --shards N: stream the test set through the sharded online runtime
  // with the same trained filter and cross-check it against the batch
  // matches — the byte-equality contract, exercised end to end from the
  // CLI.
  const long shards = args.GetInt("shards", 0);
  if (shards > 0) {
    OnlineConfig online_config;
    online_config.num_shards = static_cast<size_t>(shards);
    online_config.batch_size = config.batch_size;
    online_config.overload.enabled = false;  // lossless, like the batch run
    OnlineDlacep online(pattern.value(), &built.pipeline->filter(),
                        online_config);
    ReplaySource source(&test.value());
    const OnlineResult streamed = online.Run(&source);
    const bool identical =
        streamed.matches.size() == result.dlacep.matches.size() &&
        streamed.matches.IntersectionSize(result.dlacep.matches) ==
            result.dlacep.matches.size();
    std::printf("\nsharded replay  : %ld shards\n", shards);
    std::printf("  events/sec    : %.0f\n",
                streamed.stats.elapsed_seconds > 0
                    ? static_cast<double>(test.value().size()) /
                          streamed.stats.elapsed_seconds
                    : 0.0);
    std::printf("  accounted     : %s\n",
                streamed.stats.Accounted() ? "yes" : "NO");
    std::printf("  matches equal : %s\n", identical ? "yes" : "NO");
    if (!identical || !streamed.stats.Accounted()) return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------
// Online streaming modes (serve / replay).

/// The online filter plus whatever owns it (a shedding baseline, the
/// oracle, or a whole trained pipeline for the learned kinds).
struct OnlineFilter {
  const StreamFilter* filter = nullptr;
  std::unique_ptr<StreamFilter> owned;
  std::unique_ptr<BuiltDlacep> built;  ///< keeps featurizer + filter alive
  TrainableFilter* trainable = nullptr;  ///< non-null for learned kinds
};

StatusOr<OnlineFilter> MakeOnlineFilter(const Args& args,
                                        const Pattern& pattern) {
  OnlineFilter out;
  const std::string kind = args.Get("filter", "pass");
  if (kind == "pass") {
    out.owned = std::make_unique<PassThroughFilter>();
  } else if (kind == "type-shed") {
    out.owned = std::make_unique<TypeSheddingFilter>(pattern);
  } else if (kind == "random-shed") {
    out.owned = std::make_unique<RandomSheddingFilter>(
        args.GetDouble("keep", 0.5),
        static_cast<uint64_t>(args.GetInt("seed", 1)));
  } else if (kind == "oracle") {
    out.owned = std::make_unique<OracleFilter>(pattern);
  } else if (kind == "event" || kind == "window") {
    auto train = LoadStream(args.Get("train"));
    if (!train.ok()) {
      return Status::InvalidArgument(
          "--filter " + kind + " needs --train F.csv (" +
          train.status().ToString() + ")");
    }
    std::printf("training %s filter on %zu events...\n", kind.c_str(),
                train.value().size());
    out.built = std::make_unique<BuiltDlacep>(
        BuildDlacep(pattern, train.value(),
                    kind == "window" ? FilterKind::kWindowNetwork
                                     : FilterKind::kEventNetwork,
                    MakeTrainConfig(args)));
    out.filter = &out.built->pipeline->filter();
    out.trainable =
        dynamic_cast<TrainableFilter*>(&out.built->pipeline->filter());
    return out;
  } else {
    return Status::InvalidArgument("unknown online filter kind: " + kind);
  }
  out.filter = out.owned.get();
  return out;
}

OnlineConfig MakeOnlineConfig(const Args& args) {
  OnlineConfig config;
  config.queue_capacity =
      static_cast<size_t>(args.GetInt("queue_capacity", 1024));
  config.drop_when_full = args.GetInt("drop", 0) != 0;
  config.overload.enabled = args.GetInt("overload", 1) != 0;
  config.drift.enabled = args.Has("drift_reference");
  config.drift.reference_rate = args.GetDouble("drift_reference", 0.0);
  config.health.enabled = args.GetInt("health", 1) != 0;
  config.health.mark_deadline_seconds = args.GetDouble("deadline", 0.0);
  config.health.anomaly_streak =
      static_cast<size_t>(args.GetInt("anomaly_streak", 0));
  config.health.probe_period =
      static_cast<size_t>(args.GetInt("probe_period", 8));
  config.health.probe_passes =
      static_cast<size_t>(args.GetInt("probe_passes", 3));
  config.checkpoint.dir = args.Get("checkpoint_dir");
  config.checkpoint.every_events =
      static_cast<uint64_t>(args.GetInt("checkpoint_every", 0));
  config.checkpoint.restore = args.GetInt("restore", 0) != 0;
  config.batch_size = static_cast<size_t>(args.GetInt("batch_size", 1));
  config.num_shards = static_cast<size_t>(args.GetInt("shards", 1));
  config.pin_shard_threads = args.GetInt("pin", 1) != 0;
  config.engine = ParseEngineKind(args).value();
  return config;
}

int StreamOnline(const Args& args, const Pattern& pattern,
                 std::unique_ptr<StreamSource> source) {
  const Status online_ok = OnlineDlacep::ValidateForOnline(pattern);
  if (!online_ok.ok()) {
    std::fprintf(stderr, "%s\n", online_ok.ToString().c_str());
    return 1;
  }
  auto filter = MakeOnlineFilter(args, pattern);
  if (!filter.ok()) {
    std::fprintf(stderr, "%s\n", filter.status().ToString().c_str());
    return 1;
  }

  auto plan = ParseFaultSpec(args.Get("inject"));
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 1;
  }
  FaultInjector injector(plan.value());
  OnlineConfig config = MakeOnlineConfig(args);
  // Fail with a Status instead of the extractor's CHECK when the chosen
  // engine rejects this pattern shape (tree/lazy cover SEQ/CONJ/DISJ
  // only; nfa and adaptive accept everything).
  if (auto probe = CreateEngine(config.engine, pattern, config.engine_options);
      !probe.ok()) {
    std::fprintf(stderr, "%s\n", probe.status().ToString().c_str());
    return 1;
  }
  if (plan.value().any()) {
    std::printf("injecting faults: %s\n", args.Get("inject").c_str());
    injector.InstallNanHook();
    source = injector.WrapSource(std::move(source));
    config.worker_window_hook = [&injector](uint64_t seq) {
      injector.OnWorkerWindow(seq);
    };
    if (plan.value().model_corrupt) {
      if (filter.value().trainable != nullptr) {
        CorruptParams(filter.value().trainable);
      } else {
        std::printf(
            "  (model_corrupt: filter '%s' has no parameters, skipped)\n",
            filter.value().filter->name().c_str());
      }
    }
  }

  // --metrics_out FILE exposes the obs registry: Prometheus text (or the
  // unified bench JSON schema for *.json paths), rewritten every
  // --metrics_every SEC while streaming and once more at exit. Touching
  // the standard families first makes every scrape schema-complete even
  // for stages this run never executes.
  std::unique_ptr<obs::MetricsExporter> exporter;
  if (args.Has("metrics_out")) {
    obs::TouchStandardMetrics();
    exporter = std::make_unique<obs::MetricsExporter>(
        args.Get("metrics_out"), args.GetDouble("metrics_every", 0.0));
  }

  OnlineDlacep online(pattern, filter.value().filter, config);
  OnlineResult result;
  const Status run_status = online.Run(source.get(), &result);
  if (!run_status.ok()) {
    std::fprintf(stderr, "%s\n", run_status.ToString().c_str());
    return 1;
  }
  if (exporter != nullptr && !exporter->Flush()) {
    std::fprintf(stderr, "cannot write %s\n",
                 args.Get("metrics_out").c_str());
    return 1;
  }
  std::printf("pattern : %s\n", pattern.ToString().c_str());
  std::printf("filter  : %s\n", filter.value().filter->name().c_str());
  std::printf("%s", result.stats.ToString().c_str());
  size_t shown = 0;
  for (const Match& match : result.matches) {
    if (++shown > 10) {
      std::printf("  ... (%zu more)\n", result.matches.size() - 10);
      break;
    }
    std::printf("  %s\n", match.ToString().c_str());
  }
  return result.stats.Accounted() ? 0 : 1;
}

// ---------------------------------------------------------------------
// Multi-query serving (--queries on replay/serve/compare).

/// --queries is either an integer N (N copies of --query) or a
/// semicolon-separated PQL list.
StatusOr<std::vector<Pattern>> ParseQueries(
    const Args& args, std::shared_ptr<const Schema> schema) {
  const std::string spec = args.Get("queries");
  std::vector<std::string> texts;
  if (!spec.empty() &&
      spec.find_first_not_of("0123456789") == std::string::npos) {
    const long n = std::strtol(spec.c_str(), nullptr, 10);
    if (n <= 0) return Status::InvalidArgument("--queries N must be >= 1");
    if (!args.Has("query")) {
      return Status::InvalidArgument(
          "--queries N needs --query Q to replicate");
    }
    texts.assign(static_cast<size_t>(n), args.Get("query"));
  } else {
    size_t begin = 0;
    while (begin <= spec.size()) {
      const size_t end = spec.find(';', begin);
      const std::string text = spec.substr(
          begin, end == std::string::npos ? std::string::npos : end - begin);
      if (!text.empty()) texts.push_back(text);
      if (end == std::string::npos) break;
      begin = end + 1;
    }
    if (texts.empty()) {
      return Status::InvalidArgument("--queries: empty query list");
    }
  }
  std::vector<Pattern> patterns;
  for (const std::string& text : texts) {
    auto pattern = ParsePattern(text, schema);
    if (!pattern.ok()) return pattern.status();
    patterns.push_back(std::move(pattern.value()));
  }
  return patterns;
}


void PrintSharing(const serve::SharingStats& sharing) {
  std::printf(
      "sharing : %zu partitions, %zu engines run, %zu served shared, "
      "%zu guard-pruned, %zu type-pruned\n",
      sharing.partitions, sharing.engines_run, sharing.engines_shared,
      sharing.guard_pruned, sharing.type_pruned);
  if (sharing.budget_aborts > 0 || sharing.breaker_trips > 0 ||
      sharing.chunks_skipped > 0) {
    std::printf(
        "isolate : %zu chunks run, %zu skipped, %zu budget aborts, "
        "%zu breaker trips\n",
        sharing.chunks_run, sharing.chunks_skipped, sharing.budget_aborts,
        sharing.breaker_trips);
  }
}

size_t MaxCountWindow(const std::vector<Pattern>& patterns) {
  size_t w = 0;
  for (const Pattern& pattern : patterns) {
    w = std::max(w, pattern.window().count_size());
  }
  return w;
}

bool SameMatches(const MatchSet& a, const MatchSet& b);

void PrintHeadline(const serve::MultiQueryResult& result) {
  std::printf("headline: %zu queries x %.0f events/s = %.0f query-events/s\n",
              result.queries.size(), result.events_per_sec(),
              result.query_events_per_sec());
}

/// `replay_stream` is non-null in replay mode only; --verify_isolated
/// and the pathological hook's hottest-type scan need the raw events.
int StreamMultiQuery(const Args& args, std::vector<Pattern> patterns,
                     std::unique_ptr<StreamSource> source,
                     const EventStream* replay_stream) {
  for (const Pattern& pattern : patterns) {
    const Status online_ok = OnlineDlacep::ValidateForOnline(pattern);
    if (!online_ok.ok()) {
      std::fprintf(stderr, "%s\n", online_ok.ToString().c_str());
      return 1;
    }
  }

  auto plan = ParseFaultSpec(args.Get("inject"));
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 1;
  }
  FaultInjector injector(plan.value());

  // Shared trunk: --filter event trains ONE network over all queries
  // (unified labels, paper section 4.3) and serves per-query heads off
  // its CRF marginals. Every other kind marks once per window and all
  // queries share the base marks (the shedding baselines judge
  // relevance against query 0 only).
  const std::string kind = args.Get("filter", "pass");
  std::unique_ptr<MultiPatternDlacep> multi;
  OnlineFilter base;
  const EventNetworkFilter* heads = nullptr;
  const StreamFilter* base_filter = nullptr;
  if (kind == "event") {
    auto train = LoadStream(args.Get("train"));
    if (!train.ok()) {
      std::fprintf(stderr, "--filter event needs --train F.csv (%s)\n",
                   train.status().ToString().c_str());
      return 1;
    }
    std::printf("training shared trunk on %zu events for %zu queries...\n",
                train.value().size(), patterns.size());
    multi = std::make_unique<MultiPatternDlacep>(patterns, train.value(),
                                                 MakeTrainConfig(args));
    std::printf("  held-out entity F1 %.3f\n", multi->test_metrics().f1());
    heads = multi->filter();
  } else if (kind == "window") {
    std::fprintf(stderr,
                 "multi-query serving needs event-level marks; "
                 "--filter window is not supported with --queries\n");
    return 1;
  } else {
    auto made = MakeOnlineFilter(args, patterns[0]);
    if (!made.ok()) {
      std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
      return 1;
    }
    base = std::move(made.value());
    base_filter = base.filter;
  }

  serve::QueryRegistry registry;
  for (size_t q = 0; q < patterns.size(); ++q) {
    serve::QueryOptions options;
    options.name = "q" + std::to_string(q);
    options.engine = ParseEngineKind(args).value();
    auto id = registry.Register(patterns[q], options);
    if (!id.ok()) {
      std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
      return 1;
    }
  }

  std::unique_ptr<obs::MetricsExporter> exporter;
  if (args.Has("metrics_out")) {
    obs::TouchStandardMetrics();
    exporter = std::make_unique<obs::MetricsExporter>(
        args.Get("metrics_out"), args.GetDouble("metrics_every", 0.0));
  }

  serve::ServeConfig config;
  config.online = MakeOnlineConfig(args);
  config.query_pm_budget =
      static_cast<uint64_t>(args.GetInt("query_pm_budget", 0));
  config.query_deadline_seconds =
      args.GetDouble("query_deadline_ms", 0.0) / 1000.0;
  config.breaker.trip_after =
      static_cast<uint32_t>(args.GetInt("breaker_trips", 3));

  // --verify_isolated pins the explicit geometry (2W/W over the initial
  // queries) and disables overload so the serve run and the per-query
  // isolated reference runs are byte-comparable (CompareMulti's recipe).
  const bool verify_isolated = args.GetInt("verify_isolated", 0) != 0;
  if (verify_isolated) {
    if (replay_stream == nullptr) {
      std::fprintf(stderr, "--verify_isolated needs replay --data\n");
      return 1;
    }
    const size_t w = MaxCountWindow(patterns);
    config.online.mark_size = 2 * w;
    config.online.step_size = w;
    config.online.overload.enabled = false;
  }

  // Fault wiring. pathological_query parses its blowup pattern up front
  // (a SEQ of four hottest-type positions — argmax over the replay
  // stream when available, else type 0) so a bad spec fails before the
  // run; the hook just registers it from the worker thread.
  std::unique_ptr<Pattern> pathological;
  if (plan.value().any()) {
    std::printf("injecting faults: %s\n", args.Get("inject").c_str());
    injector.InstallNanHook();
    source = injector.WrapSource(std::move(source));
    config.online.worker_window_hook = [&injector](uint64_t seq) {
      injector.OnWorkerWindow(seq);
    };
    if (plan.value().model_corrupt) {
      TrainableFilter* trainable =
          multi != nullptr
              ? dynamic_cast<TrainableFilter*>(
                    const_cast<EventNetworkFilter*>(heads))
              : base.trainable;
      if (trainable != nullptr) {
        CorruptParams(trainable);
      } else {
        std::printf("  (model_corrupt: filter has no parameters, skipped)\n");
      }
    }
    if (plan.value().pathological_query) {
      std::shared_ptr<const Schema> schema = source->schema();
      TypeId hottest = 0;
      if (replay_stream != nullptr && schema->num_types() > 0) {
        std::vector<uint64_t> counts(schema->num_types(), 0);
        for (const Event& event : replay_stream->events()) {
          if (!event.is_blank()) ++counts[event.type];
        }
        hottest = static_cast<TypeId>(
            std::max_element(counts.begin(), counts.end()) - counts.begin());
      }
      const std::string type = schema->TypeName(hottest);
      const std::string text =
          "SEQ(" + type + " a, " + type + " b, " + type + " c, " + type +
          " d) WITHIN " + std::to_string(plan.value().pathological_window) +
          " EVENTS";
      auto parsed = ParsePattern(text, schema);
      if (!parsed.ok()) {
        std::fprintf(stderr, "pathological_query: %s\n",
                     parsed.status().ToString().c_str());
        return 1;
      }
      pathological = std::make_unique<Pattern>(std::move(parsed.value()));
      injector.SetPathologicalHook([&args, &registry, &pathological] {
        serve::QueryOptions options;
        options.name = "pathological";
        options.engine = ParseEngineKind(args).value();
        (void)registry.Register(*pathological, options);
      });
    }
  }

  serve::MultiQueryServer server(&registry, base_filter, heads, config);

  // --churn_every_ms: register/unregister a clone of query 0 on a cadence
  // while the stream drains — the RCU snapshot swap under live traffic.
  // churn_storm injection drops the pacing and hammers the registry for
  // a fixed number of cycles instead.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> churn_cycles{0};
  std::thread churn;
  const double churn_ms = args.GetDouble("churn_every_ms", 0.0);
  const bool storm = plan.value().churn_storm;
  if (churn_ms > 0 || storm) {
    churn = std::thread([&, storm] {
      const auto half =
          std::chrono::duration<double, std::milli>(churn_ms / 2);
      while (!stop.load(std::memory_order_relaxed)) {
        if (storm &&
            churn_cycles.load(std::memory_order_relaxed) >=
                plan.value().churn_cycles) {
          break;
        }
        serve::QueryOptions options;
        options.name = "churn";
        auto id = registry.Register(patterns[0], options);
        if (!storm) std::this_thread::sleep_for(half);
        if (id.ok()) (void)registry.Unregister(id.value());
        churn_cycles.fetch_add(1, std::memory_order_relaxed);
        if (!storm) std::this_thread::sleep_for(half);
      }
    });
  }

  serve::MultiQueryResult result;
  const Status run_status = server.Run(source.get(), &result);
  stop.store(true);
  if (churn.joinable()) churn.join();
  if (!run_status.ok()) {
    std::fprintf(stderr, "%s\n", run_status.ToString().c_str());
    return 1;
  }
  if (exporter != nullptr && !exporter->Flush()) {
    std::fprintf(stderr, "cannot write %s\n",
                 args.Get("metrics_out").c_str());
    return 1;
  }

  std::printf("queries : %zu registered\n", patterns.size());
  for (const serve::QueryResult& query : result.queries) {
    std::printf("  %-8s: matches=%zu marked=%zu cost=%llu%s%s\n",
                query.name.c_str(), query.matches.size(),
                query.marked_events,
                static_cast<unsigned long long>(query.extract_cost),
                query.shared ? " (shared engine)" : "",
                query.degraded ? " DEGRADED" : "");
    if (query.breaker_state != serve::BreakerState::kHealthy ||
        query.budget_aborts > 0) {
      std::printf("            breaker=%s trips=%llu aborts=%llu\n",
                  serve::BreakerStateName(query.breaker_state),
                  static_cast<unsigned long long>(query.breaker_trips),
                  static_cast<unsigned long long>(query.budget_aborts));
    }
  }
  if (churn_cycles.load() > 0) {
    std::printf("churn   : %llu register/unregister cycles\n",
                static_cast<unsigned long long>(churn_cycles.load()));
  }
  std::printf("%s", result.stats.ToString().c_str());
  PrintSharing(result.sharing);
  PrintHeadline(result);

  int exit_code = result.stats.Accounted() ? 0 : 1;
  if (verify_isolated) {
    // Re-run every initial query alone through the single-query runtime
    // (same filter, same explicit geometry, no budget) and compare.
    // Non-degraded queries must be byte-identical — the isolation
    // contract; degraded queries must still be a subset (no false
    // positives). Mid-run registrations (churn, pathological) have no
    // whole-stream reference and are skipped.
    std::printf("\nisolated cross-check:\n");
    bool all_ok = true;
    for (size_t q = 0; q < patterns.size(); ++q) {
      const std::string name = "q" + std::to_string(q);
      const serve::QueryResult* served = nullptr;
      for (const serve::QueryResult& query : result.queries) {
        if (query.name == name) {
          served = &query;
          break;
        }
      }
      if (served == nullptr) continue;  // unregistered mid-run
      const StreamFilter* isolated_filter =
          heads != nullptr ? heads : base_filter;
      OnlineConfig alone_config = config.online;
      alone_config.worker_window_hook = nullptr;
      OnlineDlacep alone(patterns[q], isolated_filter, alone_config);
      ReplaySource alone_source(replay_stream);
      const OnlineResult isolated = alone.Run(&alone_source);
      const bool equal = SameMatches(served->matches, isolated.matches);
      const bool subset =
          served->matches.IntersectionSize(isolated.matches) ==
          served->matches.size();
      const bool ok = served->degraded ? subset : equal;
      all_ok = all_ok && ok;
      std::printf("  %-8s: served=%zu isolated=%zu %s%s\n", name.c_str(),
                  served->matches.size(), isolated.matches.size(),
                  served->degraded ? (subset ? "subset" : "NOT-SUBSET")
                                   : (equal ? "identical" : "DIFFER"),
                  served->degraded ? " (degraded)" : "");
    }
    std::printf("isolated identical : %s\n", all_ok ? "yes" : "NO");
    if (!all_ok) exit_code = 1;
  }
  return exit_code;
}

bool SameMatches(const MatchSet& a, const MatchSet& b) {
  return a.size() == b.size() && a.IntersectionSize(b) == a.size();
}

int CompareMulti(const Args& args, const EventStream& train,
                 const EventStream& test) {
  auto patterns = ParseQueries(args, train.schema_ptr());
  if (!patterns.ok()) {
    std::fprintf(stderr, "%s\n", patterns.status().ToString().c_str());
    return 1;
  }
  for (const Pattern& pattern : patterns.value()) {
    const Status online_ok = OnlineDlacep::ValidateForOnline(pattern);
    if (!online_ok.ok()) {
      std::fprintf(stderr, "%s\n", online_ok.ToString().c_str());
      return 1;
    }
  }

  std::printf("building shared trunk on %zu training events "
              "for %zu queries...\n",
              train.size(), patterns.value().size());
  MultiPatternDlacep multi(patterns.value(), train, MakeTrainConfig(args));
  std::printf("  held-out entity F1 %.3f\n", multi.test_metrics().f1());
  const MultiPatternResult batch = multi.Evaluate(test);

  serve::QueryRegistry registry;
  for (size_t q = 0; q < patterns.value().size(); ++q) {
    serve::QueryOptions options;
    options.name = "q" + std::to_string(q);
    options.engine = ParseEngineKind(args).value();
    auto id = registry.Register(patterns.value()[q], options);
    if (!id.ok()) {
      std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
      return 1;
    }
  }

  // Serve + isolated runs share the explicit geometry (the batch
  // evaluator's 2W/W over the widest query) and disable overload, so the
  // three match sets are byte-comparable.
  serve::ServeConfig config;
  config.online = MakeOnlineConfig(args);
  config.online.overload.enabled = false;
  config.online.mark_size = 2 * multi.max_window();
  config.online.step_size = multi.max_window();

  serve::MultiQueryServer server(&registry, nullptr, multi.filter(), config);
  ReplaySource source(&test);
  serve::MultiQueryResult served;
  const Status run_status = server.Run(&source, &served);
  if (!run_status.ok()) {
    std::fprintf(stderr, "%s\n", run_status.ToString().c_str());
    return 1;
  }

  std::printf("\nper-query cross-check (shared serving vs batch vs "
              "isolated online):\n");
  bool all_equal = true;
  for (size_t q = 0; q < patterns.value().size(); ++q) {
    OnlineDlacep alone(patterns.value()[q], multi.filter(), config.online);
    ReplaySource alone_source(&test);
    const OnlineResult isolated = alone.Run(&alone_source);
    const MatchSet& shared_matches = served.queries[q].matches;
    const bool vs_batch = SameMatches(shared_matches, batch.per_pattern[q]);
    const bool vs_alone = SameMatches(shared_matches, isolated.matches);
    all_equal = all_equal && vs_batch && vs_alone;
    std::printf("  %-8s: matches=%zu batch=%s isolated=%s%s\n",
                served.queries[q].name.c_str(), shared_matches.size(),
                vs_batch ? "equal" : "DIFFER",
                vs_alone ? "equal" : "DIFFER",
                served.queries[q].shared ? " (shared engine)" : "");
  }
  PrintSharing(served.sharing);
  PrintHeadline(served);
  std::printf("per-query identical : %s\n", all_equal ? "yes" : "NO");
  if (!all_equal || !served.stats.Accounted()) return 1;
  return 0;
}

int Replay(const Args& args) {
  auto stream = LoadStream(args.Get("data"));
  if (!stream.ok()) {
    std::fprintf(stderr, "%s\n", stream.status().ToString().c_str());
    return 1;
  }
  if (args.Has("queries")) {
    auto patterns = ParseQueries(args, stream.value().schema_ptr());
    if (!patterns.ok()) {
      std::fprintf(stderr, "%s\n", patterns.status().ToString().c_str());
      return 1;
    }
    auto source = std::make_unique<ReplaySource>(
        &stream.value(), args.GetDouble("rate", 0.0));
    return StreamMultiQuery(args, std::move(patterns.value()),
                            std::move(source), &stream.value());
  }
  auto pattern = ParsePattern(args.Get("query"), stream.value().schema_ptr());
  if (!pattern.ok()) {
    std::fprintf(stderr, "%s\n", pattern.status().ToString().c_str());
    return 1;
  }
  auto source = std::make_unique<ReplaySource>(&stream.value(),
                                               args.GetDouble("rate", 0.0));
  return StreamOnline(args, pattern.value(), std::move(source));
}

int Serve(const Args& args) {
  StockSimConfig sim;
  sim.num_events = static_cast<size_t>(args.GetInt("events", 20000));
  sim.num_symbols = static_cast<size_t>(args.GetInt("symbols", 50));
  sim.seed = static_cast<uint64_t>(args.GetInt("seed", 7));
  auto source =
      std::make_unique<StockSimSource>(sim, args.GetDouble("rate", 0.0));
  if (args.Has("queries")) {
    auto patterns = ParseQueries(args, source->schema());
    if (!patterns.ok()) {
      std::fprintf(stderr, "%s\n", patterns.status().ToString().c_str());
      return 1;
    }
    return StreamMultiQuery(args, std::move(patterns.value()),
                            std::move(source), /*replay_stream=*/nullptr);
  }
  auto pattern = ParsePattern(args.Get("query"), source->schema());
  if (!pattern.ok()) {
    std::fprintf(stderr, "%s\n", pattern.status().ToString().c_str());
    return 1;
  }
  return StreamOnline(args, pattern.value(), std::move(source));
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const Args args(argc, argv);
  if (!args.ok()) return Usage();
  if (const Status numbers = CheckNumericFlags(args); !numbers.ok()) {
    std::fprintf(stderr, "%s\n", numbers.ToString().c_str());
    return 1;
  }
  if (const auto engine = ParseEngineKind(args); !engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }
  const std::string command = argv[1];
  if (command == "generate") return Generate(args);
  if (command == "run") return RunQuery(args);
  if (command == "compare") return Compare(args);
  if (command == "replay") return Replay(args);
  if (command == "serve") return Serve(args);
  return Usage();
}

}  // namespace
}  // namespace dlacep

int main(int argc, char** argv) { return dlacep::Main(argc, argv); }
