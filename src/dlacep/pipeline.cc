#include "dlacep/pipeline.h"

#include <algorithm>
#include <atomic>
#include <span>
#include <thread>

#include "common/logging.h"
#include "common/threads.h"
#include "dlacep/event_filter.h"
#include "dlacep/oracle_filter.h"
#include "dlacep/window_filter.h"
#include "obs/stages.h"
#include "obs/trace.h"

namespace dlacep {

size_t MaxCountWindow(std::span<const Pattern> patterns) {
  DLACEP_CHECK(!patterns.empty());
  size_t w = 0;
  for (const Pattern& pattern : patterns) {
    DLACEP_CHECK(pattern.window().kind == WindowKind::kCount);
    w = std::max(w, pattern.window().count_size());
  }
  return w;
}

FiltrationPass::FiltrationPass(const InputAssembler& assembler,
                               const StreamFilter* filter,
                               const DlacepConfig& config)
    : assembler_(assembler),
      filter_(filter),
      num_threads_(config.num_threads) {
  DLACEP_CHECK(filter_ != nullptr);
}

std::vector<const Event*> FiltrationPass::Run(const EventStream& stream,
                                              FiltrationStats* stats) {
  // Every assembler window is an independent forward-only inference
  // (filters are const/re-entrant), marked on its own as a batch of one
  // into its own mark buffer. The workers — the calling thread plus
  // workers − 1 forked threads — take windows from one shared index,
  // each on its own scratch arena, and all join before the merge.
  // filter_seconds stays wall clock: it brackets the fork-join and merge.
  Stopwatch watch;
  const std::vector<WindowRange> windows = assembler_.Windows(stream.size());
  std::vector<std::vector<int>> window_marks(windows.size());
  const size_t workers =
      std::min(ResolveNumThreads(num_threads_), windows.size());
  while (contexts_.size() < workers) {
    contexts_.push_back(std::make_unique<InferenceContext>());
  }
  std::atomic<size_t> next_window{0};
  auto mark_windows = [&](InferenceContext* ctx) {
    for (;;) {
      const size_t i = next_window.fetch_add(1, std::memory_order_relaxed);
      if (i >= windows.size()) return;
      obs::TraceSpan mark_span(obs::StageWindowMark());
      filter_->MarkBatchWith(stream, {&windows[i], 1}, ctx,
                             &window_marks[i]);
    }
  };
  {
    std::vector<std::jthread> forked;
    for (size_t w = 1; w < workers; ++w) {
      forked.emplace_back(mark_windows, contexts_[w].get());
    }
    if (workers > 0) mark_windows(contexts_[0].get());
  }  // ~jthread joins every forked worker

  // Deterministic merge in window order: the concatenated mark sequence
  // is identical to what the sequential loop produced, regardless of
  // which worker finished first. Each marked stream position is relayed
  // once, from its first covering window, blanks included: the extractor
  // sorts by id and drops duplicates and blanks itself, so this changes
  // neither its matches nor its work counters (tests/
  // dlacep_pipeline_test.cc), while relayed.size() counts what the
  // filter kept — the paper's Ψ measures filtration, not extraction.
  obs::TraceSpan merge_span(obs::StageWindowMerge());
  std::vector<const Event*> relayed;
  std::vector<uint8_t> seen(stream.size(), 0);
  for (size_t i = 0; i < windows.size(); ++i) {
    const std::vector<int>& marks = window_marks[i];
    DLACEP_CHECK_EQ(marks.size(), windows[i].size());
    for (size_t t = 0; t < marks.size(); ++t) {
      if (marks[t] == 0) continue;
      const size_t pos = windows[i].begin + t;
      stats->marked_ids.push_back(stream[pos].id);
      if (!seen[pos]) {
        seen[pos] = 1;
        relayed.push_back(&stream[pos]);
      }
    }
  }
  merge_span.Finish();
  stats->total_events = stream.size();
  stats->marked_events = relayed.size();
  stats->filter_seconds = watch.ElapsedSeconds();
  return relayed;
}

DlacepPipeline::DlacepPipeline(const Pattern& pattern,
                               std::unique_ptr<StreamFilter> filter,
                               const DlacepConfig& config)
    : pattern_(pattern),
      filter_(std::move(filter)),
      filtration_(InputAssembler::ForWindow(MaxCountWindow({&pattern_, 1}),
                                            config.mark_size,
                                            config.step_size),
                  filter_.get(), config),
      extractor_(pattern_) {}

PipelineResult DlacepPipeline::Evaluate(const EventStream& stream) {
  PipelineResult result;
  std::vector<const Event*> relayed = filtration_.Run(stream, &result);

  // Extraction on the filtered stream.
  extractor_.ResetStats();
  Stopwatch cep_watch;
  const Status status = extractor_.Extract(std::move(relayed),
                                           &result.matches);
  DLACEP_CHECK_MSG(status.ok(), status.ToString());
  result.cep_seconds = cep_watch.ElapsedSeconds();
  obs::StageCepEval()->Observe(result.cep_seconds);
  result.cep_stats = extractor_.stats();
  return result;
}

ComparisonResult DlacepPipeline::CompareWithEcep(const EventStream& stream,
                                                 EngineKind baseline) {
  ComparisonResult comparison;
  comparison.dlacep = Evaluate(stream);

  auto engine = CreateEngine(baseline, pattern_);
  DLACEP_CHECK_MSG(engine.ok(), engine.status().ToString());
  Stopwatch watch;
  const Status status = engine.value()->Evaluate(
      std::span<const Event>(stream.events().data(), stream.size()),
      &comparison.exact_matches);
  DLACEP_CHECK_MSG(status.ok(), status.ToString());
  comparison.ecep_seconds = watch.ElapsedSeconds();
  comparison.ecep_stats = engine.value()->stats();
  comparison.quality =
      CompareMatchSets(comparison.exact_matches, comparison.dlacep.matches);
  return comparison;
}

const char* FilterKindName(FilterKind kind) {
  switch (kind) {
    case FilterKind::kEventNetwork: return "event-network";
    case FilterKind::kWindowNetwork: return "window-network";
    case FilterKind::kOracle: return "oracle";
    case FilterKind::kPassThrough: return "pass-through";
  }
  return "?";
}

std::unique_ptr<StreamFilter> TrainFilter(std::span<const Pattern> patterns,
                                          const EventStream& train_stream,
                                          FilterKind kind,
                                          const DlacepConfig& config,
                                          FilterTraining* training) {
  std::vector<std::vector<TypeId>> type_sets;
  for (const Pattern& pattern : patterns) {
    for (auto& set : pattern.PrimitiveTypeSets()) {
      type_sets.push_back(std::move(set));
    }
  }
  training->featurizer = std::make_unique<Featurizer>(type_sets, train_stream);
  if (kind == FilterKind::kOracle) {
    DLACEP_CHECK_EQ(patterns.size(), 1u);
    return std::make_unique<OracleFilter>(patterns[0]);
  }
  if (kind == FilterKind::kPassThrough) {
    return std::make_unique<PassThroughFilter>();
  }

  const InputAssembler assembler = InputAssembler::ForWindow(
      MaxCountWindow(patterns), config.mark_size, config.step_size);
  Stopwatch label_watch;
  FilterDataset dataset = BuildFilterDataset(
      patterns, train_stream, assembler, *training->featurizer,
      config.train_fraction, config.split_seed,
      config.negation_aware_labeling);
  training->label_seconds = label_watch.ElapsedSeconds();

  const bool event = kind == FilterKind::kEventNetwork;
  std::vector<Sample>& train =
      event ? dataset.train_event : dataset.train_window;
  const size_t copies = config.oversample_positive;  // 1 = off
  const size_t original = train.size();
  for (size_t i = 0; copies > 1 && i < original; ++i) {
    const std::vector<int>& labels = train[i].labels;
    if (std::none_of(labels.begin(), labels.end(),
                     [](int label) { return label != 0; })) {
      continue;
    }
    const Sample sample = train[i];  // copy: insert may reallocate
    train.insert(train.end(), copies - 1, sample);
  }

  Stopwatch train_watch;
  std::unique_ptr<TrainableFilter> filter;
  if (event) {
    filter = std::make_unique<EventNetworkFilter>(
        training->featurizer.get(), config.network, config.event_threshold);
  } else {
    filter = std::make_unique<WindowNetworkFilter>(
        training->featurizer.get(), config.network, config.window_threshold);
  }
  training->train_result = filter->Fit(train, config.train);
  training->test_metrics =
      filter->Score(event ? dataset.test_event : dataset.test_window);
  training->train_seconds = train_watch.ElapsedSeconds();
  DLACEP_LOG(Debug) << FilterKindName(kind) << " trained "
                    << training->train_result.epochs_run << " epochs, loss "
                    << training->train_result.final_loss << ", test F1 "
                    << training->test_metrics.f1();
  return filter;
}

BuiltDlacep BuildDlacep(const Pattern& pattern,
                        const EventStream& train_stream, FilterKind kind,
                        const DlacepConfig& config) {
  BuiltDlacep built;
  std::unique_ptr<StreamFilter> filter =
      TrainFilter({&pattern, 1}, train_stream, kind, config, &built);
  built.pipeline =
      std::make_unique<DlacepPipeline>(pattern, std::move(filter), config);
  return built;
}

}  // namespace dlacep
