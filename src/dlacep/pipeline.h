// The end-to-end DLACEP pipeline (paper Fig 4):
//
//   stream → input assembler → DNN filter → CEP extractor → matches
//
// plus the measurement protocol of §5.1: BuildDlacep() assembles,
// labels, trains, and scores a filter network from a historical stream;
// Evaluate() runs the filtration + extraction path over a fresh stream
// and reports throughput, filtering ratio, and the match set;
// CompareWithEcep() additionally runs a baseline ECEP engine over the
// same stream and reports throughput gain and match quality.
//
// The two halves are written once for one or many patterns:
// TrainFilter() trains a filter on the unified labels of a pattern set
// (BuildDlacep passes one pattern, MultiPatternDlacep all of its), and
// FiltrationPass is the marking half of evaluation that DlacepPipeline
// and MultiPatternDlacep both own.

#ifndef DLACEP_DLACEP_PIPELINE_H_
#define DLACEP_DLACEP_PIPELINE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dlacep/assembler.h"
#include "dlacep/config.h"
#include "dlacep/extractor.h"
#include "dlacep/featurizer.h"
#include "dlacep/filter.h"
#include "nn/infer.h"

namespace dlacep {

/// What the filtration stage of one evaluation kept, and the timings of
/// both stages — single- or multi-pattern alike.
struct FiltrationStats {
  size_t total_events = 0;
  /// Deduplicated marked events, counted over the merged marks
  /// (overlapping assembler windows mark some events twice; each is
  /// counted once). Blank/padding events count too — the filter relayed
  /// them even though the extractor later drops them — so
  /// filtering_ratio() reflects what the filter kept, not what the
  /// engine processed.
  size_t marked_events = 0;
  /// Ids of marked events in deterministic merge order (window by
  /// window, duplicates from overlapping windows included). This is the
  /// mark vector: byte-identical at every num_threads, which the
  /// determinism tests assert.
  std::vector<EventId> marked_ids;
  double filter_seconds = 0.0;  ///< wall clock, whatever num_threads is
  double cep_seconds = 0.0;

  double elapsed_seconds() const { return filter_seconds + cep_seconds; }
  double throughput() const {
    return Throughput(static_cast<double>(total_events),
                      elapsed_seconds());
  }
  /// Fraction of events filtered out (the paper's filtering ratio Ψ,
  /// aggregated over all types).
  double filtering_ratio() const {
    return total_events == 0
               ? 0.0
               : 1.0 - static_cast<double>(marked_events) /
                           static_cast<double>(total_events);
  }
};

/// Outcome of one pipeline evaluation.
struct PipelineResult : FiltrationStats {
  MatchSet matches;
  EngineStats cep_stats;
};

/// ECEP-vs-DLACEP comparison (one row of the paper's gain/recall plots).
struct ComparisonResult {
  PipelineResult dlacep;
  MatchSet exact_matches;
  EngineStats ecep_stats;
  double ecep_seconds = 0.0;
  MatchSetMetrics quality;  ///< recall / precision / F1 / FN%

  double throughput_gain() const {
    return dlacep.throughput() /
           Throughput(static_cast<double>(dlacep.total_events),
                      ecep_seconds);
  }
};

/// Largest count window over a non-empty pattern set; every pattern
/// must use a count window. The batch assembler is sized by it.
size_t MaxCountWindow(std::span<const Pattern> patterns);

/// The filtration half of batch evaluation: marks every assembler window
/// of a stream with `filter` and merges the marks in window order.
/// Each window is one MarkBatchWith call over a one-window span. Up to
/// config.num_threads workers (the calling thread plus forked threads,
/// never more workers than windows) take windows from one shared index,
/// each on its own InferenceContext reused across runs, and all join
/// before the merge. The output is byte-identical at every num_threads.
class FiltrationPass {
 public:
  /// `filter` is not owned and must outlive the pass.
  FiltrationPass(const InputAssembler& assembler, const StreamFilter* filter,
                 const DlacepConfig& config);

  /// Returns the extractor's input: the marked events, each stream
  /// position once (blanks included), in the order of their first
  /// covering window. Sets `stats`' filtration fields.
  std::vector<const Event*> Run(const EventStream& stream,
                                FiltrationStats* stats);

  const InputAssembler& assembler() const { return assembler_; }

 private:
  InputAssembler assembler_;
  const StreamFilter* filter_;
  size_t num_threads_;
  /// One inference scratch arena per worker (slot 0 is the calling
  /// thread's) — after the first window each mark runs allocation-free.
  std::vector<std::unique_ptr<InferenceContext>> contexts_;
};

/// The assembled system: filter + extractor + assembler.
class DlacepPipeline {
 public:
  /// `filter` may be a trained network, the oracle filter, or the
  /// pass-through filter. The pipeline owns it.
  DlacepPipeline(const Pattern& pattern,
                 std::unique_ptr<StreamFilter> filter,
                 const DlacepConfig& config);

  /// Runs filtration + extraction over `stream`. With
  /// config.num_threads != 1 the filtration stage forks window inference
  /// out over worker threads; the result is byte-identical to the
  /// sequential run (deterministic window-order merge).
  PipelineResult Evaluate(const EventStream& stream);

  /// Runs Evaluate() plus a baseline ECEP engine over the same stream.
  ComparisonResult CompareWithEcep(const EventStream& stream,
                                   EngineKind baseline = EngineKind::kNfa);

  StreamFilter& filter() { return *filter_; }
  const InputAssembler& assembler() const { return filtration_.assembler(); }

 private:
  Pattern pattern_;
  std::unique_ptr<StreamFilter> filter_;
  FiltrationPass filtration_;
  CepExtractor extractor_;
};

enum class FilterKind { kEventNetwork, kWindowNetwork, kOracle,
                        kPassThrough };

const char* FilterKindName(FilterKind kind);

/// The featurizer a filter reads, fitted over a pattern set's type
/// sets, plus the filter's training diagnostics.
struct FilterTraining {
  std::unique_ptr<Featurizer> featurizer;
  TrainResult train_result;
  BinaryMetrics test_metrics;   ///< entity-level P/R/F1 on the test split
  double label_seconds = 0.0;   ///< dataset labeling time
  double train_seconds = 0.0;
};

/// Builds the filter of `kind` for `patterns` from the historical
/// `train_stream`, recording its featurizer and diagnostics in
/// `*training`. The network kinds label the assembler windows with the
/// patterns' unified labels (labeler.h), replicate the positive training
/// samples config.oversample_positive times, train, and score on the
/// held-out split; the oracle (one pattern only) and pass-through
/// filters need no training. The filter reads `training->featurizer`,
/// which must outlive it.
std::unique_ptr<StreamFilter> TrainFilter(std::span<const Pattern> patterns,
                                          const EventStream& train_stream,
                                          FilterKind kind,
                                          const DlacepConfig& config,
                                          FilterTraining* training);

/// A fully built DLACEP instance: featurizer + training/test
/// diagnostics + the pipeline around the trained filter.
struct BuiltDlacep : FilterTraining {
  std::unique_ptr<DlacepPipeline> pipeline;
};

/// Builds a DLACEP system for `pattern` from the historical
/// `train_stream`: TrainFilter() over the one pattern, then the pipeline
/// around the trained filter.
BuiltDlacep BuildDlacep(const Pattern& pattern,
                        const EventStream& train_stream, FilterKind kind,
                        const DlacepConfig& config);

}  // namespace dlacep

#endif  // DLACEP_DLACEP_PIPELINE_H_
