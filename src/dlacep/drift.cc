#include "dlacep/drift.h"

#include <cmath>

#include "common/timer.h"
#include "dlacep/event_filter.h"
#include "dlacep/extractor.h"
#include "dlacep/labeler.h"

namespace dlacep {

DriftMonitor::DriftMonitor(double reference_rate, double tolerance,
                           size_t window_budget)
    : reference_rate_(reference_rate),
      tolerance_(tolerance),
      window_budget_(window_budget) {
  DLACEP_CHECK_GT(window_budget_, 0u);
}

bool DriftMonitor::Observe(const std::vector<int>& marks) {
  size_t marked = 0;
  for (int m : marks) marked += m != 0 ? 1 : 0;
  history_.emplace_back(marked, marks.size());
  marked_sum_ += marked;
  total_sum_ += marks.size();
  while (history_.size() > window_budget_) {
    marked_sum_ -= history_.front().first;
    total_sum_ -= history_.front().second;
    history_.pop_front();
  }
  if (history_.size() < window_budget_) return false;  // warm-up
  return std::abs(observed_rate() - reference_rate_) > tolerance_;
}

void DriftMonitor::ResetReference() {
  reference_rate_ = observed_rate();
  history_.clear();
  marked_sum_ = 0;
  total_sum_ = 0;
}

double DriftMonitor::observed_rate() const {
  return total_sum_ == 0
             ? reference_rate_
             : static_cast<double>(marked_sum_) /
                   static_cast<double>(total_sum_);
}

AdaptiveResult EvaluateWithRetraining(
    const Pattern& pattern, EventNetworkFilter* filter,
    const Featurizer& featurizer, const EventStream& stream,
    DriftMonitor* monitor, size_t retrain_events,
    const DlacepConfig& config) {
  DLACEP_CHECK(filter != nullptr);
  DLACEP_CHECK(monitor != nullptr);
  AdaptiveResult result;

  const InputAssembler assembler = InputAssembler::ForWindow(
      pattern.window().count_size(), config.mark_size, config.step_size);
  CepExtractor extractor(pattern);

  std::vector<const Event*> marked;
  for (const WindowRange& range : assembler.Windows(stream.size())) {
    const std::vector<int> marks = filter->Mark(stream, range);
    for (size_t t = 0; t < marks.size(); ++t) {
      if (marks[t] != 0) marked.push_back(&stream[range.begin + t]);
    }
    if (!monitor->Observe(marks)) continue;

    // Drift: relabel the trailing segment and fine-tune (warm start).
    ++result.drifts_detected;
    const size_t end = range.end;
    const size_t begin = end > retrain_events ? end - retrain_events : 0;
    if (end - begin < assembler.mark_size()) {
      monitor->ResetReference();
      continue;
    }
    Stopwatch watch;
    const EventStream segment = stream.Slice(begin, end - begin);
    const FilterDataset dataset = BuildFilterDataset(
        pattern, segment, assembler, featurizer, /*train_fraction=*/1.0,
        config.split_seed, config.negation_aware_labeling);
    filter->Fit(dataset.train_event, config.train);
    ++result.retrainings;
    result.retrain_seconds += watch.ElapsedSeconds();
    monitor->ResetReference();
  }

  const Status status = extractor.Extract(std::move(marked),
                                          &result.matches);
  DLACEP_CHECK_MSG(status.ok(), status.ToString());
  return result;
}

}  // namespace dlacep
