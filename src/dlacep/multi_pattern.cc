#include "dlacep/multi_pattern.h"

#include "common/timer.h"

namespace dlacep {

MultiPatternDlacep::MultiPatternDlacep(std::vector<Pattern> patterns,
                                       const EventStream& train_stream,
                                       const DlacepConfig& config)
    : patterns_(std::move(patterns)),
      max_window_(MaxCountWindow(patterns_)),
      filter_(TrainFilter(patterns_, train_stream, FilterKind::kEventNetwork,
                          config, &training_)),
      filtration_(InputAssembler::ForWindow(max_window_, config.mark_size,
                                            config.step_size),
                  filter_.get(), config) {
  extractors_.reserve(patterns_.size());
  for (const Pattern& pattern : patterns_) extractors_.emplace_back(pattern);
}

MultiPatternResult MultiPatternDlacep::Evaluate(const EventStream& stream) {
  MultiPatternResult result;
  const std::vector<const Event*> relayed = filtration_.Run(stream, &result);

  Stopwatch cep_watch;
  result.per_pattern.resize(extractors_.size());
  for (size_t p = 0; p < extractors_.size(); ++p) {
    const Status status =
        extractors_[p].Extract(relayed, &result.per_pattern[p]);
    DLACEP_CHECK_MSG(status.ok(), status.ToString());
  }
  result.cep_seconds = cep_watch.ElapsedSeconds();
  return result;
}

}  // namespace dlacep
