// A perfect-knowledge filter that marks exactly the ground-truth labels
// the SampleLabeler produces. It is the upper bound of what any trained
// filter can achieve (recall 1.0 by construction for NEG-free patterns)
// and is used by property tests and ablation benches to separate
// filtering-scheme effects from learning effects.

#ifndef DLACEP_DLACEP_ORACLE_FILTER_H_
#define DLACEP_DLACEP_ORACLE_FILTER_H_

#include <memory>
#include <span>
#include <vector>

#include "dlacep/filter.h"

namespace dlacep {

class OracleFilter : public StreamFilter {
 public:
  /// Marks the OR of every pattern's labels, as the labeler unifies the
  /// labels of a pattern set. `patterns` must be non-empty.
  explicit OracleFilter(std::span<const Pattern> patterns) {
    DLACEP_CHECK(!patterns.empty());
    for (const Pattern& pattern : patterns) {
      labelers_.push_back(std::make_unique<SampleLabeler>(pattern));
    }
  }
  explicit OracleFilter(const Pattern& pattern)
      : OracleFilter(std::span<const Pattern>(&pattern, 1)) {}

  std::string name() const override { return "oracle"; }

  // Re-entrancy: SampleLabeler::Label serializes access to its internal
  // CEP engine, so concurrent Mark() calls from the parallel filtration
  // stage are safe (though the oracle itself won't scale with threads).
  std::vector<int> Mark(const EventStream& stream,
                        WindowRange range) const override {
    std::vector<int> marks = labelers_[0]->Label(stream, range).event_labels;
    for (size_t i = 1; i < labelers_.size(); ++i) {
      const std::vector<int> more =
          labelers_[i]->Label(stream, range).event_labels;
      for (size_t t = 0; t < marks.size(); ++t) marks[t] |= more[t];
    }
    return marks;
  }

 private:
  std::vector<std::unique_ptr<SampleLabeler>> labelers_;
};

/// A filter that marks everything — DLACEP degenerates to plain ECEP plus
/// assembler overhead. Baseline for ablations.
class PassThroughFilter : public StreamFilter {
 public:
  std::string name() const override { return "pass-through"; }

  std::vector<int> Mark(const EventStream&,
                        WindowRange range) const override {
    return std::vector<int>(range.size(), 1);
  }
};

}  // namespace dlacep

#endif  // DLACEP_DLACEP_ORACLE_FILTER_H_
