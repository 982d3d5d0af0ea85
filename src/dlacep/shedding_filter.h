// Load-shedding baseline filters (paper §6 "Load shedding").
//
// Load shedding drops events (or partial matches) to meet a resource
// budget, classically at random or by simple per-type utilities. These
// filters plug into the DLACEP pipeline in place of the learned network,
// giving an apples-to-apples baseline: at the SAME filtering ratio, how
// many matches does a non-learned policy lose compared to the trained
// filter? (The paper positions DLACEP as a conceptual shift away from
// such emergency shedding.)

#ifndef DLACEP_DLACEP_SHEDDING_FILTER_H_
#define DLACEP_DLACEP_SHEDDING_FILTER_H_

#include <span>
#include <vector>

#include "common/rng.h"
#include "dlacep/filter.h"
#include "pattern/pattern.h"

namespace dlacep {

/// Uniform random shedding: every event is relayed with probability
/// `keep_probability`, regardless of content. The marks of a window are
/// a pure function of (seed, range.begin), so Mark() is re-entrant and
/// its output does not depend on window evaluation order — required by
/// the parallel filtration stage and handy for reproducibility.
class RandomSheddingFilter : public StreamFilter {
 public:
  RandomSheddingFilter(double keep_probability, uint64_t seed);

  std::string name() const override { return "random-shedding"; }

  std::vector<int> Mark(const EventStream& stream,
                        WindowRange range) const override;

  /// The pure marking core: marks for a window of `count` events whose
  /// global start position is `stream_begin`. Mark() delegates here
  /// with (range.size(), range.begin); the online runtime calls it
  /// directly so detached window copies keep their global salt.
  std::vector<int> MarkCount(size_t count, size_t stream_begin) const;

  /// Salts by the window's head arrival id (a shard-stable key carried
  /// by the detached window itself), NOT by the stream_begin the caller
  /// passes — so shed decisions cannot depend on dispatch order or
  /// shard count. Equal to the batch Mark() whenever ids equal stream
  /// positions (every lossless run).
  std::vector<int> MarkOnline(const EventStream& window, size_t stream_begin,
                              InferenceContext* ctx,
                              double threshold_boost) const override;

 private:
  double keep_probability_;
  uint64_t seed_;
};

/// Type-aware shedding: events whose type the pattern references are
/// always relayed; all other events are dropped. The cheapest
/// content-aware policy — it achieves exactly the filtering ratio of the
/// pattern-irrelevant traffic and loses no matches, but cannot filter
/// within the relevant types (where DLACEP's gains come from).
///
/// A pattern set is unified the way the labeler unifies labels: an
/// event is relayed iff ANY pattern references its type, so no pattern
/// of the set loses a match.
class TypeSheddingFilter : public StreamFilter {
 public:
  /// `patterns` must be non-empty.
  explicit TypeSheddingFilter(std::span<const Pattern> patterns);
  explicit TypeSheddingFilter(const Pattern& pattern)
      : TypeSheddingFilter(std::span<const Pattern>(&pattern, 1)) {}

  std::string name() const override { return "type-shedding"; }

  std::vector<int> Mark(const EventStream& stream,
                        WindowRange range) const override;

 private:
  std::vector<bool> relevant_;  ///< indexed by type id
};

}  // namespace dlacep

#endif  // DLACEP_DLACEP_SHEDDING_FILTER_H_
