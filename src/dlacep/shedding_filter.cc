#include "dlacep/shedding_filter.h"

#include <algorithm>

namespace dlacep {

RandomSheddingFilter::RandomSheddingFilter(double keep_probability,
                                           uint64_t seed)
    : keep_probability_(keep_probability), seed_(seed) {
  DLACEP_CHECK_GE(keep_probability_, 0.0);
  DLACEP_CHECK_LE(keep_probability_, 1.0);
}

std::vector<int> RandomSheddingFilter::MarkCount(size_t count,
                                                 size_t stream_begin) const {
  // Fresh per-window generator (splitmix-style mix of the window start
  // into the seed) — see the header for why Mark must be stateless.
  Rng rng(seed_ ^ (0x9e3779b97f4a7c15ULL *
                   (static_cast<uint64_t>(stream_begin) + 1)));
  std::vector<int> marks(count);
  for (int& m : marks) {
    m = rng.Bernoulli(keep_probability_) ? 1 : 0;
  }
  return marks;
}

std::vector<int> RandomSheddingFilter::Mark(const EventStream&,
                                            WindowRange range) const {
  return MarkCount(range.size(), range.begin);
}

std::vector<int> RandomSheddingFilter::MarkOnline(
    const EventStream& window, size_t stream_begin, InferenceContext*,
    double) const {
  // The salt keys on the window's head arrival id, not on the position
  // the caller's assembler happens to pass: arrival ids are assigned at
  // ingest and travel with the detached window, so shed decisions are a
  // pure function of window content — identical across shard counts,
  // dispatch orders, and thread counts. With a lossless producer the
  // head id equals the window's global stream position, so this stays
  // byte-identical to the batch path's Mark(stream, {stream_begin, ...}).
  return MarkCount(window.size(), window.size() > 0
                                      ? static_cast<size_t>(window[0].id)
                                      : stream_begin);
}

TypeSheddingFilter::TypeSheddingFilter(std::span<const Pattern> patterns) {
  DLACEP_CHECK(!patterns.empty());
  for (const Pattern& pattern : patterns) {
    relevant_.resize(
        std::max(relevant_.size(), pattern.schema().num_types()), false);
    for (TypeId type : pattern.ReferencedTypes()) {
      if (type >= 0 && static_cast<size_t>(type) < relevant_.size()) {
        relevant_[static_cast<size_t>(type)] = true;
      }
    }
  }
}

std::vector<int> TypeSheddingFilter::Mark(const EventStream& stream,
                                          WindowRange range) const {
  std::vector<int> marks(range.size(), 0);
  for (size_t t = 0; t < range.size(); ++t) {
    const Event& e = stream[range.begin + t];
    if (!e.is_blank() && static_cast<size_t>(e.type) < relevant_.size() &&
        relevant_[static_cast<size_t>(e.type)]) {
      marks[t] = 1;
    }
  }
  return marks;
}

}  // namespace dlacep
