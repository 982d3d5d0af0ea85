// Matches and match sets.
//
// A match is identified by the set of event ids of its (positively) bound
// events — the paper's Definition (4) output is "a set of event subsets".
// MatchSet deduplicates by that identity and offers the set-similarity
// metrics used throughout the evaluation (recall, precision, F1,
// Jaccard).
//
// Layout: a MatchSet is one flat std::vector<Match>, sorted by
// Match::operator< (lexicographic over the sorted ids) and free of
// duplicates. Every public call leaves it normalized, so const readers
// never write and may share a set across threads. Engines do not insert
// one match at a time: they append to a plain std::vector<Match>, which
// the MatchSet(std::vector<Match>) constructor sorts and deduplicates
// once, and Merge folds that run into the set by touching only the
// stored tail the run overlaps.

#ifndef DLACEP_CEP_MATCH_H_
#define DLACEP_CEP_MATCH_H_

#include <string>
#include <vector>

#include "pattern/condition.h"
#include "stream/event.h"

namespace dlacep {

/// One full pattern match: the sorted ids of its constituent events.
struct Match {
  std::vector<EventId> ids;

  Match() = default;
  explicit Match(std::vector<EventId> ids_in);

  /// Window span: max id - min id (0 for singletons/empty).
  EventId IdSpan() const;

  bool operator==(const Match& other) const { return ids == other.ids; }
  bool operator<(const Match& other) const { return ids < other.ids; }

  std::string ToString() const;
};

/// Builds a match from the positively bound variables of a binding.
Match MatchFromBinding(const Binding& binding);

/// A deduplicated set of matches, stored as a sorted flat vector.
class MatchSet {
 public:
  using const_iterator = std::vector<Match>::const_iterator;

  MatchSet() = default;
  /// Sorts and deduplicates `matches` once.
  explicit MatchSet(std::vector<Match> matches);

  /// Inserts a match; returns true when it was not present yet. Costs a
  /// binary search plus a shift of the later matches: use it for one-off
  /// inserts, and the vector constructor plus Merge for bulk output.
  bool Insert(Match match);

  /// Inserts every match of `other` (pass an rvalue to move them). Only
  /// the stored matches not below other's first one are touched, so
  /// merging runs in ascending order costs the overlap, not the set.
  void Merge(MatchSet other);

  bool Contains(const Match& match) const;
  size_t size() const { return matches_.size(); }
  bool empty() const { return matches_.empty(); }

  const_iterator begin() const { return matches_.begin(); }
  const_iterator end() const { return matches_.end(); }

  /// |this ∩ other|.
  size_t IntersectionSize(const MatchSet& other) const;

 private:
  std::vector<Match> matches_;  ///< ascending, no duplicates
};

/// Set-similarity metrics between an exact match set and an approximate
/// one (paper §4.3 and §5.1).
struct MatchSetMetrics {
  double recall = 1.0;     ///< |exact ∩ approx| / |exact|
  double precision = 1.0;  ///< |exact ∩ approx| / |approx|
  double f1 = 1.0;
  double jaccard = 1.0;    ///< |∩| / |∪|
  double false_negative_pct = 0.0;  ///< the paper's FN% (Fig 11)
  size_t exact_count = 0;
  size_t approx_count = 0;
  size_t common_count = 0;
};

/// Computes the metrics; empty exact and approx sets score 1.0 across
/// the board.
MatchSetMetrics CompareMatchSets(const MatchSet& exact,
                                 const MatchSet& approx);

}  // namespace dlacep

#endif  // DLACEP_CEP_MATCH_H_
