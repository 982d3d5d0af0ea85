#include "cep/match.h"

#include <algorithm>
#include <iterator>
#include <sstream>

namespace dlacep {

Match::Match(std::vector<EventId> ids_in) : ids(std::move(ids_in)) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

EventId Match::IdSpan() const {
  if (ids.empty()) return 0;
  return ids.back() - ids.front();
}

std::string Match::ToString() const {
  std::ostringstream out;
  out << '{';
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out << ',';
    out << ids[i];
  }
  out << '}';
  return out.str();
}

Match MatchFromBinding(const Binding& binding) {
  std::vector<EventId> ids;
  for (const Event* e : binding.AllEvents()) ids.push_back(e->id);
  return Match(std::move(ids));
}

MatchSet::MatchSet(std::vector<Match> matches)
    : matches_(std::move(matches)) {
  std::sort(matches_.begin(), matches_.end());
  matches_.erase(std::unique(matches_.begin(), matches_.end()),
                 matches_.end());
}

bool MatchSet::Insert(Match match) {
  const auto it = std::lower_bound(matches_.begin(), matches_.end(), match);
  if (it != matches_.end() && *it == match) return false;
  matches_.insert(it, std::move(match));
  return true;
}

void MatchSet::Merge(MatchSet other) {
  if (other.empty()) return;
  if (matches_.empty()) {
    matches_ = std::move(other.matches_);
    return;
  }
  // Everything below other's first match stays where it is; the rest
  // is merged with the appended run and deduplicated in place.
  const size_t from = static_cast<size_t>(
      std::lower_bound(matches_.begin(), matches_.end(),
                       other.matches_.front()) -
      matches_.begin());
  const size_t mid = matches_.size();
  matches_.insert(matches_.end(),
                  std::make_move_iterator(other.matches_.begin()),
                  std::make_move_iterator(other.matches_.end()));
  const auto first = matches_.begin() + static_cast<ptrdiff_t>(from);
  std::inplace_merge(first, matches_.begin() + static_cast<ptrdiff_t>(mid),
                     matches_.end());
  matches_.erase(std::unique(first, matches_.end()), matches_.end());
}

bool MatchSet::Contains(const Match& match) const {
  return std::binary_search(matches_.begin(), matches_.end(), match);
}

size_t MatchSet::IntersectionSize(const MatchSet& other) const {
  size_t common = 0;
  auto a = matches_.begin();
  auto b = other.matches_.begin();
  while (a != matches_.end() && b != other.matches_.end()) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      ++common;
      ++a;
      ++b;
    }
  }
  return common;
}

MatchSetMetrics CompareMatchSets(const MatchSet& exact,
                                 const MatchSet& approx) {
  MatchSetMetrics metrics;
  metrics.exact_count = exact.size();
  metrics.approx_count = approx.size();
  metrics.common_count = exact.IntersectionSize(approx);
  metrics.recall =
      exact.empty() ? 1.0
                    : static_cast<double>(metrics.common_count) /
                          static_cast<double>(exact.size());
  metrics.precision =
      approx.empty() ? 1.0
                     : static_cast<double>(metrics.common_count) /
                           static_cast<double>(approx.size());
  metrics.f1 = (metrics.recall + metrics.precision) > 0
                   ? 2.0 * metrics.precision * metrics.recall /
                         (metrics.precision + metrics.recall)
                   : 0.0;
  const size_t union_count =
      exact.size() + approx.size() - metrics.common_count;
  metrics.jaccard = union_count == 0
                        ? 1.0
                        : static_cast<double>(metrics.common_count) /
                              static_cast<double>(union_count);
  metrics.false_negative_pct = (1.0 - metrics.recall) * 100.0;
  return metrics;
}

}  // namespace dlacep
