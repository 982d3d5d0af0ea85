#include "dlacep/featurizer.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

namespace dlacep {

Featurizer::Featurizer(const Pattern& pattern,
                       const EventStream& train_stream)
    : Featurizer(pattern.PrimitiveTypeSets(), train_stream) {}

Featurizer::Featurizer(const std::vector<std::vector<TypeId>>& type_sets,
                       const EventStream& train_stream) {
  // Compact by membership signature: types that belong to exactly the
  // same primitive type sets are indistinguishable to the pattern and
  // share one one-hot slot (paper §4.3 — e.g. the 100 members of a T_100
  // position collapse into a single category).
  std::vector<std::vector<TypeId>> sets = type_sets;
  std::sort(sets.begin(), sets.end());
  sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
  std::set<TypeId> referenced;
  for (const auto& set : sets) {
    referenced.insert(set.begin(), set.end());
  }
  // A type's signature is the ascending list of the sets it belongs to;
  // slots are numbered in first appearance over the sorted type ids.
  std::map<std::vector<size_t>, size_t> slot_of_signature;
  for (TypeId type : referenced) {
    std::vector<size_t> signature;
    for (size_t s = 0; s < sets.size(); ++s) {
      if (std::binary_search(sets[s].begin(), sets[s].end(), type)) {
        signature.push_back(s);
      }
    }
    auto [it, inserted] = slot_of_signature.emplace(
        std::move(signature), slot_of_signature.size());
    type_slot_.emplace(type, it->second);
  }
  num_type_slots_ = slot_of_signature.size() + 1;  // + "other"
  num_attrs_ = train_stream.schema().num_attrs();
  attr_stats_.reserve(num_attrs_);
  log_attr_stats_.reserve(num_attrs_);
  for (size_t a = 0; a < num_attrs_; ++a) {
    attr_stats_.push_back(train_stream.ComputeAttrStats(a));
    // Fit the signed-log channel statistics.
    double sum = 0.0;
    double sum_sq = 0.0;
    size_t n = 0;
    for (const Event& e : train_stream) {
      if (e.is_blank()) continue;
      const double v = SignedLog(e.attr(a));
      sum += v;
      sum_sq += v * v;
      ++n;
    }
    AttrStats stats;
    if (n > 0) {
      stats.mean = sum / static_cast<double>(n);
      const double var =
          sum_sq / static_cast<double>(n) - stats.mean * stats.mean;
      stats.stddev = var > 1e-12 ? std::sqrt(var) : 1.0;
    }
    log_attr_stats_.push_back(stats);
  }
  feature_dim_ = num_type_slots_ + 1 /*blank flag*/ + 2 * num_attrs_;
}

double Featurizer::SignedLog(double v) {
  return v >= 0.0 ? std::log1p(v) : -std::log1p(-v);
}

Matrix Featurizer::Encode(std::span<const Event> window) const {
  Matrix features(window.size(), feature_dim_);
  for (size_t t = 0; t < window.size(); ++t) {
    const Event& e = window[t];
    if (e.is_blank()) {
      features(t, num_type_slots_) = 1.0;  // blank flag
      continue;
    }
    auto it = type_slot_.find(e.type);
    const size_t slot =
        it != type_slot_.end() ? it->second : num_type_slots_ - 1;
    features(t, slot) = 1.0;
    for (size_t a = 0; a < num_attrs_; ++a) {
      const AttrStats& stats = attr_stats_[a];
      features(t, num_type_slots_ + 1 + a) = std::clamp(
          (e.attr(a) - stats.mean) / stats.stddev, -kAttrBound, kAttrBound);
      const AttrStats& log_stats = log_attr_stats_[a];
      features(t, num_type_slots_ + 1 + num_attrs_ + a) =
          std::clamp((SignedLog(e.attr(a)) - log_stats.mean) /
                         log_stats.stddev,
                     -kAttrBound, kAttrBound);
    }
  }
  return features;
}

}  // namespace dlacep
