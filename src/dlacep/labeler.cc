#include "dlacep/labeler.h"

#include <algorithm>

#include "common/rng.h"

namespace dlacep {

namespace {

// Collects types referenced under NEG operators.
void CollectNegatedTypes(const PatternNode& node, bool under_neg,
                         std::set<TypeId>* out) {
  if (node.kind == OpKind::kPrimitive) {
    if (under_neg) out->insert(node.types.begin(), node.types.end());
    return;
  }
  const bool neg = under_neg || node.kind == OpKind::kNeg;
  for (const auto& child : node.children) {
    CollectNegatedTypes(*child, neg, out);
  }
}

// Unlabeled samples over `windows`.
std::vector<LabeledSample> BlankSamples(std::span<const WindowRange> windows) {
  std::vector<LabeledSample> samples(windows.size());
  for (size_t i = 0; i < windows.size(); ++i) {
    samples[i].range = windows[i];
    samples[i].event_labels.assign(windows[i].size(), 0);
  }
  return samples;
}

// ORs `matches` into every sample that holds a whole match. The ids
// inside a sample are contiguous, so offset arithmetic suffices; blank
// events never match.
void ApplyMatches(const MatchSet& matches, const EventStream& stream,
                  std::vector<LabeledSample>* samples) {
  // Sort matches by their minimal event id for windowed lookups.
  std::vector<const Match*> by_min;
  by_min.reserve(matches.size());
  for (const Match& m : matches) by_min.push_back(&m);
  std::sort(by_min.begin(), by_min.end(),
            [](const Match* a, const Match* b) {
              return a->ids.front() < b->ids.front();
            });

  for (LabeledSample& sample : *samples) {
    if (sample.range.size() == 0) continue;
    const EventId lo = stream[sample.range.begin].id;
    const EventId hi = lo + sample.range.size();  // exclusive
    auto it = std::lower_bound(
        by_min.begin(), by_min.end(), lo,
        [](const Match* m, EventId id) { return m->ids.front() < id; });
    for (; it != by_min.end() && (*it)->ids.front() < hi; ++it) {
      if ((*it)->ids.back() >= hi) continue;  // not fully inside
      ++sample.num_matches;
      for (EventId id : (*it)->ids) {
        sample.event_labels[static_cast<size_t>(id - lo)] = 1;
      }
    }
  }
}

// Sets the window labels and, negation-aware (§4.4), labels the events
// of a negated type too, so the filter relays them.
void FinishLabels(const std::set<TypeId>& negated_types,
                  const EventStream& stream,
                  std::vector<LabeledSample>* samples) {
  for (LabeledSample& sample : *samples) {
    sample.window_label = sample.num_matches > 0 ? 1 : 0;
    if (negated_types.empty()) continue;
    for (size_t t = 0; t < sample.range.size(); ++t) {
      if (negated_types.count(stream[sample.range.begin + t].type) > 0) {
        sample.event_labels[t] = 1;
      }
    }
  }
}

}  // namespace

SampleLabeler::SampleLabeler(const Pattern& pattern) : pattern_(pattern) {
  CollectNegatedTypes(pattern_.root(), /*under_neg=*/false,
                      &negated_types_);
  auto engine = CreateEngine(EngineKind::kNfa, pattern_);
  DLACEP_CHECK_MSG(engine.ok(), engine.status().ToString());
  engine_ = std::move(engine).value();
}

LabeledSample SampleLabeler::Label(const EventStream& stream,
                                   WindowRange range) const {
  MatchSet matches;
  {
    std::lock_guard<std::mutex> lock(engine_mu_);
    const Status status =
        engine_->Evaluate(stream.View(range.begin, range.size()), &matches);
    DLACEP_CHECK_MSG(status.ok(), status.ToString());
  }
  std::vector<LabeledSample> samples = BlankSamples({&range, 1});
  ApplyMatches(matches, stream, &samples);
  FinishLabels(negated_types_, stream, &samples);
  return std::move(samples[0]);
}

FilterDataset BuildFilterDataset(std::span<const Pattern> patterns,
                                 const EventStream& stream,
                                 const InputAssembler& assembler,
                                 const Featurizer& featurizer,
                                 double train_fraction, uint64_t seed,
                                 bool negation_aware) {
  DLACEP_CHECK(!patterns.empty());
  DLACEP_CHECK_GT(train_fraction, 0.0);
  DLACEP_CHECK_LE(train_fraction, 1.0);
  const std::vector<WindowRange> windows = assembler.Windows(stream.size());
  std::vector<LabeledSample> all_labeled = BlankSamples(windows);
  // One global exact-CEP pass per pattern. A match must span at most
  // W - 1 id units, and MarkSize >= 2W / StepSize <= W guarantee every
  // such id interval lies inside at least one sample window, so labels
  // derived from the global match set equal the labels a per-window
  // CEP run would produce — at half the cost (no overlap is
  // re-evaluated).
  std::set<TypeId> negated_types;
  for (const Pattern& pattern : patterns) {
    auto engine = CreateEngine(EngineKind::kNfa, pattern);
    DLACEP_CHECK_MSG(engine.ok(), engine.status().ToString());
    MatchSet matches;
    const Status status = engine.value()->Evaluate(
        {stream.events().data(), stream.size()}, &matches);
    DLACEP_CHECK_MSG(status.ok(), status.ToString());
    ApplyMatches(matches, stream, &all_labeled);
    if (negation_aware) {
      CollectNegatedTypes(pattern.root(), /*under_neg=*/false,
                          &negated_types);
    }
  }
  FinishLabels(negated_types, stream, &all_labeled);

  FilterDataset dataset;
  Rng rng(seed);
  const std::vector<size_t> order = rng.Permutation(windows.size());
  const size_t train_count = static_cast<size_t>(
      train_fraction * static_cast<double>(windows.size()) + 0.5);

  for (size_t k = 0; k < order.size(); ++k) {
    const WindowRange range = windows[order[k]];
    LabeledSample labeled = std::move(all_labeled[order[k]]);
    Sample event_sample;
    event_sample.features =
        featurizer.Encode(stream.View(range.begin, range.size()));
    event_sample.labels = labeled.event_labels;
    Sample window_sample;
    window_sample.features = event_sample.features;
    window_sample.labels = {labeled.window_label};

    const bool is_train = k < train_count;
    if (is_train) {
      dataset.train_raw.push_back(std::move(labeled));
      dataset.train_event.push_back(std::move(event_sample));
      dataset.train_window.push_back(std::move(window_sample));
    } else {
      dataset.test_raw.push_back(std::move(labeled));
      dataset.test_event.push_back(std::move(event_sample));
      dataset.test_window.push_back(std::move(window_sample));
    }
  }
  return dataset;
}

}  // namespace dlacep
