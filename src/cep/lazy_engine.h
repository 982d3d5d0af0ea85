// Lazy (frequency-ordered) evaluation engine — the second ECEP
// optimization baseline of Fig 12, after Kolchinsky, Sharfman & Schuster
// (DEBS'15): instead of extending prefixes in arrival order, events are
// buffered and the pattern is instantiated starting from the *least
// frequent* event type, which usually prunes the search drastically.
//
// The implementation buffers the span, orders plan positions by ascending
// type frequency, and runs a backtracking join in that order; each search
// node (candidate binding extension) counts as a partial match. Each
// step's candidates are bounded by binary search: by id against the
// precedence relation and a count window, and, on a time window over a
// span whose timestamps never decrease, to [max bound ts − W, min bound
// ts + W] (an unsorted span checks each candidate's timestamps instead).
//
// Chain ordering: by default each Evaluate() orders positions by the
// candidate-bucket sizes of the span at hand. A caller running a
// longer-lived frequency estimate (the adaptive selector's decayed
// per-type counts) can instead install it with SetTypeFrequencies();
// the chain is then reordered by the estimated rate of each position's
// accepted types — the lazy chain-automaton reordering step. Either
// ordering only changes how the search is pruned, never the match set.
//
// Supported pattern class: same as the tree engine — DISJ branches of
// SEQ / CONJ over primitives.

#ifndef DLACEP_CEP_LAZY_ENGINE_H_
#define DLACEP_CEP_LAZY_ENGINE_H_

#include <utility>
#include <vector>

#include "cep/engine.h"

namespace dlacep {

class LazyEngine : public CepEngine {
 public:
  static StatusOr<std::unique_ptr<LazyEngine>> Create(
      const Pattern& pattern, const EngineOptions& options);

  std::string name() const override { return "lazy"; }

  Status Evaluate(std::span<const Event> events, MatchSet* out) override;

  /// Installs (replaces) the external per-type frequency estimate that
  /// drives chain ordering; an empty vector reverts to per-span bucket
  /// sizes. Entries are (type, decayed count), types unique.
  void SetTypeFrequencies(
      std::vector<std::pair<int32_t, double>> frequencies) {
    type_frequencies_ = std::move(frequencies);
  }

 private:
  LazyEngine(Pattern pattern, EngineOptions options);

  Pattern pattern_;
  EngineOptions options_;
  std::vector<LinearPlan> plans_;
  std::vector<std::pair<int32_t, double>> type_frequencies_;
};

}  // namespace dlacep

#endif  // DLACEP_CEP_LAZY_ENGINE_H_
