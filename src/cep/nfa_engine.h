// NFA-based evaluation engine — the paper's baseline ECEP mechanism
// (§2.1, Fig 2).
//
// Each stored partial match is an automaton "prefix": a partial
// assignment of events to plan positions. Under skip-till-any-match,
// every arriving event may extend every stored partial match (creating a
// new one — the original remains stored) or start a new one. This is the
// mechanism whose partial-match count explodes exponentially with the
// window size, motivating DLACEP.
//
// Partial matches live in a shared-prefix store: a fixed-width record
// holds the one event it added and links to the partial match it
// extended, so an extension copies nothing of its prefix. A candidate
// extension is tested against its position's compiled check list
// (LinearPlan::checks) before anything is stored; a Binding is built
// only for conditions without a flat lowering and at emission.
//
// Supports the full pattern class of pattern.h: SEQ/CONJ/DISJ branches,
// KC positions, top-level KC(SEQ) group repetition, and NEG sub-patterns
// (checked at emission against the evaluated span).

#ifndef DLACEP_CEP_NFA_ENGINE_H_
#define DLACEP_CEP_NFA_ENGINE_H_

#include <vector>

#include "cep/engine.h"

namespace dlacep {

class NfaEngine : public CepEngine {
 public:
  /// Fails (kUnimplemented / kInvalidArgument) when the pattern is
  /// outside the supported class.
  static StatusOr<std::unique_ptr<NfaEngine>> Create(
      const Pattern& pattern, const EngineOptions& options);

  std::string name() const override { return "nfa"; }

  Status Evaluate(std::span<const Event> events, MatchSet* out) override;

 private:
  NfaEngine(Pattern pattern, EngineOptions options);

  Pattern pattern_;
  EngineOptions options_;
  std::vector<LinearPlan> plans_;
};

}  // namespace dlacep

#endif  // DLACEP_CEP_NFA_ENGINE_H_
