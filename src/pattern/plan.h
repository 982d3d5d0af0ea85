// Linear evaluation plans.
//
// Engines do not interpret the operator tree directly; a Pattern is first
// normalized into one or more `LinearPlan`s (one per DISJ branch). A plan
// is a list of positions to fill with stream events plus
//  * a precedence mask per position (SEQ imposes a total order, CONJ
//    leaves positions unordered),
//  * optional whole-plan repetition (top-level KC(SEQ(...))),
//  * negation sub-patterns anchored between positive positions,
//  * the split of WHERE conditions into positive conditions (never
//    reference a negated variable) and negation conditions (reference at
//    least one negated variable; they qualify a negated occurrence),
//  * the positive conditions compiled into per-position check lists: the
//    conditions an engine must test when it binds an event to a position,
//    each with the positions it needs bound first and, where possible, a
//    flat lowering that reads attributes straight from the bound events.
//
// The union of the match sets of all plans, deduplicated by event-id set,
// is the pattern's match set M(s)_P.

#ifndef DLACEP_PATTERN_PLAN_H_
#define DLACEP_PATTERN_PLAN_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "pattern/pattern.h"

namespace dlacep {

/// One event slot of a linear plan.
struct PlanPosition {
  VarId var = -1;
  /// Accepted event types, sorted ascending.
  std::vector<TypeId> types;
  /// Kleene position: absorbs min_reps..max_reps ordered events.
  bool kleene = false;
  size_t min_reps = 1;
  size_t max_reps = 1;

  bool Matches(TypeId type) const {
    return std::binary_search(types.begin(), types.end(), type);
  }
};

/// A negated sub-pattern: an ordered run of positions that must NOT occur
/// strictly between the events bound to the bracketing plan positions.
struct NegSubPattern {
  std::vector<PlanPosition> positions;
  /// Index (into LinearPlan::positions) of the nearest positive position
  /// preceding the NEG in the SEQ.
  int after_pos = -1;
  /// Index of the nearest positive position following the NEG.
  int before_pos = -1;
};

/// One side of a flat comparison: coeff * (event at `pos`).attr +
/// constant, or just `constant` when pos < 0.
struct FlatTerm {
  int32_t pos = -1;
  uint32_t attr = 0;
  double coeff = 0.0;
  double constant = 0.0;

  /// `by_pos[pos]` is the single event bound to position `pos`.
  double Value(const Event* const* by_pos) const {
    return pos < 0 ? constant : coeff * by_pos[pos]->attr(attr) + constant;
  }
};

/// A CompareCondition over single events, lowered to positions.
struct FlatCompare {
  FlatTerm lhs;
  CmpOp op = CmpOp::kLt;
  FlatTerm rhs;

  bool Holds(const Event* const* by_pos) const {
    return ApplyCmp(op, lhs.Value(by_pos), rhs.Value(by_pos));
  }
};

/// A positive condition as checked when one of its variables is bound.
struct PositionCheck {
  const Condition* condition = nullptr;
  /// Positions of the variables the condition references. All of them
  /// must be bound before the condition is checkable.
  uint64_t needs = 0;
  /// Positions of the referenced Kleene variables.
  uint64_t kleene = 0;
  /// The condition's flat lowering, [flat_begin, flat_end) of
  /// LinearPlan::flat. Empty when some referenced variable binds a list
  /// or the condition is not a tree of AND / comparisons; such checks
  /// fall back to Condition::Eval on a Binding.
  uint32_t flat_begin = 0;
  uint32_t flat_end = 0;

  bool is_flat() const { return flat_end > flat_begin; }

  /// Two or more Kleene variables: the condition is checkable only while
  /// their lists have equal lengths. Pruning on unequal-length lists
  /// could reject bindings that become valid once the shorter list
  /// catches up.
  bool aligned() const { return std::popcount(kleene) >= 2; }
};

/// A compiled, engine-consumable plan.
struct LinearPlan {
  std::vector<PlanPosition> positions;
  /// preds[i]: bitmask of positions that must be filled before position i
  /// may be filled (events arrive in order, so SEQ order reduces to fill
  /// order). Plans are limited to 64 positions.
  std::vector<uint64_t> preds;

  /// Top-level KC(SEQ(...)): the whole position list may repeat, with
  /// every variable accumulating one event per repetition.
  bool group_repeat = false;
  size_t group_min_reps = 1;
  size_t group_max_reps = 1;

  std::vector<NegSubPattern> negs;

  /// Conditions over positive variables only (owned by the Pattern).
  std::vector<const Condition*> pos_conditions;
  /// Conditions referencing at least one negated variable.
  std::vector<const Condition*> neg_conditions;

  /// checks[p]: the positive conditions referencing position p's
  /// variable, in pos_conditions order. An engine that binds an event to
  /// p tests the checkable ones; every condition with variables is thus
  /// tested on its final binding when its last variable is bound.
  std::vector<std::vector<PositionCheck>> checks;
  /// Storage of the flat lowerings the checks index into.
  std::vector<FlatCompare> flat;
  /// Positive conditions a complete binding must be re-checked against:
  /// the aligned ones (their pruning may have been deferred) and those
  /// referencing no variable (no binding step tests them).
  std::vector<const Condition*> emission_checks;

  /// type_positions[t]: mask of the positions accepting type t.
  std::vector<uint64_t> type_positions;
  /// succs[p]: mask of the positions that must follow position p.
  std::vector<uint64_t> succs;
  /// Positions with no predecessors: where a fresh match may start.
  uint64_t roots = 0;

  const Pattern* pattern = nullptr;  ///< non-owning source pattern

  size_t num_positions() const { return positions.size(); }

  /// True for a SEQ plan: its positions fill in position order.
  bool ordered() const { return positions.size() > 1 && preds[1] != 0; }

  /// Mask of the positions accepting `type`.
  uint64_t PositionsOf(TypeId type) const {
    return type >= 0 && static_cast<size_t>(type) < type_positions.size()
               ? type_positions[static_cast<size_t>(type)]
               : 0;
  }

  /// True when `check`'s flat lowering holds on the single events
  /// `by_pos` (indexed by position).
  bool HoldsFlat(const PositionCheck& check,
                 const Event* const* by_pos) const {
    for (uint32_t i = check.flat_begin; i < check.flat_end; ++i) {
      if (!flat[i].Holds(by_pos)) return false;
    }
    return true;
  }
};

/// Compiles a validated pattern into its linear plans (one per DISJ
/// branch; a single plan otherwise). The returned plans alias the
/// pattern's conditions and must not outlive it.
StatusOr<std::vector<LinearPlan>> CompilePlans(const Pattern& pattern);

/// Checks whether `binding` (a complete assignment of the plan's positive
/// positions) is invalidated by any negated sub-pattern occurring in
/// `stream_span` (which must be sorted by event id and contain the
/// relevant interval).
bool ViolatesNegation(const LinearPlan& plan, const Binding& binding,
                      std::span<const Event> stream_span);

}  // namespace dlacep

#endif  // DLACEP_PATTERN_PLAN_H_
