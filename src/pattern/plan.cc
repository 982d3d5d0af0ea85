#include "pattern/plan.h"

#include <algorithm>

namespace dlacep {

namespace {

PlanPosition PositionFromPrimitive(const PatternNode& node) {
  DLACEP_CHECK(node.kind == OpKind::kPrimitive);
  PlanPosition pos;
  pos.var = node.var;
  pos.types = node.types;
  return pos;
}

// Appends the positions of a SEQ node (primitives and KC(primitive)
// children) to `plan`, chaining precedence, and records NEG children.
Status AppendSeq(const PatternNode& seq, LinearPlan* plan) {
  int last_positive = static_cast<int>(plan->positions.size()) - 1;
  // Pending NEG children waiting for their following positive position.
  std::vector<size_t> pending_negs;

  for (const auto& child : seq.children) {
    if (child->kind == OpKind::kNeg) {
      NegSubPattern neg;
      const PatternNode& inner = *child->children[0];
      if (inner.kind == OpKind::kPrimitive) {
        neg.positions.push_back(PositionFromPrimitive(inner));
      } else {
        DLACEP_CHECK(inner.kind == OpKind::kSeq);
        for (const auto& grand : inner.children) {
          if (grand->kind != OpKind::kPrimitive) {
            return Status::Unimplemented(
                "NEG(SEQ) children must be primitives");
          }
          neg.positions.push_back(PositionFromPrimitive(*grand));
        }
      }
      neg.after_pos = last_positive;
      neg.before_pos = -1;  // patched when the next positive arrives
      plan->negs.push_back(std::move(neg));
      pending_negs.push_back(plan->negs.size() - 1);
      continue;
    }

    PlanPosition pos;
    if (child->kind == OpKind::kPrimitive) {
      pos = PositionFromPrimitive(*child);
    } else if (child->kind == OpKind::kKleene &&
               child->children[0]->kind == OpKind::kPrimitive) {
      pos = PositionFromPrimitive(*child->children[0]);
      pos.kleene = true;
      pos.min_reps = child->min_reps;
      pos.max_reps = child->max_reps;
    } else {
      return Status::Unimplemented("unsupported SEQ child in plan compiler");
    }
    const int index = static_cast<int>(plan->positions.size());
    if (index >= 64) {
      return Status::ResourceExhausted("plans are limited to 64 positions");
    }
    uint64_t pred_mask = 0;
    if (last_positive >= 0) {
      // Transitively ordered after every earlier position of this SEQ.
      pred_mask = plan->preds[static_cast<size_t>(last_positive)] |
                  (uint64_t{1} << last_positive);
    }
    plan->positions.push_back(pos);
    plan->preds.push_back(pred_mask);
    for (size_t neg_index : pending_negs) {
      plan->negs[neg_index].before_pos = index;
    }
    pending_negs.clear();
    last_positive = index;
  }
  if (!pending_negs.empty()) {
    return Status::InvalidArgument(
        "NEG must be followed by a positive SEQ position");
  }
  return Status::Ok();
}

Status AppendConj(const PatternNode& conj, LinearPlan* plan) {
  for (const auto& child : conj.children) {
    if (child->kind != OpKind::kPrimitive) {
      return Status::Unimplemented("CONJ children must be primitives");
    }
    if (plan->positions.size() >= 64) {
      return Status::ResourceExhausted("plans are limited to 64 positions");
    }
    plan->positions.push_back(PositionFromPrimitive(*child));
    plan->preds.push_back(0);  // unordered
  }
  return Status::Ok();
}

Status CompileBranch(const PatternNode& node, const Pattern& pattern,
                     LinearPlan* plan) {
  plan->pattern = &pattern;
  switch (node.kind) {
    case OpKind::kPrimitive:
      plan->positions.push_back(PositionFromPrimitive(node));
      plan->preds.push_back(0);
      return Status::Ok();
    case OpKind::kSeq:
      return AppendSeq(node, plan);
    case OpKind::kConj:
      return AppendConj(node, plan);
    case OpKind::kKleene: {
      const PatternNode& inner = *node.children[0];
      if (inner.kind == OpKind::kPrimitive) {
        PlanPosition pos = PositionFromPrimitive(inner);
        pos.kleene = true;
        pos.min_reps = node.min_reps;
        pos.max_reps = node.max_reps;
        plan->positions.push_back(pos);
        plan->preds.push_back(0);
        return Status::Ok();
      }
      DLACEP_CHECK(inner.kind == OpKind::kSeq);
      DLACEP_RETURN_IF_ERROR(AppendSeq(inner, plan));
      if (!plan->negs.empty()) {
        return Status::Unimplemented("NEG inside KC(SEQ) is not supported");
      }
      plan->group_repeat = true;
      plan->group_min_reps = node.min_reps;
      plan->group_max_reps = node.max_reps;
      return Status::Ok();
    }
    default:
      return Status::Unimplemented(
          std::string("cannot compile branch of kind ") +
          OpKindName(node.kind));
  }
}

// Splits the pattern's conditions between positive and negation sets.
void AttachConditions(const Pattern& pattern, LinearPlan* plan) {
  // Only consider conditions whose variables all appear in this plan
  // (relevant for DISJ: each branch sees its own variables).
  std::vector<bool> in_plan(pattern.num_vars(), false);
  for (const PlanPosition& pos : plan->positions) {
    in_plan[static_cast<size_t>(pos.var)] = true;
  }
  for (const NegSubPattern& neg : plan->negs) {
    for (const PlanPosition& pos : neg.positions) {
      in_plan[static_cast<size_t>(pos.var)] = true;
    }
  }
  for (const auto& condition : pattern.conditions()) {
    bool relevant = true;
    bool references_negated = false;
    for (VarId v : condition->Vars()) {
      if (!in_plan[static_cast<size_t>(v)]) {
        relevant = false;
        break;
      }
      if (pattern.vars()[static_cast<size_t>(v)].negated) {
        references_negated = true;
      }
    }
    if (!relevant) continue;
    if (references_negated) {
      plan->neg_conditions.push_back(condition.get());
    } else {
      plan->pos_conditions.push_back(condition.get());
    }
  }
}

FlatTerm LowerTerm(const Term& term, const std::vector<int32_t>& var_pos) {
  FlatTerm flat;
  flat.constant = term.constant;
  if (term.ref.has_value()) {
    flat.pos = var_pos[static_cast<size_t>(term.ref->var)];
    flat.attr = static_cast<uint32_t>(term.ref->attr);
    flat.coeff = term.coeff;
  }
  return flat;
}

// Appends the flat lowering of a tree of AND / comparisons to `out`;
// returns false (leaving `out` partly extended) on any other node.
bool LowerFlat(const Condition& condition,
               const std::vector<int32_t>& var_pos,
               std::vector<FlatCompare>* out) {
  if (const auto* cmp = dynamic_cast<const CompareCondition*>(&condition)) {
    out->push_back(FlatCompare{LowerTerm(cmp->lhs(), var_pos), cmp->op(),
                               LowerTerm(cmp->rhs(), var_pos)});
    return true;
  }
  if (const auto* conj = dynamic_cast<const AndCondition*>(&condition)) {
    for (const auto& child : conj->children()) {
      if (!LowerFlat(*child, var_pos, out)) return false;
    }
    return true;
  }
  return false;
}

// Builds the plan's per-position check lists and lookup masks.
void CompileChecks(const Pattern& pattern, LinearPlan* plan) {
  const size_t n = plan->num_positions();
  std::vector<int32_t> var_pos(pattern.num_vars(), -1);
  uint64_t lists = plan->group_repeat ? ~uint64_t{0} : 0;
  for (size_t p = 0; p < n; ++p) {
    const PlanPosition& pos = plan->positions[p];
    var_pos[static_cast<size_t>(pos.var)] = static_cast<int32_t>(p);
    if (pos.kleene || pattern.vars()[static_cast<size_t>(pos.var)].kleene) {
      lists |= uint64_t{1} << p;
    }
  }

  plan->checks.assign(n, {});
  for (const Condition* condition : plan->pos_conditions) {
    PositionCheck check;
    check.condition = condition;
    const std::vector<VarId> vars = condition->Vars();
    for (VarId v : vars) {
      const int32_t p = var_pos[static_cast<size_t>(v)];
      DLACEP_CHECK_GE(p, 0);
      check.needs |= uint64_t{1} << p;
      if (pattern.vars()[static_cast<size_t>(v)].kleene) {
        check.kleene |= uint64_t{1} << p;
      }
    }
    if ((check.needs & lists) == 0) {
      const size_t begin = plan->flat.size();
      if (LowerFlat(*condition, var_pos, &plan->flat)) {
        check.flat_begin = static_cast<uint32_t>(begin);
        check.flat_end = static_cast<uint32_t>(plan->flat.size());
      } else {
        plan->flat.resize(begin);
      }
    }
    if (vars.empty() || check.aligned()) {
      plan->emission_checks.push_back(condition);
    }
    for (VarId v : vars) {
      plan->checks[static_cast<size_t>(var_pos[static_cast<size_t>(v)])]
          .push_back(check);
    }
  }

  plan->succs.assign(n, 0);
  for (size_t p = 0; p < n; ++p) {
    const uint64_t bit = uint64_t{1} << p;
    if (plan->preds[p] == 0) plan->roots |= bit;
    for (size_t q = 0; q < n; ++q) {
      if ((plan->preds[p] >> q) & 1) plan->succs[q] |= bit;
    }
    for (TypeId type : plan->positions[p].types) {
      if (type < 0) continue;
      const size_t t = static_cast<size_t>(type);
      if (t >= plan->type_positions.size()) {
        plan->type_positions.resize(t + 1, 0);
      }
      plan->type_positions[t] |= bit;
    }
  }
}

}  // namespace

StatusOr<std::vector<LinearPlan>> CompilePlans(const Pattern& pattern) {
  DLACEP_RETURN_IF_ERROR(pattern.Validate());
  std::vector<LinearPlan> plans;
  const PatternNode& root = pattern.root();
  if (root.kind == OpKind::kDisj) {
    for (const auto& branch : root.children) {
      LinearPlan plan;
      DLACEP_RETURN_IF_ERROR(CompileBranch(*branch, pattern, &plan));
      AttachConditions(pattern, &plan);
      CompileChecks(pattern, &plan);
      plans.push_back(std::move(plan));
    }
  } else {
    LinearPlan plan;
    DLACEP_RETURN_IF_ERROR(CompileBranch(root, pattern, &plan));
    AttachConditions(pattern, &plan);
    CompileChecks(pattern, &plan);
    plans.push_back(std::move(plan));
  }
  return plans;
}

namespace {

// Recursively searches for an occurrence of neg.positions[index..] whose
// events lie strictly inside (lo_id, hi_id), after `prev_id`, satisfying
// the plan's negation conditions once fully bound.
bool FindNegOccurrence(const LinearPlan& plan, const NegSubPattern& neg,
                       size_t index, EventId prev_id, EventId hi_id,
                       std::span<const Event> span, Binding* binding) {
  if (index == neg.positions.size()) {
    for (const Condition* condition : plan.neg_conditions) {
      if (!condition->CanEval(*binding)) continue;
      if (!condition->Eval(*binding)) return false;
    }
    return true;
  }
  const PlanPosition& pos = neg.positions[index];
  // Binary search for the first event with id > prev_id.
  auto it = std::upper_bound(
      span.begin(), span.end(), prev_id,
      [](EventId id, const Event& e) { return id < e.id; });
  for (; it != span.end() && it->id < hi_id; ++it) {
    if (!pos.Matches(it->type)) continue;
    binding->Bind(pos.var, &*it);
    if (FindNegOccurrence(plan, neg, index + 1, it->id, hi_id, span,
                          binding)) {
      binding->Unbind(pos.var);
      return true;
    }
    binding->Unbind(pos.var);
  }
  return false;
}

}  // namespace

bool ViolatesNegation(const LinearPlan& plan, const Binding& binding,
                      std::span<const Event> stream_span) {
  if (plan.negs.empty()) return false;
  Binding scratch = binding;
  for (const NegSubPattern& neg : plan.negs) {
    DLACEP_CHECK_GE(neg.after_pos, 0);
    DLACEP_CHECK_GE(neg.before_pos, 0);
    const PlanPosition& after = plan.positions[static_cast<size_t>(neg.after_pos)];
    const PlanPosition& before = plan.positions[static_cast<size_t>(neg.before_pos)];
    const auto& after_events = binding.Of(after.var);
    const auto& before_events = binding.Of(before.var);
    const EventId lo_id = after_events.back()->id;
    const EventId hi_id = before_events.front()->id;
    if (hi_id <= lo_id + 1) continue;  // empty interval
    if (FindNegOccurrence(plan, neg, 0, lo_id, hi_id, stream_span,
                          &scratch)) {
      return true;
    }
  }
  return false;
}

}  // namespace dlacep
