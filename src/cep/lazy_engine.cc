#include "cep/lazy_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "stream/window.h"

namespace dlacep {

LazyEngine::LazyEngine(Pattern pattern, EngineOptions options)
    : pattern_(std::move(pattern)), options_(options) {}

StatusOr<std::unique_ptr<LazyEngine>> LazyEngine::Create(
    const Pattern& pattern, const EngineOptions& options) {
  std::unique_ptr<LazyEngine> engine(new LazyEngine(pattern, options));
  auto plans = CompilePlans(engine->pattern_);
  if (!plans.ok()) return plans.status();
  engine->plans_ = std::move(plans).value();
  for (const LinearPlan& plan : engine->plans_) {
    if (plan.group_repeat || !plan.negs.empty()) {
      return Status::Unimplemented(
          "lazy engine supports SEQ/CONJ/DISJ of primitives only");
    }
    for (const PlanPosition& pos : plan.positions) {
      if (pos.kleene) {
        return Status::Unimplemented(
            "lazy engine does not support Kleene closure");
      }
    }
  }
  return engine;
}

namespace {

/// Backtracking join over one plan in least-frequent-type-first order.
class LazySearch {
 public:
  LazySearch(const LinearPlan& plan, const Pattern& pattern,
             std::span<const Event> events,
             const std::vector<std::pair<int32_t, double>>& frequencies,
             EngineStats* stats, MatchSet* out, EngineBudget* budget)
      : plan_(plan),
        pattern_(pattern),
        events_(events),
        stats_(stats),
        out_(out),
        budget_(budget),
        binding_(pattern.num_vars()),
        bound_(plan.num_positions(), nullptr) {
    candidates_.resize(plan_.num_positions());
    for (const Event& e : events_) {
      if (e.is_blank()) continue;
      for (uint64_t m = plan_.PositionsOf(e.type); m != 0; m &= m - 1) {
        candidates_[static_cast<size_t>(std::countr_zero(m))].push_back(&e);
      }
    }
    // Lazy evaluation order: ascending frequency of the position's
    // accepted types. With an external estimate installed the chain is
    // ordered by the estimated per-position rate (the decayed runtime
    // counts outlive any one span); otherwise the span's own bucket
    // sizes stand in. Both orderings are deterministic (stable sort,
    // position index breaking ties) and affect pruning only.
    order_.resize(plan_.num_positions());
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    if (frequencies.empty()) {
      std::stable_sort(order_.begin(), order_.end(),
                       [&](size_t a, size_t b) {
                         return candidates_[a].size() <
                                candidates_[b].size();
                       });
    } else {
      std::vector<double> weight(plan_.num_positions(), 0.0);
      for (size_t p = 0; p < plan_.num_positions(); ++p) {
        for (const auto& [type, count] : frequencies) {
          if (plan_.positions[p].Matches(type)) weight[p] += count;
        }
      }
      std::stable_sort(order_.begin(), order_.end(),
                       [&](size_t a, size_t b) {
                         return weight[a] < weight[b];
                       });
    }
  }

  void Run() { Rec(0); }

 private:
  bool AlreadyBound(const Event* e) const {
    for (const Event* b : bound_) {
      if (b == e) return true;
    }
    return false;
  }

  /// Tests the checkable conditions of position `p`, just bound. The
  /// plan has no Kleene position, so no check is aligned and every one
  /// becomes checkable when its last position is bound.
  bool Passes(size_t p) const {
    for (const PositionCheck& check : plan_.checks[p]) {
      if ((check.needs & ~bound_mask_) != 0) continue;
      if (check.is_flat() ? !plan_.HoldsFlat(check, bound_.data())
                          : !check.condition->Eval(binding_)) {
        return false;
      }
    }
    return true;
  }

  void Rec(size_t order_index) {
    if (budget_->exceeded()) return;
    if (order_index == order_.size()) {
      // Conditions with variables were tested when their last position
      // was bound; the rest are the plan's emission checks.
      for (const Condition* condition : plan_.emission_checks) {
        if (!condition->Eval(binding_)) return;
      }
      if (!FitsWindow(binding_.AllEvents(), pattern_.window())) return;
      ++stats_->matches_emitted;
      out_->Insert(MatchFromBinding(binding_));
      return;
    }
    const size_t p = order_[order_index];
    const PlanPosition& pos = plan_.positions[p];
    const uint64_t bit = uint64_t{1} << p;
    const auto& bucket = candidates_[p];
    if (bucket.empty()) return;

    // Id bounds from the precedence relation against bound positions.
    EventId lb = 0;
    bool has_lb = false;
    EventId ub = ~EventId{0};
    bool has_ub = false;
    for (size_t q = 0; q < plan_.num_positions(); ++q) {
      const Event* bq = bound_[q];
      if (bq == nullptr) continue;
      if ((plan_.preds[p] >> q) & 1) {  // q must precede p
        if (!has_lb || bq->id >= lb) {
          lb = bq->id + 1;
          has_lb = true;
        }
      }
      if ((plan_.preds[q] >> p) & 1) {  // p must precede q
        if (!has_ub || bq->id <= ub) {
          ub = bq->id == 0 ? 0 : bq->id - 1;
          has_ub = true;
          if (bq->id == 0) return;  // nothing can precede id 0
        }
      }
    }
    // Count-window bounds against everything bound so far.
    const WindowSpec& window = pattern_.window();
    if (window.kind == WindowKind::kCount) {
      const EventId w = static_cast<EventId>(window.count_size()) - 1;
      for (const Event* b : bound_) {
        if (b == nullptr) continue;
        if (b->id > w) lb = std::max(lb, b->id - w);
        ub = std::min(ub, b->id + w);
      }
    }
    if (lb > ub) return;

    auto it = std::lower_bound(
        bucket.begin(), bucket.end(), lb,
        [](const Event* e, EventId id) { return e->id < id; });
    for (; it != bucket.end() && (*it)->id <= ub; ++it) {
      if (!budget_->OnWork()) return;
      const Event* e = *it;
      // Each examined candidate is one chain step; it either prunes or
      // survives as a search node, so (like the NFA's edge traversals)
      // transitions == partial_matches + partial_matches_pruned.
      ++stats_->transitions;
      if (AlreadyBound(e)) {
        ++stats_->partial_matches_pruned;
        continue;
      }
      if (window.kind == WindowKind::kTime) {
        bool ok = true;
        for (const Event* b : bound_) {
          if (b != nullptr &&
              std::abs(b->timestamp - e->timestamp) > window.size) {
            ok = false;
            break;
          }
        }
        if (!ok) {
          ++stats_->partial_matches_pruned;
          continue;
        }
      }
      binding_.Bind(pos.var, e);
      bound_[p] = e;
      bound_mask_ |= bit;
      if (Passes(p)) {
        ++stats_->partial_matches;  // a surviving search node
        if (!budget_->OnPartialMatch()) return;
        Rec(order_index + 1);
      } else {
        ++stats_->partial_matches_pruned;
      }
      bound_mask_ &= ~bit;
      bound_[p] = nullptr;
      binding_.Unbind(pos.var);
    }
  }

  const LinearPlan& plan_;
  const Pattern& pattern_;
  std::span<const Event> events_;
  EngineStats* stats_;
  MatchSet* out_;
  EngineBudget* budget_;
  Binding binding_;
  std::vector<const Event*> bound_;  ///< per plan position
  uint64_t bound_mask_ = 0;          ///< positions bound in bound_
  std::vector<std::vector<const Event*>> candidates_;  ///< per position
  std::vector<size_t> order_;
};

}  // namespace

Status LazyEngine::Evaluate(std::span<const Event> events, MatchSet* out) {
  return EvaluatePlans(
      events, out, options_, plans_.size(),
      [&](size_t i, MatchSet* sink, EngineBudget* budget) {
        LazySearch(plans_[i], pattern_, events, type_frequencies_, &stats_,
                   sink, budget)
            .Run();
      });
}

}  // namespace dlacep
