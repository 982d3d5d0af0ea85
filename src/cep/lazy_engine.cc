#include "cep/lazy_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "pattern/selectivity.h"
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
             bool time_sorted, EngineStats* stats, std::vector<Match>* out,
             EngineBudget* budget)
      : plan_(plan),
        pattern_(pattern),
        events_(events),
        time_sorted_(time_sorted),
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
    // The rarest-first chain: by the installed estimate's rates, else by
    // the span's own bucket sizes (see the header).
    std::vector<double> weights = PositionRates(plan_, frequencies);
    if (frequencies.empty()) {
      for (size_t p = 0; p < weights.size(); ++p) {
        weights[p] = static_cast<double>(candidates_[p].size());
      }
    }
    order_ = RarestFirstOrder(weights);
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
      out_->push_back(MatchFromBinding(binding_));
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
    auto end = std::partition_point(
        it, bucket.end(), [ub](const Event* e) { return e->id <= ub; });
    // Time-window bounds. On a span whose timestamps do not decrease,
    // every bucket is timestamp-sorted, so the candidates within W of
    // every bound event form one range: [max bound ts − W, min bound
    // ts + W], found with the per-candidate check's own comparisons
    // (floating-point subtraction is monotone, so the range holds
    // exactly the candidates that check would keep).
    const bool time_window = window.kind == WindowKind::kTime;
    if (time_window && time_sorted_ && bound_mask_ != 0) {
      double min_ts = std::numeric_limits<double>::infinity();
      double max_ts = -min_ts;
      for (const Event* b : bound_) {
        if (b == nullptr) continue;
        min_ts = std::min(min_ts, b->timestamp);
        max_ts = std::max(max_ts, b->timestamp);
      }
      it = std::partition_point(it, end, [&](const Event* e) {
        return max_ts - e->timestamp > window.size;
      });
      end = std::partition_point(it, end, [&](const Event* e) {
        return !(e->timestamp - min_ts > window.size);
      });
    }
    for (; it != end; ++it) {
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
      if (time_window && !time_sorted_) {
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
  bool time_sorted_;  ///< the span's timestamps never decrease
  EngineStats* stats_;
  std::vector<Match>* out_;
  EngineBudget* budget_;
  Binding binding_;
  std::vector<const Event*> bound_;  ///< per plan position
  uint64_t bound_mask_ = 0;          ///< positions bound in bound_
  std::vector<std::vector<const Event*>> candidates_;  ///< per position
  std::vector<size_t> order_;
};

}  // namespace

Status LazyEngine::Evaluate(std::span<const Event> events, MatchSet* out) {
  bool time_sorted = true;
  for (size_t i = 1; i < events.size() && time_sorted; ++i) {
    time_sorted = events[i].timestamp >= events[i - 1].timestamp;
  }
  return EvaluatePlans(
      events, out, options_, plans_.size(),
      [&](size_t i, std::vector<Match>* found, EngineBudget* budget) {
        LazySearch(plans_[i], pattern_, events, type_frequencies_,
                   time_sorted, &stats_, found, budget)
            .Run();
      });
}

}  // namespace dlacep
