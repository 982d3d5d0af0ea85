#include "cep/oracle.h"

#include <algorithm>
#include <vector>

#include "pattern/plan.h"
#include "stream/window.h"

namespace dlacep {

namespace {

/// Shared enumeration state for one plan.
class OracleSearch {
 public:
  OracleSearch(const LinearPlan& plan, std::span<const Event> events,
               const std::function<void(const Binding&)>& on_match)
      : plan_(plan),
        events_(events),
        on_match_(on_match),
        binding_(plan.pattern->num_vars()) {
    // Candidate events per plan position, ascending id (the span is
    // already sorted).
    candidates_.resize(plan_.num_positions());
    for (const Event& e : events_) {
      if (e.is_blank()) continue;
      for (size_t p = 0; p < plan_.num_positions(); ++p) {
        if (plan_.positions[p].Matches(e.type)) {
          candidates_[p].push_back(&e);
        }
      }
    }
  }

  void Run() {
    const size_t reps = plan_.group_repeat ? plan_.group_max_reps : 1;
    RecPosition(0, /*rep=*/0, /*max_reps=*/reps, /*rep_floor=*/0);
  }

 private:
  static size_t FirstAfter(const std::vector<const Event*>& bucket,
                           EventId floor) {
    auto it = std::upper_bound(
        bucket.begin(), bucket.end(), floor,
        [](EventId id, const Event* e) { return id < e->id; });
    return static_cast<size_t>(it - bucket.begin());
  }

  bool AlreadyBound(const Event* e) const {
    for (const auto& slot : binding_.slots) {
      for (const Event* bound : slot) {
        if (bound == e) return true;
      }
    }
    return false;
  }

  /// Window prune: would adding `e` necessarily break the window?
  bool BreaksWindow(const Event& e) const {
    const WindowSpec& window = plan_.pattern->window();
    bool any = false;
    EventId lo_id = e.id, hi_id = e.id;
    double lo_ts = e.timestamp, hi_ts = e.timestamp;
    for (const auto& slot : binding_.slots) {
      for (const Event* bound : slot) {
        any = true;
        lo_id = std::min(lo_id, bound->id);
        hi_id = std::max(hi_id, bound->id);
        lo_ts = std::min(lo_ts, bound->timestamp);
        hi_ts = std::max(hi_ts, bound->timestamp);
      }
    }
    if (!any) return false;
    if (window.kind == WindowKind::kCount) {
      return hi_id - lo_id > static_cast<EventId>(window.count_size()) - 1;
    }
    return hi_ts - lo_ts > window.size;
  }

  /// Floor imposed on position `index` in repetition `rep` by precedence
  /// (all events bound to predecessor positions) and by the previous
  /// repetition (`rep_floor` for the first position of a repetition).
  EventId FloorFor(size_t index, size_t rep, EventId rep_floor) const {
    EventId floor = 0;
    if (rep > 0 && index == 0) floor = rep_floor;
    const uint64_t preds = plan_.preds[index];
    for (size_t j = 0; j < plan_.num_positions(); ++j) {
      if (!((preds >> j) & 1)) continue;
      const VarId v = plan_.positions[j].var;
      if (!binding_.IsBound(v)) continue;
      for (const Event* e : binding_.Of(v)) {
        floor = std::max(floor, e->id);
      }
    }
    return floor;
  }

  /// Emits the current complete assignment if all final checks pass.
  void EmitIfValid() {
    for (const Condition* condition : plan_.pos_conditions) {
      if (!condition->Eval(binding_)) return;
    }
    const std::vector<const Event*> all = binding_.AllEvents();
    if (!FitsWindow(all, plan_.pattern->window())) return;
    if (ViolatesNegation(plan_, binding_, events_)) return;
    on_match_(binding_);
  }

  /// Tries every assignment of positions [index..) within repetition
  /// `rep`; `max_reps` bounds group repetitions; `rep_floor` is the last
  /// event id of the previous repetition.
  void RecPosition(size_t index, size_t rep, size_t max_reps,
                   EventId rep_floor) {
    if (index == plan_.num_positions()) {
      // Repetition complete.
      const size_t done = rep + 1;
      if (!plan_.group_repeat) {
        EmitIfValid();
        return;
      }
      if (done >= plan_.group_min_reps) EmitIfValid();
      if (done < max_reps) {
        // Events of the next repetition must follow everything bound in
        // this one; the chain within a repetition makes the last
        // position's event the maximum.
        EventId next_floor = 0;
        for (const auto& slot : binding_.slots) {
          for (const Event* e : slot) {
            next_floor = std::max(next_floor, e->id);
          }
        }
        RecPosition(0, rep + 1, max_reps, next_floor);
      }
      return;
    }

    const PlanPosition& pos = plan_.positions[index];
    const std::vector<const Event*>& bucket = candidates_[index];
    if (bucket.empty()) return;
    const EventId floor = FloorFor(index, rep, rep_floor);
    const size_t start =
        (floor == 0 && rep == 0 && plan_.preds[index] == 0)
            ? 0
            : FirstAfter(bucket, floor);

    if (!pos.kleene) {
      for (size_t i = start; i < bucket.size(); ++i) {
        const Event* e = bucket[i];
        if (AlreadyBound(e) || BreaksWindow(*e)) continue;
        binding_.Bind(pos.var, e);
        RecPosition(index + 1, rep, max_reps, rep_floor);
        binding_.Unbind(pos.var);
      }
      return;
    }
    // Kleene position: absorb an ascending run of 1..max_reps events.
    RecKleene(index, rep, max_reps, rep_floor, start, 0, bucket);
  }

  void RecKleene(size_t index, size_t rep, size_t max_reps,
                 EventId rep_floor, size_t bucket_start, size_t absorbed,
                 const std::vector<const Event*>& bucket) {
    const PlanPosition& pos = plan_.positions[index];
    if (absorbed >= pos.min_reps) {
      RecPosition(index + 1, rep, max_reps, rep_floor);
    }
    if (absorbed >= pos.max_reps) return;
    for (size_t i = bucket_start; i < bucket.size(); ++i) {
      const Event* e = bucket[i];
      if (AlreadyBound(e) || BreaksWindow(*e)) continue;
      binding_.Bind(pos.var, e);
      RecKleene(index, rep, max_reps, rep_floor, i + 1, absorbed + 1,
                bucket);
      binding_.Unbind(pos.var);
    }
  }

  const LinearPlan& plan_;
  std::span<const Event> events_;
  const std::function<void(const Binding&)>& on_match_;
  Binding binding_;
  std::vector<std::vector<const Event*>> candidates_;  ///< per position
};

}  // namespace

void ForEachMatch(const Pattern& pattern, std::span<const Event> events,
                  const std::function<void(const Binding&)>& on_match) {
  auto plans = CompilePlans(pattern);
  DLACEP_CHECK_MSG(plans.ok(), plans.status().ToString());
  for (const LinearPlan& plan : plans.value()) {
    OracleSearch search(plan, events, on_match);
    search.Run();
  }
}

MatchSet EnumerateAllMatches(const Pattern& pattern,
                             std::span<const Event> events) {
  std::vector<Match> found;
  ForEachMatch(pattern, events, [&found](const Binding& binding) {
    found.push_back(MatchFromBinding(binding));
  });
  return MatchSet(std::move(found));
}

}  // namespace dlacep
