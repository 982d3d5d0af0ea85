#include "cep/nfa_engine.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "stream/window.h"

namespace dlacep {

NfaEngine::NfaEngine(Pattern pattern, EngineOptions options)
    : pattern_(std::move(pattern)), options_(options) {}

StatusOr<std::unique_ptr<NfaEngine>> NfaEngine::Create(
    const Pattern& pattern, const EngineOptions& options) {
  std::unique_ptr<NfaEngine> engine(new NfaEngine(pattern, options));
  auto plans = CompilePlans(engine->pattern_);
  if (!plans.ok()) return plans.status();
  engine->plans_ = std::move(plans).value();
  return engine;
}

namespace {

constexpr uint32_t kNoParent = std::numeric_limits<uint32_t>::max();
constexpr uint32_t kNothingLoaded = kNoParent - 1;

/// One stored partial match: the event it bound last, linked to the
/// partial match it extended. Its assignment is the chain of events from
/// the root record to itself, in arrival order. Every record of a chain
/// shares the chain's anchor (first event), so a chain expires as a
/// whole and a live record's ancestors are always live.
struct Record {
  const Event* event;
  uint64_t mask;      ///< positions filled in the current repetition
  EventId first_id;   ///< the anchor's id and timestamp
  double first_ts;
  uint32_t parent;    ///< index of the extended record, or kNoParent
  uint32_t reps;      ///< completed group repetitions
  uint32_t position;  ///< plan position `event` is bound to
};

/// One EvaluatePlan() pass over a span.
///
/// Records are appended in event order to one vector. While an event
/// extends the stored records, expired ones are compacted away in place
/// and the survivors' parent links remapped; the event's new records are
/// appended behind the stored range and slide down over the gap after.
class NfaRun {
 public:
  NfaRun(const LinearPlan& plan, const Pattern& pattern,
         std::span<const Event> events, EngineStats* stats, MatchSet* out,
         EngineBudget* budget)
      : plan_(plan),
        window_(pattern.window()),
        events_(events),
        stats_(stats),
        out_(out),
        budget_(budget),
        full_mask_(plan.num_positions() >= 64
                       ? ~uint64_t{0}
                       : (uint64_t{1} << plan.num_positions()) - 1),
        by_pos_(plan.num_positions(), nullptr),
        binding_(pattern.num_vars()) {
    for (size_t p = 0; p < plan.num_positions(); ++p) {
      if (plan.positions[p].kleene) kleene_mask_ |= uint64_t{1} << p;
    }
  }

  void Run() {
    for (const Event& e : events_) {
      if (e.is_blank()) continue;
      if (budget_->exceeded()) return;
      const uint64_t matching = plan_.PositionsOf(e.type);
      loaded_ = kNothingLoaded;
      stored_before_ = records_.size();
      remap_.resize(stored_before_);

      // Extend every live stored record (skip-till-any-match keeps the
      // original stored), compacting expired records away in the same
      // pass. Only records stored before this event are candidates.
      size_t write = 0;
      for (size_t s = 0; s < stored_before_; ++s) {
        if (!budget_->OnWork()) return;
        Record rec = records_[s];
        if (Expired(rec, e)) continue;
        if (rec.parent != kNoParent) rec.parent = remap_[rec.parent];
        remap_[s] = static_cast<uint32_t>(write);
        records_[write] = rec;
        const uint32_t src = static_cast<uint32_t>(write++);
        if (matching != 0) Extend(rec, src, e, matching);
      }

      // Start fresh partial matches at positions with no predecessors.
      for (uint64_t m = matching & plan_.roots; m != 0; m &= m - 1) {
        const uint32_t p = static_cast<uint32_t>(std::countr_zero(m));
        const Record c{&e, uint64_t{1} << p, e.id, e.timestamp, kNoParent,
                       0, p};
        Consider(c);
      }

      records_.erase(records_.begin() + static_cast<ptrdiff_t>(write),
                     records_.begin() +
                         static_cast<ptrdiff_t>(stored_before_));
    }
  }

 private:
  bool Expired(const Record& rec, const Event& e) const {
    // Extensions only add events at or after `e`, so a prefix whose
    // anchor is out of `e`'s window range can never complete.
    if (window_.kind == WindowKind::kCount) {
      return e.id - rec.first_id >
             static_cast<EventId>(window_.count_size()) - 1;
    }
    return e.timestamp - rec.first_ts > window_.size;
  }

  /// Every candidate extension `rec` (stored at `src`) admits for `e`.
  void Extend(const Record& rec, uint32_t src, const Event& e,
              uint64_t matching) {
    for (uint64_t m = matching; m != 0; m &= m - 1) {
      const uint32_t p = static_cast<uint32_t>(std::countr_zero(m));
      const uint64_t bit = uint64_t{1} << p;
      if ((rec.mask & bit) == 0) {
        // Fill a fresh position: all predecessors must be filled.
        if ((plan_.preds[p] & rec.mask) != plan_.preds[p]) continue;
        Consider(Record{&e, rec.mask | bit, rec.first_id, rec.first_ts, src,
                        rec.reps, p});
      } else if ((kleene_mask_ & bit) != 0) {
        // Absorb another event into a Kleene position, allowed only
        // while no successor position has been filled yet.
        if ((plan_.succs[p] & rec.mask) != 0) continue;
        const PlanPosition& pos = plan_.positions[p];
        if (CountInChain(src, p) >= pos.max_reps * (rec.reps + 1)) continue;
        Consider(Record{&e, rec.mask, rec.first_id, rec.first_ts, src,
                        rec.reps, p});
      }
    }
    // Group repetition: a complete prefix may loop back to position 0.
    if (plan_.group_repeat && rec.mask == full_mask_ &&
        rec.reps + 1 < plan_.group_max_reps && (matching & 1) != 0) {
      Consider(Record{&e, 1, rec.first_id, rec.first_ts, src, rec.reps + 1,
                      0});
    }
  }

  /// One transition: prunes the candidate or stores it. Every candidate
  /// counts as one transition and either prunes or is counted as a
  /// partial match, so across a run
  /// transitions == partial_matches + partial_matches_pruned.
  void Consider(const Record& c) {
    ++stats_->transitions;
    if (!Passes(c)) {
      ++stats_->partial_matches_pruned;
      return;
    }
    ++stats_->partial_matches;
    if (!budget_->OnPartialMatch()) return;
    MaybeEmit(c);
    records_.push_back(c);
  }

  /// Tests the checkable conditions of the candidate's position.
  bool Passes(const Record& c) {
    binding_for_ = nullptr;
    const uint64_t bound = c.reps > 0 ? full_mask_ : c.mask;
    for (const PositionCheck& check : plan_.checks[c.position]) {
      if ((check.needs & ~bound) != 0) continue;
      if (check.is_flat()) {
        LoadChain(c.parent);
        by_pos_[c.position] = c.event;
        if (!plan_.HoldsFlat(check, by_pos_.data())) return false;
        continue;
      }
      const Binding& binding = Materialize(c);
      if (check.aligned() && !AlignedLengths(check, binding)) continue;
      if (!check.condition->Eval(binding)) return false;
    }
    return true;
  }

  /// Emits the candidate's match if it is complete and valid. Conditions
  /// with variables were tested when their last variable was bound; only
  /// the plan's emission checks are re-evaluated.
  void MaybeEmit(const Record& c) {
    if (c.mask != full_mask_) return;
    // Kleene positions must have reached their minimum absorption.
    for (uint64_t m = kleene_mask_; m != 0; m &= m - 1) {
      const uint32_t p = static_cast<uint32_t>(std::countr_zero(m));
      const size_t len = CountInChain(c.parent, p) + (c.position == p);
      if (len < plan_.positions[p].min_reps * (c.reps + 1)) return;
    }
    if (plan_.group_repeat && c.reps + 1 < plan_.group_min_reps) return;
    for (const Condition* condition : plan_.emission_checks) {
      if (!condition->Eval(Materialize(c))) return;
    }
    // The chain's ids, collected newest first, and its window span. A
    // full chain holds at least one event per position.
    std::vector<EventId> ids;
    ids.reserve(plan_.num_positions());
    ids.push_back(c.event->id);
    EventId lo_id = c.event->id, hi_id = c.event->id;
    double lo_ts = c.event->timestamp, hi_ts = c.event->timestamp;
    for (uint32_t i = c.parent; i != kNoParent; i = records_[i].parent) {
      const Event* e = records_[i].event;
      ids.push_back(e->id);
      lo_id = std::min(lo_id, e->id);
      hi_id = std::max(hi_id, e->id);
      lo_ts = std::min(lo_ts, e->timestamp);
      hi_ts = std::max(hi_ts, e->timestamp);
    }
    if (window_.kind == WindowKind::kCount
            ? hi_id - lo_id > static_cast<EventId>(window_.count_size()) - 1
            : hi_ts - lo_ts > window_.size) {
      return;
    }
    if (!plan_.negs.empty() &&
        ViolatesNegation(plan_, Materialize(c), events_)) {
      return;
    }
    ++stats_->matches_emitted;
    std::reverse(ids.begin(), ids.end());
    out_->Insert(Match(std::move(ids)));
  }

  /// Points by_pos_ at the events of the chain ending at `index`.
  void LoadChain(uint32_t index) {
    if (index == loaded_) return;
    for (uint32_t i = index; i != kNoParent; i = records_[i].parent) {
      by_pos_[records_[i].position] = records_[i].event;
    }
    loaded_ = index;
  }

  size_t CountInChain(uint32_t index, uint32_t position) const {
    size_t count = 0;
    for (uint32_t i = index; i != kNoParent; i = records_[i].parent) {
      count += records_[i].position == position;
    }
    return count;
  }

  /// The candidate's assignment as a Binding (built once per candidate).
  const Binding& Materialize(const Record& c) {
    if (binding_for_ == &c) return binding_;
    for (auto& slot : binding_.slots) slot.clear();
    // Newest first along the chain, then each list into arrival order.
    binding_.Bind(plan_.positions[c.position].var, c.event);
    for (uint32_t i = c.parent; i != kNoParent; i = records_[i].parent) {
      binding_.Bind(plan_.positions[records_[i].position].var,
                    records_[i].event);
    }
    for (auto& slot : binding_.slots) std::reverse(slot.begin(), slot.end());
    binding_for_ = &c;
    return binding_;
  }

  bool AlignedLengths(const PositionCheck& check,
                      const Binding& binding) const {
    size_t len = 0;
    bool first = true;
    for (uint64_t m = check.kleene; m != 0; m &= m - 1) {
      const VarId v = plan_.positions[std::countr_zero(m)].var;
      const size_t n = binding.Of(v).size();
      if (!first && n != len) return false;
      len = n;
      first = false;
    }
    return true;
  }

  const LinearPlan& plan_;
  const WindowSpec& window_;
  std::span<const Event> events_;
  EngineStats* stats_;
  MatchSet* out_;
  EngineBudget* budget_;
  const uint64_t full_mask_;
  uint64_t kleene_mask_ = 0;

  std::vector<Record> records_;
  size_t stored_before_ = 0;
  std::vector<uint32_t> remap_;  ///< old index -> compacted index

  std::vector<const Event*> by_pos_;  ///< flat checks' events by position
  uint32_t loaded_ = kNothingLoaded;  ///< chain by_pos_ was loaded from
  Binding binding_;                   ///< fallback / emission binding
  const Record* binding_for_ = nullptr;
};

}  // namespace

Status NfaEngine::Evaluate(std::span<const Event> events, MatchSet* out) {
  return EvaluatePlans(
      events, out, options_, plans_.size(),
      [&](size_t i, MatchSet* sink, EngineBudget* budget) {
        NfaRun(plans_[i], pattern_, events, &stats_, sink, budget).Run();
      });
}

}  // namespace dlacep
