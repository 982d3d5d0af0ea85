#include "cep/tree_engine.h"

#include <algorithm>
#include <bit>
#include <functional>

namespace dlacep {

TreeEngine::TreeEngine(Pattern pattern, EngineOptions options)
    : pattern_(std::move(pattern)),
      options_(options),
      scratch_(pattern_.num_vars()) {}

StatusOr<std::unique_ptr<TreeEngine>> TreeEngine::Create(
    const Pattern& pattern, const EngineOptions& options) {
  std::unique_ptr<TreeEngine> engine(new TreeEngine(pattern, options));
  auto plans = CompilePlans(engine->pattern_);
  if (!plans.ok()) return plans.status();
  engine->plans_ = std::move(plans).value();
  for (const LinearPlan& plan : engine->plans_) {
    if (plan.group_repeat || !plan.negs.empty()) {
      return Status::Unimplemented(
          "tree engine supports SEQ/CONJ/DISJ of primitives only");
    }
    if (std::any_of(plan.positions.begin(), plan.positions.end(),
                    [](const PlanPosition& pos) { return pos.kleene; })) {
      return Status::Unimplemented(
          "tree engine does not support Kleene closure");
    }
  }
  engine->trees_.resize(engine->plans_.size());
  return engine;
}

namespace {

// Statistics sampling for the plan search: sample size and seed.
constexpr size_t kSelectivitySamples = 1000;
constexpr uint64_t kSelectivitySeed = 42;

// Mask of positions [lo, hi].
uint64_t RangeMask(size_t lo, size_t hi) {
  return (~uint64_t{0} >> (63 - hi)) & (~uint64_t{0} << lo);
}

}  // namespace

void TreeEngine::BuildTree(const LinearPlan& plan,
                           const PlanStatistics& stats, double window,
                           PlanTree* tree) const {
  const TreePrice price = PriceTree(stats, window, plan.ordered());

  // Materialize the tree bottom-up. Each check is taken once, under its
  // last position, and tested at the lowest node holding all its
  // positions: the node whose children each lack one of them.
  std::function<int(size_t, size_t)> build = [&](size_t lo,
                                                 size_t hi) -> int {
    TreeNode node;
    node.lo = lo;
    node.hi = hi;
    uint64_t left_mask = 0;
    uint64_t right_mask = 0;
    if (lo != hi) {
      const size_t k = price.split[lo][hi];
      node.left = build(lo, k);
      node.right = build(k + 1, hi);
      left_mask = RangeMask(lo, k);
      right_mask = RangeMask(k + 1, hi);
    }
    const uint64_t mask = RangeMask(lo, hi);
    for (size_t p = lo; p <= hi; ++p) {
      for (const PositionCheck& check : plan.checks[p]) {
        const uint64_t needs = check.needs;
        if (static_cast<size_t>(63 - std::countl_zero(needs)) != p ||
            (needs & ~mask) != 0 || (needs & ~left_mask) == 0 ||
            (needs & ~right_mask) == 0) {
          continue;
        }
        node.checks.push_back(check);
      }
    }
    tree->push_back(std::move(node));
    return static_cast<int>(tree->size() - 1);
  };
  build(0, plan.num_positions() - 1);
}

bool TreeEngine::Passes(const LinearPlan& plan,
                        const std::vector<PositionCheck>& checks,
                        const Item& item) {
  for (const PositionCheck& check : checks) {
    if (check.is_flat()) {
      if (!plan.HoldsFlat(check, item.by_pos.data())) return false;
      continue;
    }
    for (auto& slot : scratch_.slots) slot.clear();
    for (size_t p = 0; p < plan.num_positions(); ++p) {
      if (item.by_pos[p] != nullptr) {
        scratch_.Bind(plan.positions[p].var, item.by_pos[p]);
      }
    }
    if (!check.condition->Eval(scratch_)) return false;
  }
  return true;
}

std::vector<TreeEngine::Item> TreeEngine::EvalNode(
    const LinearPlan& plan, const PlanTree& tree, int node_index,
    std::span<const Event> events, EngineBudget* budget) {
  const TreeNode& node = tree[static_cast<size_t>(node_index)];
  const WindowSpec& window = pattern_.window();
  std::vector<Item> out;
  // Every leaf candidate and join probe is one transition; it is either
  // pruned or stored, so transitions == partial_matches +
  // partial_matches_pruned. Returns false once the budget is exceeded.
  auto admit = [&](Item item, bool fits) {
    ++stats_.transitions;
    if (!fits || !Passes(plan, node.checks, item)) {
      ++stats_.partial_matches_pruned;
      return true;
    }
    ++stats_.partial_matches;
    if (!budget->OnPartialMatch()) return false;
    out.push_back(std::move(item));
    return true;
  };

  if (node.lo == node.hi) {
    const PlanPosition& pos = plan.positions[node.lo];
    for (const Event& e : events) {
      if (!pos.Matches(e.type)) continue;
      Item item{std::vector<const Event*>(plan.num_positions(), nullptr),
                e.id, e.id, e.timestamp, e.timestamp};
      item.by_pos[node.lo] = &e;
      if (!admit(std::move(item), true)) break;
    }
    return out;
  }

  const auto left = EvalNode(plan, tree, node.left, events, budget);
  if (budget->exceeded()) return out;
  std::vector<Item> right = EvalNode(plan, tree, node.right, events, budget);
  if (budget->exceeded()) return out;

  // The window join: right items sorted by start (first id for a count
  // window, earliest timestamp for a time window), and a left item
  // probes only those starting in [its end − W, its start + W]. The
  // bounds use the exact check's comparisons (floating-point subtraction
  // is monotone), so they skip only pairs that check would reject.
  const bool by_id = window.kind == WindowKind::kCount;
  const EventId w = static_cast<EventId>(window.count_size()) - 1;
  std::sort(right.begin(), right.end(), [by_id](const Item& a, const Item& b) {
    return by_id ? a.min_id < b.min_id : a.min_ts < b.min_ts;
  });
  for (const Item& l : left) {
    auto it = std::partition_point(
        right.begin(), right.end(), [&](const Item& r) {
          return by_id ? l.max_id > r.min_id && l.max_id - r.min_id > w
                       : l.max_ts - r.min_ts > window.size;
        });
    const auto end = std::partition_point(it, right.end(), [&](const Item& r) {
      return by_id ? r.min_id <= l.min_id || r.min_id - l.min_id <= w
                   : !(r.min_ts - l.min_ts > window.size);
    });
    for (; it != end; ++it) {
      const Item& r = *it;
      if (!budget->OnWork()) return out;
      if (plan.ordered() && l.max_id >= r.min_id) {
        ++stats_.transitions;
        ++stats_.partial_matches_pruned;
        continue;
      }
      Item item{l.by_pos, std::min(l.min_id, r.min_id),
                std::max(l.max_id, r.max_id), std::min(l.min_ts, r.min_ts),
                std::max(l.max_ts, r.max_ts)};
      bool fits = by_id ? item.max_id - item.min_id <= w
                        : item.max_ts - item.min_ts <= window.size;
      // Distinctness (relevant for unordered CONJ joins): every position
      // must contribute its own event.
      for (size_t p = tree[static_cast<size_t>(node.left)].hi + 1;
           p <= node.hi; ++p) {
        fits = fits && std::find(l.by_pos.begin(), l.by_pos.end(),
                                 r.by_pos[p]) == l.by_pos.end();
        item.by_pos[p] = r.by_pos[p];
      }
      if (!admit(std::move(item), fits)) return out;
    }
  }
  return out;
}

void TreeEngine::EvaluatePlan(size_t plan_index, std::span<const Event> events,
                              std::vector<Match>* out, EngineBudget* budget) {
  const LinearPlan& plan = plans_[plan_index];
  const PlanTree& tree = trees_[plan_index];
  std::vector<Item> items = EvalNode(
      plan, tree, static_cast<int>(tree.size()) - 1, events, budget);
  if (budget->exceeded()) return;
  // Conditions with positions were tested at their nodes. The rest, the
  // emission checks, reference no variable (the plan has no Kleene
  // position), so they hold for every match or for none.
  const Binding unbound(pattern_.num_vars());
  for (const Condition* condition : plan.emission_checks) {
    if (!condition->Eval(unbound)) return;
  }
  for (const Item& item : items) {
    ++stats_.matches_emitted;
    std::vector<EventId> ids;
    for (const Event* e : item.by_pos) ids.push_back(e->id);
    out->push_back(Match(std::move(ids)));
  }
}

Status TreeEngine::Evaluate(std::span<const Event> events, MatchSet* out) {
  if (!trees_built_) {
    // ZStream derives its plan from workload statistics; sample them from
    // the first evaluated span. The build counts toward elapsed time.
    Stopwatch watch;
    const double window = WindowEvents(pattern_.window(), events);
    for (size_t i = 0; i < plans_.size(); ++i) {
      const PlanStatistics stats = EstimatePlanStatistics(
          plans_[i], events, kSelectivitySeed, kSelectivitySamples);
      BuildTree(plans_[i], stats, window, &trees_[i]);
    }
    trees_built_ = true;
    stats_.elapsed_seconds += watch.ElapsedSeconds();
  }
  return EvaluatePlans(
      events, out, options_, plans_.size(),
      [&](size_t i, std::vector<Match>* found, EngineBudget* budget) {
        EvaluatePlan(i, events, found, budget);
      });
}

std::string TreeEngine::PlanTreeString(size_t plan_index) const {
  DLACEP_CHECK_LT(plan_index, trees_.size());
  const PlanTree& tree = trees_[plan_index];
  if (tree.empty()) return "<unbuilt>";
  std::string out;
  std::function<void(int)> render = [&](int index) {
    const TreeNode& node = tree[static_cast<size_t>(index)];
    if (node.lo == node.hi) {
      out += std::to_string(node.lo);
      return;
    }
    out += '(';
    render(node.left);
    out += ' ';
    render(node.right);
    out += ')';
  };
  render(static_cast<int>(tree.size()) - 1);
  return out;
}

}  // namespace dlacep
