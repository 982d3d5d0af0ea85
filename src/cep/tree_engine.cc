#include "cep/tree_engine.h"

#include <algorithm>
#include <functional>
#include <set>
#include <sstream>

namespace dlacep {

TreeEngine::TreeEngine(Pattern pattern, EngineOptions options)
    : pattern_(std::move(pattern)), options_(options) {}

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
    for (const PlanPosition& pos : plan.positions) {
      if (pos.kleene) {
        return Status::Unimplemented(
            "tree engine does not support Kleene closure");
      }
    }
  }
  engine->trees_.resize(engine->plans_.size());
  return engine;
}

namespace {

// Statistics sampling for the plan search: sample size and seed.
constexpr size_t kSelectivitySamples = 1000;
constexpr uint64_t kSelectivitySeed = 42;

// Variables covered by positions [lo, hi] of a plan.
std::set<VarId> VarsOf(const LinearPlan& plan, size_t lo, size_t hi) {
  std::set<VarId> vars;
  for (size_t i = lo; i <= hi; ++i) vars.insert(plan.positions[i].var);
  return vars;
}

bool Subset(const std::vector<VarId>& needles, const std::set<VarId>& hay) {
  for (VarId v : needles) {
    if (hay.find(v) == hay.end()) return false;
  }
  return true;
}

}  // namespace

void TreeEngine::BuildTree(const LinearPlan& plan,
                           const PlanStatistics& stats, double window,
                           PlanTree* tree) const {
  const TreePrice price = PriceTree(stats, window, plan.ordered());

  // Materialize the tree bottom-up and attach conditions at the lowest
  // node where all their variables are available.
  std::function<int(size_t, size_t)> build = [&](size_t lo,
                                                 size_t hi) -> int {
    TreeNode node;
    node.lo = lo;
    node.hi = hi;
    if (lo != hi) {
      const size_t k = price.split[lo][hi];
      node.left = build(lo, k);
      node.right = build(k + 1, hi);
    }
    const std::set<VarId> here = VarsOf(plan, lo, hi);
    for (const Condition* condition : plan.pos_conditions) {
      if (!Subset(condition->Vars(), here)) continue;
      if (lo != hi) {
        const TreeNode& left = tree->nodes[static_cast<size_t>(node.left)];
        const TreeNode& right =
            tree->nodes[static_cast<size_t>(node.right)];
        if (Subset(condition->Vars(), VarsOf(plan, left.lo, left.hi)) ||
            Subset(condition->Vars(), VarsOf(plan, right.lo, right.hi))) {
          continue;  // already checked below
        }
      }
      node.conditions.push_back(condition);
    }
    tree->nodes.push_back(std::move(node));
    return static_cast<int>(tree->nodes.size() - 1);
  };
  tree->root = build(0, plan.num_positions() - 1);
}

std::vector<TreeEngine::Item> TreeEngine::EvalNode(
    const LinearPlan& plan, const PlanTree& tree, int node_index,
    std::span<const Event> events, EngineBudget* budget) {
  const TreeNode& node = tree.nodes[static_cast<size_t>(node_index)];
  const WindowSpec& window = pattern_.window();
  std::vector<Item> out;

  auto fits_window = [&](const Item& item) {
    if (window.kind == WindowKind::kCount) {
      return item.max_id - item.min_id <=
             static_cast<EventId>(window.count_size()) - 1;
    }
    return item.max_ts - item.min_ts <= window.size;
  };

  if (node.lo == node.hi) {
    const PlanPosition& pos = plan.positions[node.lo];
    for (const Event& e : events) {
      if (!pos.Matches(e.type)) continue;
      // Each type-matching leaf candidate is one transition; it either
      // prunes on its leaf conditions or becomes a stored item, so
      // transitions == partial_matches + partial_matches_pruned holds
      // for the tree engine with transitions counting leaf candidates
      // plus join probes.
      ++stats_.transitions;
      Item item;
      item.binding = Binding(pattern_.num_vars());
      item.binding.Bind(pos.var, &e);
      item.min_id = item.max_id = e.id;
      item.min_ts = item.max_ts = e.timestamp;
      bool pass = true;
      for (const Condition* condition : node.conditions) {
        if (!condition->Eval(item.binding)) {
          pass = false;
          break;
        }
      }
      if (!pass) {
        ++stats_.partial_matches_pruned;
        continue;
      }
      ++stats_.partial_matches;
      if (!budget->OnPartialMatch()) return out;
      out.push_back(std::move(item));
    }
    return out;
  }

  const std::vector<Item> left =
      EvalNode(plan, tree, node.left, events, budget);
  if (budget->exceeded()) return out;
  const std::vector<Item> right =
      EvalNode(plan, tree, node.right, events, budget);
  if (budget->exceeded()) return out;
  const size_t merged_positions = node.hi - node.lo + 1;

  for (const Item& l : left) {
    if (budget->exceeded()) return out;
    for (const Item& r : right) {
      if (!budget->OnWork()) return out;
      // Every join probe is one transition; every rejection below is a
      // prune, keeping the work identity exact for join nodes too.
      ++stats_.transitions;
      if (plan.ordered() && l.max_id >= r.min_id) {
        ++stats_.partial_matches_pruned;
        continue;
      }
      Item item;
      item.min_id = std::min(l.min_id, r.min_id);
      item.max_id = std::max(l.max_id, r.max_id);
      item.min_ts = std::min(l.min_ts, r.min_ts);
      item.max_ts = std::max(l.max_ts, r.max_ts);
      if (!fits_window(item)) {
        ++stats_.partial_matches_pruned;
        continue;
      }
      item.binding = l.binding;
      for (size_t v = 0; v < r.binding.slots.size(); ++v) {
        for (const Event* e : r.binding.slots[v]) {
          item.binding.Bind(static_cast<VarId>(v), e);
        }
      }
      // Distinctness (relevant for unordered CONJ joins): every position
      // must contribute its own event.
      if (!plan.ordered() &&
          MatchFromBinding(item.binding).ids.size() != merged_positions) {
        ++stats_.partial_matches_pruned;
        continue;
      }
      bool pass = true;
      for (const Condition* condition : node.conditions) {
        if (!condition->Eval(item.binding)) {
          pass = false;
          break;
        }
      }
      if (!pass) {
        ++stats_.partial_matches_pruned;
        continue;
      }
      ++stats_.partial_matches;
      if (!budget->OnPartialMatch()) return out;
      out.push_back(std::move(item));
    }
  }
  return out;
}

void TreeEngine::EvaluatePlan(size_t plan_index,
                              std::span<const Event> events,
                              std::vector<Match>* out,
                              EngineBudget* budget) {
  const LinearPlan& plan = plans_[plan_index];
  const PlanTree& tree = trees_[plan_index];
  std::vector<Item> items = EvalNode(plan, tree, tree.root, events, budget);
  if (budget->exceeded()) return;
  for (const Item& item : items) {
    bool pass = true;
    for (const Condition* condition : plan.pos_conditions) {
      if (!condition->Eval(item.binding)) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    ++stats_.matches_emitted;
    out->push_back(MatchFromBinding(item.binding));
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
  if (tree.root < 0) return "<unbuilt>";
  std::function<void(int, std::ostringstream&)> render =
      [&](int index, std::ostringstream& os) {
        const TreeNode& node = tree.nodes[static_cast<size_t>(index)];
        if (node.lo == node.hi) {
          os << node.lo;
          return;
        }
        os << '(';
        render(node.left, os);
        os << ' ';
        render(node.right, os);
        os << ')';
      };
  std::ostringstream os;
  render(tree.root, os);
  return os.str();
}

}  // namespace dlacep
