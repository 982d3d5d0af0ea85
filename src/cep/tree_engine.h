// ZStream-style tree evaluation engine (Mei & Madden, SIGMOD'09) — one of
// the two state-of-the-art ECEP optimization baselines the paper compares
// against (Fig 12).
//
// The plan's positions become the leaves of a binary join tree, shaped by
// the plan-cost model's tree search (pattern/selectivity.h) over rates and
// selectivities sampled on the first evaluated span. Intermediate join
// results (one event per position of a node) are the partial matches.
//
// Each node tests the plan's compiled checks whose positions first all lie
// inside it; a complete match tests only the emission checks. Joins are
// window-constrained (Kolchinsky & Schuster, 1801.09413): a left item
// probes only the right items starting within W of it (by first id, or
// earliest timestamp for a time window), so a join's work follows the
// per-window |left|·|right| pairs the plan-cost model charges.
//
// Supported pattern class: DISJ branches of SEQ / CONJ over primitives
// (no KC, no NEG, no group repetition) — exactly the class ZStream
// handles and the class exercised by the paper's Fig 12 queries.

#ifndef DLACEP_CEP_TREE_ENGINE_H_
#define DLACEP_CEP_TREE_ENGINE_H_

#include <vector>

#include "cep/engine.h"
#include "pattern/selectivity.h"

namespace dlacep {

class TreeEngine : public CepEngine {
 public:
  static StatusOr<std::unique_ptr<TreeEngine>> Create(
      const Pattern& pattern, const EngineOptions& options);

  std::string name() const override { return "zstream-tree"; }

  Status Evaluate(std::span<const Event> events, MatchSet* out) override;

  /// The chosen join order for plan `plan_index`, rendered as a
  /// parenthesized expression over position indexes (for tests/logs).
  std::string PlanTreeString(size_t plan_index) const;

 private:
  TreeEngine(Pattern pattern, EngineOptions options);

  /// A node of the chosen binary join tree over positions [lo, hi].
  struct TreeNode {
    size_t lo = 0;
    size_t hi = 0;
    int left = -1;   ///< index into nodes, -1 for leaves
    int right = -1;
    /// The plan's checks whose positions first all lie in [lo, hi].
    std::vector<PositionCheck> checks;
  };

  /// Per-plan compiled tree, built bottom-up: the root is the last node.
  using PlanTree = std::vector<TreeNode>;

  /// An intermediate join result over one node's positions.
  struct Item {
    /// by_pos[p]: the event at plan position p, null outside the node.
    std::vector<const Event*> by_pos;
    EventId min_id = 0;
    EventId max_id = 0;
    double min_ts = 0.0;
    double max_ts = 0.0;
  };

  void BuildTree(const LinearPlan& plan, const PlanStatistics& stats,
                 double window, PlanTree* tree) const;
  std::vector<Item> EvalNode(const LinearPlan& plan, const PlanTree& tree,
                             int node_index, std::span<const Event> events,
                             EngineBudget* budget);
  /// Whether `item` passes `checks` (flat, else Eval on scratch_).
  bool Passes(const LinearPlan& plan,
              const std::vector<PositionCheck>& checks, const Item& item);
  void EvaluatePlan(size_t plan_index, std::span<const Event> events,
                    std::vector<Match>* out, EngineBudget* budget);

  Pattern pattern_;
  EngineOptions options_;
  std::vector<LinearPlan> plans_;
  std::vector<PlanTree> trees_;
  bool trees_built_ = false;
  Binding scratch_;  ///< the Condition::Eval fallback's binding
};

}  // namespace dlacep

#endif  // DLACEP_CEP_TREE_ENGINE_H_
