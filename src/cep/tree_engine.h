// ZStream-style tree evaluation engine (Mei & Madden, SIGMOD'09) — one of
// the two state-of-the-art ECEP optimization baselines the paper compares
// against (Fig 12).
//
// The plan's positions become the leaves of a binary join tree, shaped by
// the plan-cost model's tree search (pattern/selectivity.h) over rates and
// selectivities sampled on the first evaluated span. Intermediate join
// results are the engine's partial matches.
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
    int left = -1;   ///< index into nodes_, -1 for leaves
    int right = -1;
    /// Conditions first fully evaluable at this node.
    std::vector<const Condition*> conditions;
  };

  /// Per-plan compiled tree.
  struct PlanTree {
    std::vector<TreeNode> nodes;  ///< nodes_[root] is the last entry
    int root = -1;
  };

  /// An intermediate join result: events for positions [lo, hi].
  struct Item {
    Binding binding;
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
  void EvaluatePlan(size_t plan_index, std::span<const Event> events,
                    std::vector<Match>* out, EngineBudget* budget);

  Pattern pattern_;
  EngineOptions options_;
  std::vector<LinearPlan> plans_;
  std::vector<PlanTree> trees_;
  bool trees_built_ = false;
};

}  // namespace dlacep

#endif  // DLACEP_CEP_TREE_ENGINE_H_
