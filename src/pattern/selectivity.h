// The plan-cost model: the rates R and selectivities SEL of the paper's
// §3.2 model, and the one cardinality every plan is priced with — the
// expected partial matches a set of positions forms in one window. After
// Kolchinsky & Schuster, an order-based plan (the NFA's chain, the lazy
// rarest-first chain) costs the sum over its prefixes, and a ZStream
// join tree the sum over its nodes plus the child pairs its joins probe.

#ifndef DLACEP_PATTERN_SELECTIVITY_H_
#define DLACEP_PATTERN_SELECTIVITY_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "pattern/plan.h"
#include "stream/window.h"

namespace dlacep {

/// Estimated workload statistics for one linear plan.
struct PlanStatistics {
  /// rates[i]: expected events per stream event matching position i's type
  /// (the r_i of §3.2).
  std::vector<double> rates;
  /// pair_sel[i][j] for i < j: estimated probability that a random
  /// (type-correct) event pair for positions i and j satisfies every
  /// condition whose variables are exactly {var_i, var_j}. Unconstrained
  /// pairs have selectivity 1. Symmetric entries mirror; diagonal holds
  /// the unary selectivity of position i.
  std::vector<std::vector<double>> pair_sel;
};

/// Estimates statistics by sampling `num_samples` random event
/// (pairs/singletons) per entry from `sample`. Deterministic given seed.
/// Positions whose type is absent from the sample get rate 0 and
/// selectivity 1.
PlanStatistics EstimatePlanStatistics(const LinearPlan& plan,
                                      std::span<const Event> sample,
                                      uint64_t seed,
                                      size_t num_samples = 2000);

/// Each position's arrival rate from a table of (type, count) entries:
/// the summed count of the types it accepts over the table's total.
std::vector<double> PositionRates(
    const LinearPlan& plan,
    std::span<const std::pair<int32_t, double>> counts);

/// Positions sorted by ascending weight, ties kept in position order:
/// the lazy engine's rarest-first chain order.
std::vector<size_t> RarestFirstOrder(std::span<const double> weights);

/// Expected events in one window over `events`. A count window holds
/// its count; a time window holds the span's event density (events per
/// time unit) times its length, capped at the span size. Never below 1:
/// a window holds at least the event it opens at.
double WindowEvents(const WindowSpec& window, std::span<const Event> events);

/// The expected number of partial matches that the positions in
/// `positions` form inside one window of `window` events:
///   W^|S| · Π_{k∈S} r_k · Π_{a≤b∈S} sel_ab,
/// divided by |S|! when the plan is `ordered` (SEQ: only one arrival
/// order of the events qualifies).
double PartialMatchCardinality(const PlanStatistics& stats, double window,
                               std::span<const size_t> positions,
                               bool ordered);

/// The summed cardinality of every prefix of `order`: the expected
/// partial matches of all sizes an order-based plan creates per window.
double OrderPrice(const PlanStatistics& stats, double window,
                  std::span<const size_t> order, bool ordered);

/// ZStream's tree plan: the join tree over contiguous position intervals
/// whose nodes, leaves included, hold the fewest expected partial matches.
struct TreePrice {
  /// Its expected work per window: its nodes' cardinalities plus each
  /// join's |left| · |right| probes (a join pairs everything its children
  /// hold; an order-based engine extends only within the window).
  double cost = 0.0;
  /// split[i][j] for i < j: the last position of the left subtree over
  /// positions [i, j].
  std::vector<std::vector<size_t>> split;
};

TreePrice PriceTree(const PlanStatistics& stats, double window,
                    bool ordered);

}  // namespace dlacep

#endif  // DLACEP_PATTERN_SELECTIVITY_H_
