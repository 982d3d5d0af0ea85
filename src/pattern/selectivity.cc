#include "pattern/selectivity.h"

#include <algorithm>
#include <numeric>

#include "common/rng.h"

namespace dlacep {

namespace {

// Conditions whose variable set is exactly `vars` (as a sorted list).
std::vector<const Condition*> ConditionsOver(
    const LinearPlan& plan, std::vector<VarId> vars) {
  std::sort(vars.begin(), vars.end());
  std::vector<const Condition*> out;
  for (const Condition* condition : plan.pos_conditions) {
    std::vector<VarId> cvars = condition->Vars();
    std::sort(cvars.begin(), cvars.end());
    if (cvars == vars) out.push_back(condition);
  }
  return out;
}

// The fraction of `num_samples` random bindings of `positions` (one
// candidate each, drawn in order) that satisfy every condition over
// exactly their variables; 1 when no condition or no candidate exists.
double SampleSelectivity(
    const LinearPlan& plan, const std::vector<size_t>& positions,
    const std::vector<std::vector<const Event*>>& candidates,
    size_t num_samples, Rng* rng) {
  std::vector<VarId> vars;
  for (const size_t p : positions) {
    if (candidates[p].empty()) return 1.0;
    vars.push_back(plan.positions[p].var);
  }
  const auto conditions = ConditionsOver(plan, vars);
  if (conditions.empty()) return 1.0;
  size_t hit = 0;
  for (size_t s = 0; s < num_samples; ++s) {
    Binding binding(plan.pattern->num_vars());
    for (const size_t p : positions) {
      binding.Bind(plan.positions[p].var,
                   candidates[p][rng->Index(candidates[p].size())]);
    }
    hit += std::all_of(
        conditions.begin(), conditions.end(),
        [&](const Condition* condition) { return condition->Eval(binding); });
  }
  return static_cast<double>(hit) / static_cast<double>(num_samples);
}

}  // namespace

PlanStatistics EstimatePlanStatistics(const LinearPlan& plan,
                                      std::span<const Event> sample,
                                      uint64_t seed, size_t num_samples) {
  const size_t n = plan.num_positions();
  PlanStatistics stats;
  stats.rates.assign(n, 0.0);
  stats.pair_sel.assign(n, std::vector<double>(n, 1.0));
  if (sample.empty()) return stats;

  Rng rng(seed);

  // Candidate events per plan position.
  std::vector<std::vector<const Event*>> candidates(n);
  for (const Event& e : sample) {
    if (e.is_blank()) continue;
    for (size_t p = 0; p < n; ++p) {
      if (plan.positions[p].Matches(e.type)) {
        candidates[p].push_back(&e);
      }
    }
  }

  for (size_t i = 0; i < n; ++i) {
    stats.rates[i] = static_cast<double>(candidates[i].size()) /
                     static_cast<double>(sample.size());
  }

  for (size_t i = 0; i < n; ++i) {
    stats.pair_sel[i][i] =
        SampleSelectivity(plan, {i}, candidates, num_samples, &rng);
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      stats.pair_sel[i][j] = stats.pair_sel[j][i] =
          SampleSelectivity(plan, {i, j}, candidates, num_samples, &rng);
    }
  }
  return stats;
}

std::vector<double> PositionRates(
    const LinearPlan& plan,
    std::span<const std::pair<int32_t, double>> counts) {
  double total = 0.0;
  for (const auto& [type, count] : counts) total += count;
  std::vector<double> rates(plan.num_positions(), 0.0);
  if (total <= 0.0) return rates;
  for (size_t p = 0; p < plan.num_positions(); ++p) {
    for (const auto& [type, count] : counts) {
      if (plan.positions[p].Matches(type)) rates[p] += count;
    }
    rates[p] /= total;
  }
  return rates;
}

std::vector<size_t> RarestFirstOrder(std::span<const double> weights) {
  std::vector<size_t> order(weights.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return weights[a] < weights[b];
  });
  return order;
}

double WindowEvents(const WindowSpec& window,
                    std::span<const Event> events) {
  if (window.kind == WindowKind::kCount) return std::max(1.0, window.size);
  const double span = static_cast<double>(events.size());
  const double extent =
      events.empty() ? 0.0 : events.back().timestamp - events.front().timestamp;
  return std::max(
      1.0, extent > 0.0 ? std::min(span, span / extent * window.size) : span);
}

double PartialMatchCardinality(const PlanStatistics& stats, double window,
                               std::span<const size_t> positions,
                               bool ordered) {
  double card = 1.0;
  for (size_t a = 0; a < positions.size(); ++a) {
    const size_t k = positions[a];
    card *= window * stats.rates[k] * stats.pair_sel[k][k];
    for (size_t b = a + 1; b < positions.size(); ++b) {
      card *= stats.pair_sel[k][positions[b]];
    }
    if (ordered) card /= static_cast<double>(a + 1);
  }
  return card;
}

double OrderPrice(const PlanStatistics& stats, double window,
                  std::span<const size_t> order, bool ordered) {
  double price = 0.0;
  for (size_t i = 1; i <= order.size(); ++i) {
    price += PartialMatchCardinality(stats, window, order.first(i), ordered);
  }
  return price;
}

TreePrice PriceTree(const PlanStatistics& stats, double window,
                    bool ordered) {
  const size_t n = stats.rates.size();
  TreePrice price;
  if (n == 0) return price;
  // Per interval [i, j]: its cardinality, the summed node cardinality of
  // its best tree (the search objective), and that tree's join probes.
  std::vector<std::vector<double>> card(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    std::vector<size_t> positions;
    for (size_t j = i; j < n; ++j) {
      positions.push_back(j);
      card[i][j] = PartialMatchCardinality(stats, window, positions, ordered);
    }
  }
  std::vector<std::vector<double>> nodes = card;
  std::vector<std::vector<double>> probes(n, std::vector<double>(n, 0.0));
  price.split.assign(n, std::vector<size_t>(n, 0));
  for (size_t len = 2; len <= n; ++len) {
    for (size_t i = 0; i + len - 1 < n; ++i) {
      const size_t j = i + len - 1;
      size_t& best = price.split[i][j];
      best = i;
      for (size_t k = i + 1; k < j; ++k) {
        if (nodes[i][k] + nodes[k + 1][j] <
            nodes[i][best] + nodes[best + 1][j]) {
          best = k;
        }
      }
      nodes[i][j] += nodes[i][best] + nodes[best + 1][j];
      probes[i][j] = probes[i][best] + probes[best + 1][j] +
                     card[i][best] * card[best + 1][j];
    }
  }
  price.cost = nodes[0][n - 1] + probes[0][n - 1];
  return price;
}

}  // namespace dlacep
