#include "dlacep/acep.h"

#include <cmath>
#include <numeric>

namespace dlacep {

double AcepObjective(const MatchSet& exact, const MatchSet& approx,
                     double throughput_ratio, double w1, double w2) {
  DLACEP_CHECK_GE(w1, 0.0);
  DLACEP_CHECK_GE(w2, 0.0);
  DLACEP_CHECK_LE(std::abs(w1 + w2 - 1.0), 1e-9);
  const MatchSetMetrics metrics = CompareMatchSets(exact, approx);
  return -w1 * metrics.jaccard - w2 * throughput_ratio;
}

double PhiExpectedPartialMatches(
    size_t window, const std::vector<double>& rates,
    const std::vector<std::vector<double>>& sel) {
  DLACEP_CHECK_EQ(sel.size(), rates.size());
  std::vector<size_t> chain(rates.size());
  std::iota(chain.begin(), chain.end(), size_t{0});
  return OrderPrice(PlanStatistics{rates, sel}, static_cast<double>(window),
                    chain, /*ordered=*/false);
}

double EstimateEcepCost(const LinearPlan& plan,
                        std::span<const Event> sample, size_t window,
                        uint64_t seed) {
  const PlanStatistics stats = EstimatePlanStatistics(plan, sample, seed);
  return PhiExpectedPartialMatches(window, stats.rates, stats.pair_sel);
}

double EstimateAcepCost(const LinearPlan& plan,
                        std::span<const Event> sample, size_t window,
                        const std::vector<double>& keep_ratio,
                        double filter_cost, uint64_t seed) {
  PlanStatistics stats = EstimatePlanStatistics(plan, sample, seed);
  DLACEP_CHECK_EQ(keep_ratio.size(), stats.rates.size());
  for (size_t i = 0; i < stats.rates.size(); ++i) {
    DLACEP_CHECK_GE(keep_ratio[i], 0.0);
    DLACEP_CHECK_LE(keep_ratio[i], 1.0);
    stats.rates[i] *= keep_ratio[i];  // R_Ψ = (1 − Ψ_i)·r_i
  }
  return PhiExpectedPartialMatches(window, stats.rates, stats.pair_sel) +
         filter_cost;
}

}  // namespace dlacep
