// The ACEP problem formalization (paper §3) as executable artifacts: the
// weighted objective function of Definition (3) and the Φ(W, R, SEL)
// complexity model of §3.2 used to predict when filtration-based ACEP
// beats exact CEP.

#ifndef DLACEP_DLACEP_ACEP_H_
#define DLACEP_DLACEP_ACEP_H_

#include <vector>

#include "cep/match.h"
#include "pattern/selectivity.h"

namespace dlacep {

/// The example objective of §3.1:
///   F = −w1 · |M ∩ M'| / |M ∪ M'|  −  w2 · t' / t
/// where t'/t is the ACEP-over-ECEP throughput ratio. Lower is better;
/// w1 + w2 must equal 1.
double AcepObjective(const MatchSet& exact, const MatchSet& approx,
                     double throughput_ratio, double w1, double w2);

/// Φ(W, R, SEL): the expected number of partial matches of all sizes
/// (1..n-1) plus full matches (size n) inside a count window of size W,
/// given per-position arrival rates r_i (events per stream event) and
/// pairwise predicate selectivities sel_{k,t}:
///   Φ = Σ_{i=1..n}  W^i · Π_{k≤i} r_k · Π_{k≤t≤i} sel_{k,t},
/// the plan-cost model's OrderPrice of the chain order, unordered.
double PhiExpectedPartialMatches(size_t window,
                                 const std::vector<double>& rates,
                                 const std::vector<std::vector<double>>& sel);

/// C_ECEP for a plan over a stream sample: Φ with sampled statistics.
double EstimateEcepCost(const LinearPlan& plan,
                        std::span<const Event> sample, size_t window,
                        uint64_t seed);

/// C_ACEP = Φ(W, R_Ψ, SEL) + C_filter, where Ψ_i is the expected
/// filtering ratio of position i's type and `filter_cost` is the
/// (window-size-linear) filtration term.
double EstimateAcepCost(const LinearPlan& plan,
                        std::span<const Event> sample, size_t window,
                        const std::vector<double>& keep_ratio,
                        double filter_cost, uint64_t seed);

}  // namespace dlacep

#endif  // DLACEP_DLACEP_ACEP_H_
