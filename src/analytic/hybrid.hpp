/**
 * @file
 * Hybrid-fidelity sweep planning.
 *
 * A figure sweep is a grid of latency-vs-load curves (one per scheme /
 * routing / platform combination). Most grid points are boring: well
 * below saturation the analytical model tracks the detailed simulator
 * within its calibrated bound, and well past it every curve is a
 * vertical wall. The information lives on the *frontier* — the
 * saturation knee of each curve and the loads where two schemes'
 * curves cross. The hybrid planner screens every point analytically,
 * then spends the cycle-accurate budget (<= 1/5 of the points, the
 * acceptance bar) on exactly that frontier, in priority order:
 * knees first, then the points just before them, then scheme
 * crossovers, then per-curve low-load anchors.
 */

#ifndef NOC_ANALYTIC_HYBRID_HPP
#define NOC_ANALYTIC_HYBRID_HPP

#include <vector>

#include "analytic/analytic_model.hpp"
#include "analytic/network_model.hpp"

namespace noc {

/** One sweep point the planner can reason about. */
struct HybridPoint
{
    SimConfig cfg;
    SyntheticPattern pattern = SyntheticPattern::UniformRandom;
    double load = 0.0;
    int packetSize = 5;
};

/** The planner's verdict over one sweep. */
struct HybridPlan
{
    /// Analytic screen of every point, in input order.
    std::vector<ModelEstimate> estimates;
    /// True where the point must run cycle-accurately.
    std::vector<bool> detailed;

    int detailedCount() const;
};

/**
 * Latency growth over a curve's lowest-load point that marks the
 * saturation knee for planning purposes.
 */
inline constexpr double kKneeFactor = 1.75;

/** Share of a hybrid sweep's points allowed to run cycle-accurately. */
inline constexpr double kDetailedFraction = 0.2;

/**
 * Screen `points` with `model` and pick the detailed frontier. At most
 * max(1, floor(points.size() * kDetailedFraction)) points are marked
 * detailed; selection and ordering are deterministic functions of the
 * input order.
 */
HybridPlan planHybridSweep(const std::vector<HybridPoint> &points,
                           AnalyticNetworkModel &model);

} // namespace noc

#endif // NOC_ANALYTIC_HYBRID_HPP
