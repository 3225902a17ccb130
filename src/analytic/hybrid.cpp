#include "analytic/hybrid.hpp"

#include <algorithm>
#include <map>
#include <sstream>

namespace noc {

namespace {

/** Everything that identifies a latency-vs-load curve except the load
 *  and the scheme (schemes are compared for crossovers). */
std::string
familyKey(const HybridPoint &p)
{
    std::ostringstream os;
    os << toString(p.cfg.topology) << '/' << p.cfg.meshWidth << 'x'
       << p.cfg.meshHeight << 'c' << p.cfg.concentration << '/'
       << toString(p.cfg.routing) << '/' << toString(p.cfg.vaPolicy) << '/'
       << p.cfg.numVcs << '/' << p.cfg.bufferDepth << '/'
       << p.cfg.pcHistoryDepth << '/' << toString(p.pattern) << '/'
       << p.packetSize << '/' << p.cfg.seed;
    return os.str();
}

struct Curve
{
    int scheme = 0;
    std::string family;
    std::vector<int> points;   ///< indices into the input, load-ascending
};

} // namespace

int
HybridPlan::detailedCount() const
{
    return static_cast<int>(
        std::count(detailed.begin(), detailed.end(), true));
}

HybridPlan
planHybridSweep(const std::vector<HybridPoint> &points,
                AnalyticNetworkModel &model)
{
    HybridPlan plan;
    plan.estimates.reserve(points.size());
    plan.detailed.assign(points.size(), false);
    for (const HybridPoint &p : points) {
        ModelRequest req;
        req.cfg = p.cfg;
        req.pattern = p.pattern;
        req.load = p.load;
        req.packetSize = p.packetSize;
        plan.estimates.push_back(model.estimate(req));
    }
    if (points.empty())
        return plan;

    // Group the points into curves, preserving first-seen order.
    std::vector<Curve> curves;
    std::map<std::pair<std::string, int>, int> curveOf;
    for (int i = 0; i < static_cast<int>(points.size()); ++i) {
        const std::pair<std::string, int> key{
            familyKey(points[i]), static_cast<int>(points[i].cfg.scheme)};
        auto it = curveOf.find(key);
        if (it == curveOf.end()) {
            it = curveOf.emplace(key, static_cast<int>(curves.size())).first;
            curves.push_back({key.second, key.first, {}});
        }
        curves[it->second].points.push_back(i);
    }
    for (Curve &c : curves)
        std::stable_sort(c.points.begin(), c.points.end(),
                         [&](int a, int b) {
                             return points[a].load < points[b].load;
                         });

    // Candidate tiers: (tier, input index), lower tier = higher
    // priority. Duplicate indices collapse on selection.
    std::vector<std::pair<int, int>> candidates;
    for (const Curve &c : curves) {
        const double anchor = plan.estimates[c.points.front()].netLatency;
        int knee = -1;
        for (int k = 0; k < static_cast<int>(c.points.size()); ++k) {
            const ModelEstimate &e = plan.estimates[c.points[k]];
            if (e.saturated || e.netLatency >= kKneeFactor * anchor) {
                knee = k;
                break;
            }
        }
        if (knee < 0)
            knee = static_cast<int>(c.points.size()) - 1;
        candidates.emplace_back(0, c.points[knee]);
        if (knee > 0)
            candidates.emplace_back(1, c.points[knee - 1]);
        candidates.emplace_back(3, c.points.front());
    }

    // Scheme crossovers: within one family, whenever two schemes'
    // predicted curves swap order between adjacent loads, both points
    // of both schemes bracket a crossover worth measuring.
    std::map<std::string, std::vector<const Curve *>> families;
    for (const Curve &c : curves)
        families[c.family].push_back(&c);
    for (const auto &[family, group] : families) {
        for (std::size_t a = 0; a < group.size(); ++a) {
            for (std::size_t b = a + 1; b < group.size(); ++b) {
                const std::vector<int> &pa = group[a]->points;
                const std::vector<int> &pb = group[b]->points;
                const std::size_t n = std::min(pa.size(), pb.size());
                for (std::size_t k = 1; k < n; ++k) {
                    const double prev =
                        plan.estimates[pa[k - 1]].netLatency -
                        plan.estimates[pb[k - 1]].netLatency;
                    const double cur = plan.estimates[pa[k]].netLatency -
                                       plan.estimates[pb[k]].netLatency;
                    if (prev * cur < 0.0) {
                        candidates.emplace_back(2, pa[k]);
                        candidates.emplace_back(2, pb[k]);
                    }
                }
            }
        }
    }

    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const auto &x, const auto &y) {
                         return x.first < y.first;
                     });

    const int budget = std::max(
        1, static_cast<int>(points.size() * kDetailedFraction));
    int picked = 0;
    for (const auto &[tier, index] : candidates) {
        if (picked >= budget)
            break;
        if (plan.detailed[index])
            continue;
        plan.detailed[index] = true;
        ++picked;
    }
    return plan;
}

} // namespace noc
