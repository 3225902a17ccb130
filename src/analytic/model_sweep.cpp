#include "analytic/model_sweep.hpp"

#include <cmath>

#include "analytic/hybrid.hpp"
#include "common/log.hpp"

namespace noc {

SweepOutcome
analyticOutcome(const SweepJob &job, AnalyticNetworkModel &model)
{
    SweepOutcome out;
    out.label = job.label;
    out.cfg = job.cfg;
    out.attempts = 1;
    if (!job.analytic.valid) {
        out.error = "analytic model requires a synthetic workload spec";
        return out;
    }
    ModelRequest req;
    req.cfg = job.cfg;
    req.pattern = job.analytic.pattern;
    req.load = job.analytic.load;
    req.packetSize = job.analytic.packetSize;
    const ModelEstimate est = model.estimate(req);
    if (!est.ok) {
        out.error = "analytic model produced no estimate";
        return out;
    }
    out.ok = true;
    out.result.avgNetLatency = est.netLatency;
    out.result.avgTotalLatency = est.totalLatency;
    out.result.avgHops = est.hops;
    out.result.throughput = est.throughput;
    out.result.reusability = est.reusability;
    out.result.drained = !est.saturated;
    out.result.model.active = true;
    out.result.model.tag = "analytic";
    out.result.model.predictedNetLatency = est.netLatency;
    out.result.model.predictedTotalLatency = est.totalLatency;
    out.result.model.predictedSaturated = est.saturated;
    return out;
}

std::vector<SweepOutcome>
runModelSweep(const SweepRunner &runner, const std::vector<SweepJob> &jobs,
              const ModelSweepOptions &options)
{
    if (options.kind == ModelKind::Detailed)
        return runner.run(jobs);

    AnalyticNetworkModel model(options.calibration);

    if (options.kind == ModelKind::Analytic) {
        std::vector<SweepOutcome> outcomes;
        outcomes.reserve(jobs.size());
        for (const SweepJob &job : jobs)
            outcomes.push_back(analyticOutcome(job, model));
        return outcomes;
    }

    // Hybrid: screen everything, run the frontier. Jobs the model
    // cannot see (no AnalyticSpec) always run cycle-accurately and
    // don't consume the planner's budget.
    std::vector<int> planIndex(jobs.size(), -1);
    std::vector<HybridPoint> points;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!jobs[i].analytic.valid)
            continue;
        planIndex[i] = static_cast<int>(points.size());
        points.push_back({jobs[i].cfg, jobs[i].analytic.pattern,
                          jobs[i].analytic.load,
                          jobs[i].analytic.packetSize});
    }
    const HybridPlan plan = planHybridSweep(points, model);

    std::vector<SweepJob> detailedJobs;
    std::vector<std::size_t> detailedAt;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (planIndex[i] < 0 || plan.detailed[planIndex[i]]) {
            detailedJobs.push_back(jobs[i]);
            detailedAt.push_back(i);
        }
    }
    const std::vector<SweepOutcome> measured = runner.run(detailedJobs);

    std::vector<SweepOutcome> outcomes(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        if (planIndex[i] >= 0 && !plan.detailed[planIndex[i]])
            outcomes[i] = analyticOutcome(jobs[i], model);
    for (std::size_t k = 0; k < detailedAt.size(); ++k) {
        const std::size_t i = detailedAt[k];
        SweepOutcome out = measured[k];
        if (planIndex[i] >= 0 && out.ok) {
            const ModelEstimate &est = plan.estimates[planIndex[i]];
            out.result.model.active = true;
            out.result.model.tag = "frontier";
            out.result.model.predictedNetLatency = est.netLatency;
            out.result.model.predictedTotalLatency = est.totalLatency;
            out.result.model.predictedSaturated = est.saturated;
            if (out.result.avgNetLatency > 0.0)
                out.result.model.relErrorNet =
                    std::abs(est.netLatency - out.result.avgNetLatency) /
                    out.result.avgNetLatency;
        }
        outcomes[i] = std::move(out);
    }
    return outcomes;
}

} // namespace noc
