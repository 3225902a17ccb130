/**
 * @file
 * Model-aware sweep execution: one entry point, three fidelities.
 *
 * runModelSweep() is the bridge between the sweep engine (a list of
 * SweepJobs) and the model layer. `detailed` hands the whole batch to
 * SweepRunner unchanged — same threads, same outcomes, byte-identical
 * output. `analytic` answers every job from the analytical model in
 * microseconds, synthesizing SweepOutcomes whose results carry the
 * "analytic" model annotation. `hybrid` screens all jobs analytically,
 * sends only the planned frontier (<= 1/5 of the jobs) through the
 * runner, and annotates those outcomes with the model's prediction and
 * its realized error — the per-point predicted-vs-measured record the
 * accuracy tooling consumes.
 *
 * Jobs without a valid AnalyticSpec (trace-driven workloads) cannot be
 * modelled: they fail under `analytic` and always run detailed under
 * `hybrid`.
 */

#ifndef NOC_ANALYTIC_MODEL_SWEEP_HPP
#define NOC_ANALYTIC_MODEL_SWEEP_HPP

#include <vector>

#include "analytic/analytic_model.hpp"
#include "analytic/calibration.hpp"
#include "analytic/network_model.hpp"
#include "sim/sweep.hpp"

namespace noc {

/** Fidelity policy of one runModelSweep call. */
struct ModelSweepOptions
{
    ModelKind kind = ModelKind::Detailed;
    Calibration calibration = Calibration::defaults();
};

/**
 * Run `jobs` under the options' fidelity. Outcomes come back in
 * submission order regardless of fidelity mix, and detailed execution
 * goes through `runner` (thread count, progress and completion hooks
 * apply to the cycle-accurate subset only — analytic answers are
 * synchronous and never fire them).
 */
std::vector<SweepOutcome> runModelSweep(const SweepRunner &runner,
                                        const std::vector<SweepJob> &jobs,
                                        const ModelSweepOptions &options);

/** The analytic screen of one job, as a synthesized outcome. */
SweepOutcome analyticOutcome(const SweepJob &job,
                             AnalyticNetworkModel &model);

} // namespace noc

#endif // NOC_ANALYTIC_MODEL_SWEEP_HPP
