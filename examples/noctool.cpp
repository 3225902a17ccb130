/**
 * @file
 * noctool — scriptable simulation driver over key=value options.
 *
 *   $ ./noctool topology=mesh width=8 height=8 scheme=pseudo-sb \
 *               routing=xy va=static pattern=uniform load=0.1 \
 *               warmup=2000 measure=8000 csv=/tmp/run.csv
 *
 * Traffic selection: pattern=<uniform|complement|transpose|bitrev|
 * shuffle|hotspot> with load=<flits/node/cycle, in (0, 1]> and
 * packet=<flits, at least 1>, or benchmark=<name> to replay a CMP trace
 * instead. Prints a summary and the per-router hotspot; optionally
 * appends a CSV row.
 *
 * Multi-run mode: scheme= and load= accept comma-separated lists; the
 * cross product runs as one parallel batch on a SweepRunner
 * (jobs=N or --jobs N threads, default all cores / NOC_JOBS) and prints
 * a table instead of the single-run summary. json=<path> appends the
 * structured results as JSON lines ("-" for stdout), csv=<path> as CSV
 * rows (sweep-format columns, see resultCsvColumns()).
 *
 * Telemetry: trace=<path> (sugar: --trace-out <path>) records events
 * and writes a Chrome trace-event JSON loadable by chrome://tracing;
 * trace-heatmap=<path> writes the per-router utilization/reuse heatmap
 * as CSV ("-" prints the text table instead). trace-start=/trace-end=
 * bound the sampling window in cycles and trace-classes= filters event
 * classes (see telemetryMaskFromSpec). Both modes honour them; sweeps
 * collect one trace per job and merge in submission order. Like
 * profile-every= and verify-scan=/verify-deadlock-after=, these keys
 * are read only when their parent key turns the layer on; without it
 * they draw the unused-option warning.
 *
 * Run health: health=<converge|adaptive-warmup|guard|watchdog|flows|all>
 * (comma list) enables the metrics layer — convergence verdicts,
 * saturation early-exit, watchdog snapshots, per-flow latency
 * histograms. "all" enables everything except adaptive-warmup, which
 * shortens the warmup window and therefore changes results.
 *
 * Fault injection: fault=<plan> (see fault/fault_plan.hpp for the
 * grammar, e.g. "flip-link:3>7@p0.001,kill-link:2>6@cycle5000") arms
 * the fault controller; runs then print a degradation report (per-flow
 * delivered/dropped/unroutable, offered vs achieved throughput).
 *
 * Topology churn: churn=<plan> (see fault/churn_plan.hpp for the
 * grammar, e.g. "period:1>2@up300/down80,random@mttf800/mttr150" or
 * "trace:contacts.trace") schedules links and routers to leave and
 * rejoin mid-run. Down links are lossless — flits wait in the link
 * retry buffer and resume at revival — so churn runs stay green under
 * the full invariant mask; the degradation report gains transition
 * counts and in-flight accounting. routing=adaptive picks XY vs YX per
 * packet from local backlog (UGAL-style) and composes with churn's
 * fault-aware detours.
 *
 * Model fidelity: model=<detailed|analytic|hybrid> picks how synthetic
 * workload points are answered — cycle-accurately (default), from the
 * analytical network model (src/analytic/), or hybrid (analytic
 * pre-screen, cycle-accurate only on the saturation-knee/crossover
 * frontier, <= 1/5 of the points). calibration=<path> loads fitted
 * model coefficients (JSON); calibrate=<path> fits them from detailed
 * runs of the current platform over the load= list and writes the
 * file. Modelled records in json= output carry a "model" tag and the
 * predicted-vs-measured error on frontier points; detailed-only output
 * is byte-identical with the model layer off.
 *
 * Self-profiling: profile=<phases|counters|mem> (comma list) attaches
 * the phase profiler to the run. Single runs print a decomposed
 * profile — wall-clock per simulator phase (route/VA/SA/ST, link
 * traversal, credit return, hook overhead), hardware counters
 * (instructions, cycles, cache/branch misses; gracefully skipped where
 * perf_event_open is denied) and memory footprint (RSS high-water,
 * VC-buffer bytes). profile-every=<cycles> sets the router-phase sampling
 * period (default 64). Sweeps gain per-job wall/queue seconds in the
 * json= output (the only result difference; profile-off output stays
 * byte-identical). With trace= also set, single runs export the
 * profiler's sampled phase spans into the Chrome trace as duration
 * events.
 *
 * Execution strategy: shards=<auto|N> partitions one run across N
 * row-band threads (auto shards networks of 256+ routers; the
 * NOC_SHARDS environment variable applies it to every run that doesn't
 * set the key). It is behaviorally invisible: results are bit-identical
 * to the one-band run. A run that carries a rider the partitioned path
 * does not (fault or churn plan, trace=, profile=, health=, a
 * closed-loop workload) runs on one band and says why on stderr and
 * in the JSONL `shard_fallback` field. Every configuration runs the one
 * router pipeline.
 *
 * Crash-tolerant sweeps: journal=<path> appends one JSONL checkpoint
 * per finished job; resume=1 (sugar: --resume) replays the journal and
 * re-runs only uncovered jobs, reproducing the uninterrupted outputs
 * byte-for-byte. SIGINT/SIGTERM cancel cleanly (exit 130) with all
 * finished jobs journaled. job-deadline-ms=/job-retries=/job-backoff-ms=
 * bound each job's wall-clock and retry transient failures.
 * health-sample=<cycles> sets the monitor sampling cadence,
 * watchdog-every=<cycles> the snapshot interval, flow-out=<path> writes
 * the flow-matrix CSV ("-" prints the top flows instead; single-run
 * mode). --progress renders a live one-line sweep progress meter on
 * stderr. `--version` prints the build-info banner and exits.
 */

#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>

#include "analytic/calibration.hpp"
#include "analytic/model_sweep.hpp"
#include "common/build_info.hpp"
#include "common/options.hpp"
#include "metrics/watchdog.hpp"
#include "sim/experiment.hpp"
#include "sim/journal.hpp"
#include "sim/progress.hpp"
#include "profile/perf_counters.hpp"
#include "profile/profile.hpp"
#include "sim/report.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/heatmap.hpp"
#include "traffic/cmp_model.hpp"
#include "traffic/synthetic.hpp"
#include "verify/verify.hpp"

using namespace noc;

namespace {

/**
 * SIGINT/SIGTERM raise this flag; the sweep runner polls it, cancels
 * running jobs cooperatively and skips unstarted ones. Completed jobs
 * are already flushed to the journal, so nothing finished is lost.
 */
std::atomic<bool> g_stop{false};

extern "C" void
onStopSignal(int)
{
    g_stop.store(true);
}

/** A count that must not be negative; fatal otherwise. */
long
nonNegativeOption(const Options &opts, const std::string &key,
                  long fallback)
{
    const long value = opts.getInt(key, fallback);
    if (value < 0)
        NOC_FATAL("option " + key + " must not be negative, got: " +
                  std::to_string(value));
    return value;
}

/** A cycle count or interval; fatal on a negative value, which the
 *  cast to Cycle would otherwise turn into ~1.8e19 cycles (a window
 *  that never ends, a scan or sample that never runs). */
Cycle
cycleOption(const Options &opts, const std::string &key, long fallback)
{
    return static_cast<Cycle>(nonNegativeOption(opts, key, fallback));
}

RunHealthConfig
healthFromOptions(const Options &opts)
{
    RunHealthConfig hc = healthFromSpec(opts.getString("health", ""));
    hc.sampleEvery = cycleOption(opts, "health-sample", 250);
    hc.watchdogEvery = cycleOption(opts, "watchdog-every", 1000);
    return hc;
}

SimWindows
windowsFromOptions(const Options &opts)
{
    SimWindows windows;
    windows.warmup = cycleOption(opts, "warmup", 2000);
    windows.measure = cycleOption(opts, "measure", 10000);
    windows.drainLimit = cycleOption(opts, "drain-limit", 60000);
    windows.health = healthFromOptions(opts);
    return windows;
}

/** A load= value or list entry, in every mode: the whole entry must be
 *  a finite number in (0, 1] flits/node/cycle (`0.05x` is rejected,
 *  not read as 0.05). */
double
parseLoad(const std::string &entry)
{
    char *end = nullptr;
    const double load = std::strtod(entry.c_str(), &end);
    if (entry.empty() || std::isspace(static_cast<unsigned char>(entry[0])) ||
        *end != '\0' || !std::isfinite(load) || load <= 0.0 || load > 1.0)
        NOC_FATAL("bad load value: '" + entry +
                  "' (want a number in (0, 1])");
    return load;
}

/** packet=: flits per packet, in every mode. */
int
packetOption(const Options &opts)
{
    const long packet = opts.getInt("packet", 5);
    if (packet < 1 || packet > std::numeric_limits<int>::max())
        NOC_FATAL("option packet must be a flit count of at least 1, "
                  "got: " + std::to_string(packet));
    return static_cast<int>(packet);
}

/** Accept `--jobs N` / `--jobs=N` sugar alongside the key=value style. */
std::vector<std::string>
normalizeArgs(int argc, char **argv)
{
    std::vector<std::string> tokens;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--jobs" && i + 1 < argc)
            tokens.push_back(std::string("jobs=") + argv[++i]);
        else if (arg.rfind("--jobs=", 0) == 0)
            tokens.push_back("jobs=" + arg.substr(7));
        else if (arg == "--progress")
            tokens.push_back("progress=1");
        else if (arg == "--resume")
            tokens.push_back("resume=1");
        else if (arg == "--trace-out" && i + 1 < argc)
            tokens.push_back(std::string("trace=") + argv[++i]);
        else if (arg.rfind("--trace-out=", 0) == 0)
            tokens.push_back("trace=" + arg.substr(12));
        else
            tokens.push_back(arg);
    }
    return tokens;
}

/** Shared verification keys of both run modes (single and sweep). */
struct VerifyCli
{
    bool enabled = false;
    VerifyConfig cfg;
};

VerifyCli
verifyFromOptions(const Options &opts)
{
    VerifyCli cli;
    const std::string spec = opts.getString("verify", "");
    if (spec.empty())
        return cli;
    cli.cfg.mask = verifyMaskFromSpec(spec);
    cli.cfg.enabled = cli.enabled = cli.cfg.mask != 0;
    if (!cli.enabled)
        return cli;
    cli.cfg.scanEvery = cycleOption(opts, "verify-scan", 1);
    cli.cfg.deadlockAfter = cycleOption(opts, "verify-deadlock-after", 1500);
    return cli;
}

/** Shared telemetry keys of both run modes (single and sweep). */
struct TraceCli
{
    std::string tracePath;    ///< Chrome trace JSON ("" = off)
    std::string heatmapPath;  ///< heatmap CSV ("-" = text to stdout)
    TelemetryConfig cfg;
};

TraceCli
traceFromOptions(const Options &opts)
{
    TraceCli cli;
    cli.tracePath = opts.getString("trace", "");
    cli.heatmapPath = opts.getString("trace-heatmap", "");
    cli.cfg.enabled = !cli.tracePath.empty() || !cli.heatmapPath.empty();
    if (!cli.cfg.enabled) {
        // Window/class keys without a destination are almost certainly
        // a typo'd invocation: left unread, they draw the unusedKeys()
        // warning.
        return cli;
    }
    cli.cfg.startCycle = cycleOption(opts, "trace-start", 0);
    const long end = opts.getInt("trace-end", -1);
    cli.cfg.endCycle = end < 0 ? kNeverCycle : static_cast<Cycle>(end);
    cli.cfg.classMask =
        telemetryMaskFromSpec(opts.getString("trace-classes", "all"));
    return cli;
}

/** Shared profiling keys of both run modes (single and sweep). */
struct ProfileCli
{
    bool enabled = false;
    bool counters = false;       ///< hardware counters requested
    PhaseProfiler::Config cfg;   ///< memory/spans/fineEvery knobs
};

ProfileCli
profileFromOptions(const Options &opts)
{
    ProfileCli cli;
    const std::string spec = opts.getString("profile", "");
    if (spec.empty())
        return cli;
    for (const std::string &item : splitList(spec)) {
        if (item == "phases") {
            cli.enabled = true;
        } else if (item == "counters") {
            cli.enabled = true;
            cli.counters = true;
        } else if (item == "mem") {
            cli.enabled = true;
            cli.cfg.memory = true;
        } else {
            NOC_FATAL("unknown profile mode: '" + item +
                      "' (expected phases, counters or mem)");
        }
    }
    if (cli.enabled)
        cli.cfg.fineEvery = cycleOption(opts, "profile-every", 64);
    return cli;
}

void
exportTraces(const TraceCli &cli, const std::vector<TelemetryTrace> &traces,
             Cycle cycles, const std::vector<ProfSpan> &profSpans = {})
{
    if (!cli.tracePath.empty()) {
        std::ofstream os(cli.tracePath);
        if (!os)
            NOC_FATAL("cannot open trace file: " + cli.tracePath);
        writeChromeTrace(os, traces, profSpans);
        std::uint64_t recorded = 0;
        std::uint64_t dropped = 0;
        for (const TelemetryTrace &t : traces) {
            recorded += t.counters.recorded;
            dropped += t.counters.dropped;
        }
        std::printf("  trace written to        %s (%llu events, %llu "
                    "dropped)\n",
                    cli.tracePath.c_str(),
                    static_cast<unsigned long long>(recorded),
                    static_cast<unsigned long long>(dropped));
    }
    if (!cli.heatmapPath.empty()) {
        std::vector<TelemetryEvent> merged;
        for (const TelemetryTrace &t : traces)
            merged.insert(merged.end(), t.events.begin(), t.events.end());
        const auto rows = computeHeatmap(merged, cycles);
        if (cli.heatmapPath == "-") {
            printHeatmap(std::cout, rows);
        } else {
            std::ofstream os(cli.heatmapPath);
            if (!os)
                NOC_FATAL("cannot open heatmap file: " + cli.heatmapPath);
            writeHeatmapCsv(os, rows);
            std::printf("  heatmap written to      %s\n",
                        cli.heatmapPath.c_str());
        }
    }
}

/**
 * Replay-safe structured emission: every job's output was rendered
 * exactly once (stored lines for journaled jobs, fresh renders for the
 * rest), so writing the stored lines verbatim keeps a resumed sweep's
 * files byte-identical to an uninterrupted run's.
 */
void
emitJournaledResults(const SweepCli &cli,
                     const std::vector<JournalEntry> &entries)
{
    if (!cli.jsonPath.empty()) {
        auto writeAll = [&entries](std::ostream &os) {
            for (const JournalEntry &e : entries) {
                for (const std::string &line : e.jsonLines)
                    os << line << '\n';
            }
        };
        if (cli.jsonPath == "-") {
            writeAll(std::cout);
        } else {
            std::ofstream os(cli.jsonPath, std::ios::app);
            if (!os)
                NOC_FATAL("cannot open json results file: " + cli.jsonPath);
            writeAll(os);
        }
    }
    if (!cli.csvPath.empty()) {
        std::ofstream os(cli.csvPath, std::ios::app);
        if (!os)
            NOC_FATAL("cannot open csv results file: " + cli.csvPath);
        if (os.tellp() == std::streampos(0))
            CsvWriter(os).writeRow(resultCsvColumns());
        for (const JournalEntry &e : entries) {
            for (const std::string &row : e.csvRows)
                os << row << '\n';
        }
    }
}

int
runMulti(const Options &opts, const SimConfig &base,
         const SimWindows &windows, const std::vector<std::string> &schemes,
         const std::vector<std::string> &loads)
{
    SweepCli cli;
    if (opts.has("jobs"))
        cli.jobs = static_cast<int>(
            parsePositive(opts.getString("jobs", ""), "jobs",
                          std::numeric_limits<int>::max()));
    cli.jsonPath = opts.getString("json", cli.jsonPath);
    cli.csvPath = opts.getString("csv", "");
    cli.progress = opts.getBool("progress", false);
    const TraceCli trace_cli = traceFromOptions(opts);
    const VerifyCli verify_cli = verifyFromOptions(opts);
    const ProfileCli profile_cli = profileFromOptions(opts);

    // Crash tolerance: journal= checkpoints each finished job, resume=1
    // replays the journal instead of re-running; per-job deadline/retry
    // knobs absorb transient slowness on loaded machines.
    const std::string journal_path = opts.getString("journal", "");
    const bool resume = opts.getBool("resume", false);
    if (resume && journal_path.empty())
        NOC_FATAL("resume=1 needs journal=<path> to replay from");
    // A negative deadline or backoff, or fewer than one attempt, would
    // otherwise read as no deadline, no backoff or one attempt.
    const long deadline_ms = nonNegativeOption(opts, "job-deadline-ms", 0);
    const long retries = opts.getInt("job-retries", 1);
    if (retries < 1 || retries > std::numeric_limits<int>::max())
        NOC_FATAL("option job-retries must be an attempt count of at "
                  "least 1, got: " + std::to_string(retries));
    const long backoff_ms = nonNegativeOption(opts, "job-backoff-ms", 0);

    const bool traced = opts.has("benchmark");
    const std::string bench_name = opts.getString("benchmark", "fma3d");
    const std::string pattern_name = opts.getString("pattern", "uniform");
    const int packet = packetOption(opts);

    // Model fidelity: detailed (default) changes nothing; analytic and
    // hybrid route the batch through runModelSweep. Modelled sweeps are
    // incompatible with trace-driven workloads (nothing to model) and
    // with journaling (journal entries record simulated runs; analytic
    // answers are instant, so there is nothing worth checkpointing).
    const ModelKind model =
        parseModelKind(opts.getString("model", "detailed"));
    Calibration calibration = Calibration::defaults();
    const std::string cal_path = opts.getString("calibration", "");
    if (!cal_path.empty()) {
        const auto loaded = Calibration::load(cal_path);
        if (!loaded)
            NOC_FATAL("cannot load calibration file: " + cal_path);
        calibration = *loaded;
    }
    if (model != ModelKind::Detailed) {
        if (traced)
            NOC_FATAL("model=" + std::string(toString(model)) +
                      " needs a synthetic workload (benchmark= replays "
                      "a trace, which only the detailed simulator runs)");
        if (!journal_path.empty() || resume)
            NOC_FATAL("model=" + std::string(toString(model)) +
                      " does not support journal=/resume=");
        if (model == ModelKind::Analytic &&
            (trace_cli.cfg.enabled || verify_cli.enabled))
            NOC_FATAL("model=analytic runs no simulation, so trace=/"
                      "verify= have nothing to observe");
    }
    for (const std::string &key : opts.unusedKeys())
        NOC_WARN("unused option: " + key);

    std::vector<SweepJob> jobs;
    std::vector<std::string> row_labels;
    for (const std::string &scheme_name : schemes) {
        SimConfig cfg = base;
        cfg.scheme = parseScheme(scheme_name);
        cfg.validate();
        if (traced) {
            const BenchmarkProfile &bench = findBenchmark(bench_name);
            SweepJob job;
            job.label = "noctool:" + scheme_name + ":" + bench.name;
            job.cfg = cfg;
            job.windows = windows;
            // Same trace the single-run path replays: regenerated for
            // noctool's requested span, not the default-window cache.
            job.makeSource = [bench, windows](const SimConfig &c) {
                return std::make_unique<TraceReplaySource>(generateCmpTrace(
                    bench, *makeTopology(c), windows.warmup + windows.measure,
                    c.seed));
            };
            jobs.push_back(std::move(job));
            row_labels.push_back(scheme_name + " " + bench.name);
        } else {
            for (const std::string &load_str : loads) {
                const double load = parseLoad(load_str);
                const SyntheticPattern pattern =
                    parseSyntheticPattern(pattern_name);
                jobs.push_back(syntheticJob("noctool:" + scheme_name + ":" +
                                                pattern_name + ":" + load_str,
                                            cfg, pattern, load, packet,
                                            windows));
                row_labels.push_back(scheme_name + " @" + load_str);
            }
        }
    }

    if (trace_cli.cfg.enabled) {
        for (SweepJob &job : jobs)
            job.telemetry = trace_cli.cfg;
    }
    if (verify_cli.enabled) {
        for (SweepJob &job : jobs)
            job.verify = verify_cli.cfg;
    }
    if (profile_cli.enabled) {
        // Sweeps get the per-job timing annotation (wall/queue seconds
        // in the json= output); the phase breakdown is single-run only.
        for (SweepJob &job : jobs)
            job.profile = true;
    }
    for (SweepJob &job : jobs) {
        job.deadlineMs = deadline_ms;
        job.maxAttempts = static_cast<int>(retries);
        job.backoffMs = backoff_ms;
    }

    // Partition against the resume journal: jobs it covers replay from
    // their stored rendering, the rest run fresh.
    std::map<std::uint64_t, JournalEntry> done;
    if (resume)
        done = SweepJournal::load(journal_path);
    std::vector<SweepOutcome> outcomes(jobs.size());
    std::vector<JournalEntry> entries(jobs.size());
    std::vector<char> replayed(jobs.size(), 0);
    std::vector<SweepJob> fresh;
    std::vector<std::size_t> fresh_at;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto it = done.find(journalKey(jobs[i]));
        if (it != done.end()) {
            entries[i] = it->second;
            outcomes[i] = outcomeFromEntry(it->second, jobs[i]);
            replayed[i] = 1;
        } else {
            fresh_at.push_back(i);
            fresh.push_back(jobs[i]);
        }
    }

    std::printf("noctool sweep: %zu runs on %d threads\n\n", jobs.size(),
                resolveJobCount(cli.jobs));
    // Informational, and on stderr on purpose: a resumed sweep's stdout
    // must stay byte-identical to an uninterrupted run's.
    if (resume && fresh.size() != jobs.size()) {
        std::fprintf(stderr, "resume: %zu of %zu runs replayed from %s\n",
                     jobs.size() - fresh.size(), jobs.size(),
                     journal_path.c_str());
    }

    SweepRunner runner(cli.jobs);
    runner.setStopFlag(&g_stop);
    std::unique_ptr<SweepJournal> journal;
    if (!journal_path.empty()) {
        journal = std::make_unique<SweepJournal>(journal_path);
        runner.onJobComplete(
            [&journal, &fresh](std::size_t idx, const SweepOutcome &out) {
                // An interrupted job must re-run on resume, so it never
                // reaches the journal.
                if (out.interrupted)
                    return;
                journal->append(makeJournalEntry(fresh[idx], out));
            });
    }
    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);
    ProgressPrinter progress;
    if (cli.progress)
        runner.onProgress(progress.callback());
    std::vector<SweepOutcome> fresh_out;
    if (model == ModelKind::Detailed) {
        fresh_out = runner.run(fresh);
    } else {
        ModelSweepOptions mopts;
        mopts.kind = model;
        mopts.calibration = calibration;
        fresh_out = runModelSweep(runner, fresh, mopts);
    }
    progress.finish();
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    for (std::size_t k = 0; k < fresh_at.size(); ++k)
        outcomes[fresh_at[k]] = fresh_out[k];

    bool stopped = g_stop.load();
    for (const SweepOutcome &o : fresh_out)
        stopped = stopped || o.interrupted;
    if (stopped) {
        std::size_t finished = jobs.size() - fresh.size();
        for (const SweepOutcome &o : fresh_out) {
            if (!o.interrupted)
                ++finished;
        }
        std::string hint;
        if (!journal_path.empty()) {
            hint = ", journaled to " + journal_path +
                   " (rerun with resume=1 to continue)";
        }
        std::fprintf(stderr,
                     "noctool: interrupted with %zu of %zu runs finished%s\n",
                     finished, jobs.size(), hint.c_str());
        return 130;
    }

    if (resume) {
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (!replayed[i])
                entries[i] = makeJournalEntry(jobs[i], outcomes[i]);
        }
        emitJournaledResults(cli, entries);
    } else {
        emitStructuredResults(cli, outcomes);
    }

    // Fidelity summary, only when a model was in play — the default
    // detailed path must stay byte-identical to pre-model output.
    if (model != ModelKind::Detailed) {
        std::size_t modelled = 0;
        double max_err = 0.0;
        bool any_frontier = false;
        for (const SweepOutcome &o : outcomes) {
            if (o.ok && o.result.model.tag == "analytic")
                ++modelled;
            if (o.ok && o.result.model.tag == "frontier") {
                max_err = std::max(max_err, o.result.model.relErrorNet);
                any_frontier = true;
            }
        }
        std::printf("model: %s — %zu of %zu runs cycle-accurate",
                    toString(model), outcomes.size() - modelled,
                    outcomes.size());
        if (any_frontier)
            std::printf(", max frontier error %.1f%%", max_err * 100.0);
        std::printf("\n\n");
    }

    printHeader("run", {"total-lat", "net-lat", "p99", "thruput",
                        "reuse%", "energy-nJ"},
                12);
    bool all_drained = true;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const SweepOutcome &o = outcomes[i];
        if (!o.ok) {
            std::printf("%-16s  failed: %s\n", row_labels[i].c_str(),
                        o.error.c_str());
            all_drained = false;
            continue;
        }
        printRow(row_labels[i],
                 {o.result.avgTotalLatency, o.result.avgNetLatency,
                  o.result.p99TotalLatency, o.result.throughput,
                  o.result.reusability * 100.0,
                  o.result.energy.totalPj() / 1000.0},
                 12, 3);
        all_drained = all_drained && o.result.drained;
    }

    if (windows.health.any()) {
        std::printf("\nrun health:\n");
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            const SweepOutcome &o = outcomes[i];
            if (!o.ok)
                continue;
            const RunHealth &h = o.result.health;
            std::printf("  %-16s %s", row_labels[i].c_str(),
                        toString(h.verdict));
            if (h.verdict == RunVerdict::Saturated) {
                std::printf(" (%s, stopped after %llu measured cycles)",
                            h.saturationReason.c_str(),
                            static_cast<unsigned long long>(h.measureUsed));
            } else if (h.verdict == RunVerdict::Converged) {
                std::printf(" (steady at cycle %llu, cov %.4f)",
                            static_cast<unsigned long long>(h.steadyCycle),
                            h.latencyCov);
            } else if (h.verdict == RunVerdict::NotConverged) {
                std::printf(" (cov %.4f)", h.latencyCov);
            }
            std::printf("\n");
        }
    }

    bool any_fault = false;
    for (const SweepOutcome &o : outcomes)
        any_fault = any_fault || (o.ok && o.result.fault.active);
    if (any_fault) {
        std::printf("\nfault degradation:\n");
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            const SweepOutcome &o = outcomes[i];
            if (!o.ok || !o.result.fault.active)
                continue;
            const FaultReport &f = o.result.fault;
            std::printf("  %-16s delivered %llu/%llu pkts (%llu dropped, "
                        "%llu unroutable), %llu retransmits, %llu links "
                        "dead, achieved %.4f of %.4f flits/node/cycle\n",
                        row_labels[i].c_str(),
                        static_cast<unsigned long long>(f.packetsDelivered),
                        static_cast<unsigned long long>(f.packetsOffered),
                        static_cast<unsigned long long>(f.packetsDropped),
                        static_cast<unsigned long long>(f.packetsUnroutable),
                        static_cast<unsigned long long>(
                            f.flitsRetransmitted),
                        static_cast<unsigned long long>(f.linksKilled),
                        f.achievedThroughput, f.offeredThroughput);
        }
    }

    if (trace_cli.cfg.enabled) {
        Cycle total_cycles = 0;
        for (const SweepOutcome &o : outcomes) {
            if (o.ok)
                total_cycles += o.result.cyclesRun;
        }
        exportTraces(trace_cli, collectTelemetry(outcomes),
                     total_cycles > 0 ? total_cycles : 1);
    }

    if (verify_cli.enabled) {
        std::uint64_t checks = 0;
        std::uint64_t violations = 0;
        for (const SweepOutcome &o : outcomes) {
            checks += o.verifyChecks;
            violations += o.verifyViolations;
            if (o.verifyViolations > 0) {
                std::fprintf(stderr, "verify: %s:\n%s", o.label.c_str(),
                             o.verifyReport.c_str());
            }
        }
        std::printf("\nverify: %llu checks, %llu violations\n",
                    static_cast<unsigned long long>(checks),
                    static_cast<unsigned long long>(violations));
        if (violations > 0)
            return 3;
    }
    return all_drained ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    // Handled before Options::parse: parse() fatals on non-key=value
    // tokens, and the banner must work with no other arguments.
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--version") == 0) {
            std::puts(buildInfoLine().c_str());
            return 0;
        }
    }

    const Options opts = Options::parse(normalizeArgs(argc, argv));

    // Calibration fitting mode: calibrate=<path> runs the detailed
    // grid (scheme= list x load= list on the current platform), fits
    // the analytical model's coefficients and writes them as JSON for
    // later model=/calibration= runs.
    if (opts.has("calibrate")) {
        const std::string out_path = opts.getString("calibrate", "");
        std::vector<std::string> single;
        for (const std::string &tok : normalizeArgs(argc, argv)) {
            if (tok.rfind("scheme=", 0) == 0 ||
                tok.rfind("load=", 0) == 0 ||
                tok.rfind("calibrate=", 0) == 0)
                continue;
            single.push_back(tok);
        }
        const Options copts = Options::parse(single);
        CalibrationSpec spec;
        spec.base = configFromOptions(copts);
        spec.windows = windowsFromOptions(copts);
        spec.pattern =
            parseSyntheticPattern(copts.getString("pattern", "uniform"));
        spec.packetSize = packetOption(copts);
        if (opts.has("load")) {
            spec.loads.clear();
            for (const std::string &l :
                 splitList(opts.getString("load", "")))
                spec.loads.push_back(parseLoad(l));
        }
        if (opts.has("scheme")) {
            spec.schemes.clear();
            for (const std::string &s :
                 splitList(opts.getString("scheme", "")))
                spec.schemes.push_back(parseScheme(s));
        }
        const Calibration cal = calibrate(spec);
        cal.save(out_path);
        std::printf("calibration written to %s\n", out_path.c_str());
        std::printf("  fit: %d points, mean error %.2f%%, max error "
                    "%.2f%%\n",
                    cal.fitPoints, cal.fitMeanError * 100.0,
                    cal.fitMaxError * 100.0);
        if (cal.fitPoints == 0 || cal.fitMaxError > cal.errorBound) {
            std::printf("  warning: fit does not meet the %.0f%% error "
                        "bound on this platform\n",
                        cal.errorBound * 100.0);
        }
        return 0;
    }

    // Comma lists in scheme=/load= select the parallel multi-run mode.
    const std::vector<std::string> schemes =
        splitList(opts.getString("scheme", "baseline"));
    const std::vector<std::string> loads =
        splitList(opts.getString("load", "0.1"));
    if (schemes.size() > 1 || loads.size() > 1) {
        // Re-parse without scheme=/load= so configFromOptions sees only
        // single-valued keys; the sweep applies the lists itself.
        std::vector<std::string> single;
        for (const std::string &tok : normalizeArgs(argc, argv)) {
            if (tok.rfind("scheme=", 0) == 0 || tok.rfind("load=", 0) == 0)
                continue;
            single.push_back(tok);
        }
        const Options multi_opts = Options::parse(single);
        const SimConfig base = configFromOptions(multi_opts);
        return runMulti(multi_opts, base, windowsFromOptions(multi_opts),
                        schemes, loads);
    }

    const SimWindows windows = windowsFromOptions(opts);
    const SimConfig cfg = configFromOptions(opts);
    const int jobs = static_cast<int>(opts.getInt("jobs", 1));
    if (jobs > 1)
        NOC_WARN("jobs=" + std::to_string(jobs) +
                 " has no effect on a single run; use scheme=/load= lists");

    // Single-point model queries: model=analytic answers from the
    // analytical model alone (microseconds, no simulation); hybrid
    // needs a sweep to have a frontier to plan.
    const ModelKind model =
        parseModelKind(opts.getString("model", "detailed"));
    Calibration calibration = Calibration::defaults();
    const std::string cal_path = opts.getString("calibration", "");
    if (!cal_path.empty()) {
        const auto loaded = Calibration::load(cal_path);
        if (!loaded)
            NOC_FATAL("cannot load calibration file: " + cal_path);
        calibration = *loaded;
    }
    if (model == ModelKind::Hybrid)
        NOC_FATAL("model=hybrid needs a sweep "
                  "(give scheme= or load= comma lists)");
    if (model == ModelKind::Analytic) {
        if (opts.has("benchmark"))
            NOC_FATAL("model=analytic needs a synthetic workload "
                      "(benchmark= replays a trace)");
        const std::string pattern_name =
            opts.getString("pattern", "uniform");
        const double load = parseLoad(opts.getString("load", "0.1"));
        const int packet = packetOption(opts);
        const std::string json_path = opts.getString("json", "");
        for (const std::string &key : opts.unusedKeys())
            NOC_WARN("unused option: " + key);

        AnalyticNetworkModel backend(calibration);
        const SweepJob job = syntheticJob(
            "noctool:pattern:" + pattern_name, cfg,
            parseSyntheticPattern(pattern_name), load, packet, windows);
        const SweepOutcome one = analyticOutcome(job, backend);
        if (!one.ok)
            NOC_FATAL("analytic model: " + one.error);
        ModelRequest req;
        req.cfg = cfg;
        req.pattern = job.analytic.pattern;
        req.load = load;
        req.packetSize = packet;
        const ModelEstimate est = backend.estimate(req);
        std::cout << cfg.describe() << " [pattern:" << pattern_name
                  << "] (analytic model)\n";
        std::printf("  predicted net latency   %.3f cycles "
                    "(zero-load %.3f + serialization %.3f + "
                    "contention %.3f)\n",
                    est.netLatency, est.zeroLoad, est.serialization,
                    est.contention);
        std::printf("  predicted total latency %.3f cycles "
                    "(+%.3f source wait)\n",
                    est.totalLatency, est.sourceWait);
        std::printf("  mean hops               %.4f routers\n", est.hops);
        std::printf("  predicted throughput    %.4f flits/node/cycle\n",
                    est.throughput);
        std::printf("  predicted reuse         %.1f%%\n",
                    est.reusability * 100.0);
        std::printf("  busiest channel load    %.4f%s\n",
                    est.maxChannelLoad,
                    est.saturated ? " (saturated)" : "");
        if (!json_path.empty()) {
            SweepCli cli;
            cli.jsonPath = json_path;
            emitStructuredResults(cli, {one});
            if (json_path != "-")
                std::cout << "  json line appended to   " << json_path
                          << "\n";
        }
        return est.saturated ? 2 : 0;
    }

    std::unique_ptr<TrafficSource> source;
    std::string workload;
    if (opts.has("benchmark")) {
        const BenchmarkProfile &bench =
            findBenchmark(opts.getString("benchmark", "fma3d"));
        source = std::make_unique<TraceReplaySource>(
            generateCmpTrace(bench, *makeTopology(cfg),
                             windows.warmup + windows.measure, cfg.seed));
        workload = "benchmark:" + bench.name;
    } else {
        const std::string pattern_name =
            opts.getString("pattern", "uniform");
        const double load = parseLoad(opts.getString("load", "0.1"));
        const int packet = packetOption(opts);
        source = syntheticTraffic(cfg, parseSyntheticPattern(pattern_name),
                                  load, packet);
        workload = "pattern:" + pattern_name;
    }

    const std::string csv_path = opts.getString("csv", "");
    const std::string json_path = opts.getString("json", "");
    const std::string flow_out = opts.getString("flow-out", "");
    if (!flow_out.empty() && !windows.health.flows)
        NOC_FATAL("flow-out needs health=flows (no flow data recorded)");
    const TraceCli trace_cli = traceFromOptions(opts);
    const VerifyCli verify_cli = verifyFromOptions(opts);
    ProfileCli profile_cli = profileFromOptions(opts);
    // With a Chrome trace also requested, record the sampled phase
    // spans so they ride along as duration events.
    profile_cli.cfg.spans =
        profile_cli.enabled && !trace_cli.tracePath.empty();
    for (const std::string &key : opts.unusedKeys())
        NOC_WARN("unused option: " + key);

    Simulator sim(cfg, std::move(source));
    RingBufferCollector collector(trace_cli.cfg);
    if (trace_cli.cfg.enabled)
        sim.setTelemetry(&collector);
    InvariantChecker checker(verify_cli.cfg);
    if (verify_cli.enabled)
        sim.setVerifier(&checker);
    PhaseProfiler profiler(profile_cli.cfg);
    std::unique_ptr<PerfCounters> counters;
    if (profile_cli.enabled)
        sim.setProfiler(&profiler);
    if (profile_cli.counters)
        counters = std::make_unique<PerfCounters>();
    const auto run_start = std::chrono::steady_clock::now();
    if (counters)
        counters->start();
    SimResult result = sim.run(windows);
    if (!result.shardFallback.empty())
        std::fprintf(stderr, "note: ran on one band, not the requested "
                             "shards (%s)\n",
                     result.shardFallback.c_str());
    const PerfCounterValues counter_values =
        counters ? counters->stop() : PerfCounterValues{};
    if (profile_cli.enabled) {
        result.profile.active = true;
        result.profile.jobWallSeconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          run_start)
                .count();
    }

    printResult(std::cout, cfg.describe() + " [" + workload + "]", result);
    const auto activity =
        routerActivity(sim.network(), result.cyclesRun);
    const RouterActivity hot = hottest(activity);
    if (hot.router != kInvalidRouter) {
        std::cout << "  hottest router          #" << hot.router << " ("
                  << formatPercent(hot.crossbarUtil) << " crossbar util, "
                  << formatPercent(hot.reuseRate) << " reuse)\n";
    }

    if (windows.health.any()) {
        const RunHealth &h = result.health;
        std::cout << "  run verdict             " << toString(h.verdict);
        if (h.verdict == RunVerdict::Saturated) {
            std::cout << " (" << h.saturationReason << ", stopped after "
                      << h.measureUsed << " measured cycles, peak backlog "
                      << h.peakBacklog << ")";
        } else if (h.verdict == RunVerdict::Converged) {
            std::cout << " (steady at cycle " << h.steadyCycle << ", cov "
                      << h.latencyCov << ")";
        } else if (h.verdict == RunVerdict::NotConverged) {
            std::cout << " (cov " << h.latencyCov << ")";
        }
        std::cout << "\n";
        if (windows.health.adaptiveWarmup) {
            std::cout << "  warmup used             " << h.warmupUsed
                      << " of " << windows.warmup << " cycles\n";
        }
        if (windows.health.watchdog) {
            const auto findings =
                Watchdog::suspects(h.watchdog, windows.health.watchdogEvery);
            std::cout << "  watchdog                " << h.watchdog.size()
                      << " snapshots, " << findings.size() << " findings\n";
            for (const std::string &finding : findings)
                std::cout << "    " << finding << "\n";
        }
        if (windows.health.flows) {
            const auto flows = result.flows.sorted();
            const FlowMatrix::Flow *top = result.flows.hottestFlow();
            std::cout << "  flows                   " << flows.size()
                      << " distinct";
            if (top != nullptr) {
                std::cout << "; hottest " << top->src << "->" << top->dst
                          << " (" << top->count << " packets, avg "
                          << top->avgLatency() << " cycles)";
            }
            std::cout << "\n";
        }
    }
    if (result.fault.active) {
        const FaultReport &f = result.fault;
        std::cout << "  fault degradation       delivered "
                  << f.packetsDelivered << "/" << f.packetsOffered
                  << " pkts (" << f.packetsDropped << " dropped, "
                  << f.packetsUnroutable << " unroutable), "
                  << f.flitsRetransmitted << " retransmits, "
                  << f.linksKilled << " links dead\n";
        std::cout << "  fault throughput        achieved "
                  << f.achievedThroughput << " of " << f.offeredThroughput
                  << " offered flits/node/cycle\n";
        if (f.packetsInFlight > 0) {
            std::cout << "  fault in flight         " << f.packetsInFlight
                      << " pkts offered but unsettled at report time\n";
        }
        if (f.churn) {
            std::cout << "  churn transitions       links "
                      << f.linkDownEvents << " down / " << f.linkUpEvents
                      << " up, routers " << f.routerDownEvents
                      << " down / " << f.routerUpEvents << " up\n";
            std::cout << "  churn deferrals         " << f.flitsDeferred
                      << " flits deferred, " << f.flitsResumed
                      << " resumed, " << f.churnTeardowns
                      << " circuits flushed\n";
        }
        for (const FaultReport::Flow &fl : f.flows) {
            if (fl.dropped == 0 && fl.unroutable == 0)
                continue;
            std::cout << "    flow " << fl.src << "->" << fl.dst << ": "
                      << fl.delivered << "/" << fl.offered << " delivered";
            if (fl.dropped > 0)
                std::cout << ", " << fl.dropped << " dropped";
            if (fl.unroutable > 0)
                std::cout << ", " << fl.unroutable << " unroutable";
            std::cout << "\n";
        }
    }
    if (profile_cli.enabled) {
        std::printf("\n%s",
                    formatProfileReport(profiler.report()).c_str());
        std::printf("  run wall clock          %.3f s\n",
                    result.profile.jobWallSeconds);
        if (counters) {
            if (counter_values.valid) {
                std::printf(
                    "  hw counters             %llu instructions, %llu "
                    "cycles (IPC %.2f), %llu cache misses, %llu branch "
                    "misses\n",
                    static_cast<unsigned long long>(
                        counter_values.instructions),
                    static_cast<unsigned long long>(counter_values.cycles),
                    counter_values.ipc(),
                    static_cast<unsigned long long>(
                        counter_values.cacheMisses),
                    static_cast<unsigned long long>(
                        counter_values.branchMisses));
            } else {
                std::printf("  hw counters             unavailable "
                            "(perf_event_open denied)\n");
            }
        }
    }
    if (!flow_out.empty()) {
        if (flow_out == "-") {
            printFlowTop(std::cout, result.flows, 10);
        } else {
            std::ofstream os(flow_out);
            if (!os)
                NOC_FATAL("cannot open flow file: " + flow_out);
            writeFlowCsv(os, result.flows);
            std::cout << "  flow matrix written to  " << flow_out << "\n";
        }
    }

    if (!csv_path.empty()) {
        std::ofstream csv(csv_path, std::ios::app);
        if (!csv)
            NOC_FATAL("cannot open csv file: " + csv_path);
        CsvWriter writer(csv);
        writer.writeRow(cfg.describe() + " " + workload,
                        {result.avgTotalLatency, result.avgNetLatency,
                         result.p99TotalLatency, result.throughput,
                         result.reusability,
                         result.energy.totalPj() / 1000.0});
        std::cout << "  csv row appended to     " << csv_path << "\n";
    }
    if (!json_path.empty()) {
        SweepCli cli;
        cli.jsonPath = json_path;
        SweepOutcome one;
        one.label = "noctool:" + workload;
        one.cfg = cfg;
        one.result = result;
        one.ok = true;
        emitStructuredResults(cli, {one});
        std::cout << "  json line appended to   " << json_path << "\n";
    }
    if (trace_cli.cfg.enabled) {
        TelemetryTrace trace;
        trace.label = "noctool:" + workload;
        trace.events = collector.events();
        trace.counters = collector.counters();
        exportTraces(trace_cli, {trace}, result.cyclesRun,
                     profiler.spans());
    }
    if (verify_cli.enabled) {
        std::cout << "  verify                  " << checker.checks()
                  << " checks, " << checker.violationCount()
                  << " violations\n";
        if (!checker.clean()) {
            std::cerr << checker.report();
            return 3;
        }
    }
    return result.drained ? 0 : 2;
}
