#include "profile/profile.hpp"

#include <chrono>
#include <cstdio>

namespace noc {

namespace {

/** Round up to a power of two (period 0/1 → sample every cycle). */
Cycle
fineMaskFor(Cycle every)
{
    if (every <= 1)
        return 0;
    Cycle pow2 = 1;
    while (pow2 < every)
        pow2 <<= 1;
    return pow2 - 1;
}

std::uint64_t
steadyNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

#if defined(__x86_64__)
constexpr bool kUseTsc = true;
#else
constexpr bool kUseTsc = false;
#endif

/**
 * Nanoseconds per profiler tick. With the TSC backend the ratio is
 * measured once per process by timing a short spin against
 * steady_clock; with the steady_clock backend a tick already is a
 * nanosecond.
 */
double
nsPerTick()
{
    static double ratio = [] {
        if (!kUseTsc)
            return 1.0;
        // ~2ms calibration spin; long enough that steady_clock
        // granularity is noise, short enough to be invisible at
        // startup. Retries once if a migration/preemption produced a
        // nonsensical ratio.
        for (int attempt = 0; attempt < 2; ++attempt) {
            const std::uint64_t t0 = profNow();
            const std::uint64_t n0 = steadyNowNs();
            std::uint64_t n1 = n0;
            while (n1 - n0 < 2'000'000)
                n1 = steadyNowNs();
            const std::uint64_t t1 = profNow();
            if (t1 > t0) {
                const double r = static_cast<double>(n1 - n0) /
                                 static_cast<double>(t1 - t0);
                if (r > 1e-3 && r < 1e3)
                    return r;
            }
        }
        return 1.0;  // degenerate TSC: report raw ticks as ns
    }();
    return ratio;
}

} // namespace

std::uint64_t
profNow()
{
#if defined(__x86_64__)
    return __builtin_ia32_rdtsc();
#else
    return steadyNowNs();
#endif
}

double
profTicksToNs(std::uint64_t ticks)
{
    return static_cast<double>(ticks) * nsPerTick();
}

const char *
toString(ProfPhase phase)
{
    switch (phase) {
    case ProfPhase::FaultHook: return "fault-hook";
    case ProfPhase::CreditReturn: return "credit-return";
    case ProfPhase::LinkTraverse: return "link-traverse";
    case ProfPhase::NiInject: return "ni-inject";
    case ProfPhase::RouterStep: return "router-step";
    case ProfPhase::VerifyHook: return "verify-hook";
    case ProfPhase::SwitchTraversal: return "st";
    case ProfPhase::VcAlloc: return "va";
    case ProfPhase::SwitchAlloc: return "sa";
    case ProfPhase::RouteCompute: return "route";
    }
    return "unknown";
}

bool
readProcMemory(MemorySnapshot &snap)
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return false;
    char line[256];
    bool any = false;
    while (std::fgets(line, sizeof(line), f)) {
        unsigned long long kb = 0;
        if (std::sscanf(line, "VmRSS: %llu kB", &kb) == 1) {
            snap.rssBytes = kb * 1024;
            any = true;
        } else if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
            snap.peakRssBytes = kb * 1024;
            any = true;
        }
    }
    std::fclose(f);
    return any;
}

PhaseProfiler::PhaseProfiler() : PhaseProfiler(Config{}) {}

PhaseProfiler::PhaseProfiler(const Config &cfg)
    : cfg_(cfg), fineMask_(fineMaskFor(cfg.fineEvery))
{
    // Force the tick calibration before the first scope opens, so the
    // 2ms spin never lands inside a measured region.
    (void)profTicksToNs(1);
    if (cfg_.spans)
        spans_.reserve(4096);
}

void
PhaseProfiler::endScope(ProfPhase phase, std::uint64_t start)
{
    const std::uint64_t ticks = profNow() - start;
    add(phase, ticks);
    if (wantSpans())
        addSpan(fineCycle_, phase, ticks);
}

ProfileReport
PhaseProfiler::report() const
{
    ProfileReport rep;
    rep.cycles = cycles_;
    for (int i = 0; i < kNumProfPhases; ++i) {
        const Slot &slot = slots_[static_cast<std::size_t>(i)];
        if (slot.calls == 0)
            continue;
        PhaseCost cost;
        cost.name = toString(static_cast<ProfPhase>(i));
        cost.ns = profTicksToNs(slot.ticks);
        cost.calls = slot.calls;
        rep.phases.push_back(std::move(cost));
        // Only cycle phases partition the step; the sampled router
        // phases overlap RouterStep and would double-count.
        if (i < static_cast<int>(ProfPhase::SwitchTraversal))
            rep.totalNs += cost.ns;
    }
    if (cfg_.memory) {
        rep.memory = mem_;
        rep.memoryValid = readProcMemory(rep.memory) ||
                          mem_.arenaBytes > 0;
    }
    return rep;
}

std::string
formatProfileReport(const ProfileReport &report)
{
    std::string out;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "phase profile (%llu cycles observed):\n",
                  static_cast<unsigned long long>(report.cycles));
    out += buf;
    const bool fineHeader = [&] {
        for (const PhaseCost &p : report.phases)
            if (p.name == std::string("st") || p.name == std::string("va") ||
                p.name == std::string("sa") || p.name == std::string("route"))
                return true;
        return false;
    }();
    for (const PhaseCost &p : report.phases) {
        const double share =
            report.totalNs > 0.0 ? p.ns / report.totalNs * 100.0 : 0.0;
        const bool fine = p.name == "st" || p.name == "va" ||
                          p.name == "sa" || p.name == "route";
        if (fine)
            std::snprintf(buf, sizeof(buf),
                          "    %-14s %12.0f ns %10llu calls %8.1f ns/call\n",
                          p.name.c_str(), p.ns,
                          static_cast<unsigned long long>(p.calls),
                          p.calls ? p.ns / static_cast<double>(p.calls) : 0.0);
        else
            std::snprintf(buf, sizeof(buf),
                          "  %-16s %12.0f ns %10llu calls %7.1f%%\n",
                          p.name.c_str(), p.ns,
                          static_cast<unsigned long long>(p.calls), share);
        out += buf;
    }
    if (fineHeader)
        out += "  (indented phases: sampled per-router breakdown; "
               "route nests inside st)\n";
    std::snprintf(buf, sizeof(buf), "  total (cycle phases) %9.0f ns\n",
                  report.totalNs);
    out += buf;
    if (report.memoryValid) {
        std::snprintf(buf, sizeof(buf),
                      "  memory: rss %llu KiB, peak %llu KiB, VC buffers "
                      "%llu KiB\n",
                      static_cast<unsigned long long>(
                          report.memory.rssBytes / 1024),
                      static_cast<unsigned long long>(
                          report.memory.peakRssBytes / 1024),
                      static_cast<unsigned long long>(
                          report.memory.arenaBytes / 1024));
        out += buf;
    }
    return out;
}

} // namespace noc
