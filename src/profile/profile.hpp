/**
 * @file
 * Phase profiler: attributes the simulator's own wall-clock time to
 * named intra-cycle phases, with the same runtime contract as the
 * telemetry and verify layers.
 *
 * Every instrumentation point is one NOC_PROF_SCOPE: with no profiler
 * attached each end of the scope is a null-pointer test; attached, the
 * scope opens with one profNow() call and closes with one out-of-line
 * PhaseProfiler::endScope() call (timestamps are rdtsc on x86-64,
 * steady_clock elsewhere).
 *
 * Two disjoint phase groups keep the accounting honest:
 *   - cycle phases (FaultHook .. VerifyHook) wrap the six sections of
 *     Network::step() and sum to (approximately) the whole step time,
 *     every cycle;
 *   - router phases (SwitchTraversal/VcAlloc/SwitchAlloc/RouteCompute)
 *     are sampled — only on cycles where `now % fineEvery == 0` does a
 *     router receive a non-null fine profiler — so their per-call cost
 *     is measured without double-charging every cycle. They form a
 *     separate breakdown of RouterStep, not a partition of it, and
 *     RouteCompute nests inside SwitchTraversal by design (route
 *     computation happens during traversal in this pipeline).
 *
 * Profilers are per-simulation (per sweep job): the hot path never
 * takes a lock.
 */

#ifndef NOC_PROFILE_PROFILE_HPP
#define NOC_PROFILE_PROFILE_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

/**
 * Open one RAII phase scope against a PhaseProfiler pointer (may be
 * null). Expands to a named ProfScope local.
 */
#define NOC_PROF_CAT2(a, b) a##b
#define NOC_PROF_CAT(a, b) NOC_PROF_CAT2(a, b)
#define NOC_PROF_SCOPE(prof, phase)                                         \
    ::noc::ProfScope NOC_PROF_CAT(nocProfScope_, __LINE__)(prof,            \
                                                           ::noc::ProfPhase::phase)

namespace noc {

/**
 * Phase taxonomy. The first six are cycle phases (every cycle, one
 * scope each per Network::step); the last four are router phases
 * (sampled every Config::fineEvery cycles inside the router cores).
 */
enum class ProfPhase : std::uint8_t {
    FaultHook,        ///< fault controller begin-cycle + stall queues
    CreditReturn,     ///< credit/ack link-event delivery
    LinkTraverse,     ///< flit link-event delivery + ring release
    NiInject,         ///< network-interface injection
    RouterStep,       ///< all router cores + sent flit/credit drain
    VerifyHook,       ///< invariant-checker end-of-cycle hook
    SwitchTraversal,  ///< ST: switch phase of one router (sampled)
    VcAlloc,          ///< VA: allocation loop of one router (sampled)
    SwitchAlloc,      ///< SA: switch allocation + speculation (sampled)
    RouteCompute,     ///< route computation (sampled; nests inside ST)
};

inline constexpr int kNumProfPhases = 10;

/** Short stable name ("router-step", "va", ...) used by reports. */
const char *toString(ProfPhase phase);

/**
 * Raw timestamp in profiler ticks (TSC counts on x86-64, steady_clock
 * nanoseconds elsewhere). Convert with profTicksToNs().
 */
std::uint64_t profNow();

/** Convert profiler ticks to nanoseconds (calibrated once per process). */
double profTicksToNs(std::uint64_t ticks);

/** Current resident-set / high-water memory, from /proc/self/status. */
struct MemorySnapshot
{
    std::uint64_t rssBytes = 0;       ///< VmRSS, 0 if unavailable
    std::uint64_t peakRssBytes = 0;   ///< VmHWM, 0 if unavailable
    std::uint64_t arenaBytes = 0;     ///< sum of routers' VC flit storage
};

/** Read VmRSS/VmHWM into `snap` (arenaBytes untouched); false if the
 *  proc interface is unavailable (non-Linux). */
bool readProcMemory(MemorySnapshot &snap);

/** One phase's aggregated cost in a finished report. */
struct PhaseCost
{
    std::string name;
    double ns = 0.0;           ///< total wall time attributed
    std::uint64_t calls = 0;   ///< number of scopes
};

/** One recorded span (satellite: Chrome trace duration events). */
struct ProfSpan
{
    Cycle cycle = 0;
    ProfPhase phase = ProfPhase::FaultHook;
    std::uint64_t ticks = 0;
};

/** Everything a run's profiler learned, ready for printing/JSON. */
struct ProfileReport
{
    std::vector<PhaseCost> phases;   ///< non-zero phases, taxonomy order
    Cycle cycles = 0;                ///< cycles the profiler observed
    double totalNs = 0.0;            ///< sum over cycle phases only
    MemorySnapshot memory;           ///< valid iff memoryValid
    bool memoryValid = false;
};

/**
 * Accumulates per-phase tick totals and call counts. One per
 * simulation; attach via Simulator::setProfiler. Not thread-safe by
 * design (mirrors RingBufferCollector's single-producer contract).
 */
class PhaseProfiler
{
  public:
    struct Config
    {
        /** Router-phase sampling period (power of two). 1 = every
         *  cycle (accurate totals, higher overhead); 64 amortizes the
         *  fine scopes to a rounding error on the cycle loop. */
        Cycle fineEvery = 64;
        bool memory = false;   ///< capture a MemorySnapshot in report()
        bool spans = false;    ///< record sampled-cycle spans for traces
    };

    /// Spans one profiler records; later ones are dropped.
    static constexpr std::size_t kMaxSpans = std::size_t{1} << 16;

    PhaseProfiler();
    explicit PhaseProfiler(const Config &cfg);

    /** Attribute `ticks` to `phase` (one scope's worth). */
    void add(ProfPhase phase, std::uint64_t ticks)
    {
        auto &slot = slots_[static_cast<std::size_t>(phase)];
        slot.ticks += ticks;
        ++slot.calls;
    }

    /**
     * Close one scope opened at profNow() tick `start`: attribute its
     * ticks to `phase`, plus a span on sampled cycles when spans are
     * wanted. Out of line, so an attached scope costs one call here.
     */
    void endScope(ProfPhase phase, std::uint64_t start);

    /** Record one span for the Chrome trace exporter (bounded). */
    void addSpan(Cycle cycle, ProfPhase phase, std::uint64_t ticks)
    {
        if (spans_.size() < kMaxSpans)
            spans_.push_back(ProfSpan{cycle, phase, ticks});
    }

    /**
     * Open a simulated cycle: latch `now` for span stamping and decide
     * whether the router cores sample their fine phases this cycle.
     * Called once per Network::step, before any scope opens.
     */
    void beginCycle(Cycle now)
    {
        fineCycle_ = now;
        fine_ = (now & fineMask_) == 0 ? this : nullptr;
    }

    /**
     * The profiler the router cores should use this cycle: `this` on
     * sampling cycles, null otherwise. Routers latch the result once
     * per step, so non-sampled cycles pay one pointer read per router.
     */
    PhaseProfiler *fine() { return fine_; }

    /** Cycle latched by the last beginCycle() (for span stamping). */
    Cycle fineCycle() const { return fineCycle_; }

    /** Spans are recorded only on sampled cycles, so one trace cycle
     *  carries the full fine breakdown alongside the cycle phases. */
    bool wantSpans() const { return cfg_.spans && fine_ != nullptr; }

    /** Count one completed Network::step. */
    void noteCycle() { ++cycles_; }

    /** Fold a router's VC flit storage into the memory accounting. */
    void noteArena(std::uint64_t bytes) { mem_.arenaBytes += bytes; }

    const Config &config() const { return cfg_; }
    Cycle cycles() const { return cycles_; }
    const std::vector<ProfSpan> &spans() const { return spans_; }

    /** Total nanoseconds attributed to one phase so far. */
    double phaseNs(ProfPhase phase) const
    {
        return profTicksToNs(slots_[static_cast<std::size_t>(phase)].ticks);
    }

    std::uint64_t phaseCalls(ProfPhase phase) const
    {
        return slots_[static_cast<std::size_t>(phase)].calls;
    }

    /** Snapshot everything into a printable/serializable report. */
    ProfileReport report() const;

  private:
    struct Slot
    {
        std::uint64_t ticks = 0;
        std::uint64_t calls = 0;
    };

    Config cfg_;
    Cycle fineMask_ = 63;
    PhaseProfiler *fine_ = nullptr;
    Cycle fineCycle_ = 0;
    Cycle cycles_ = 0;
    std::array<Slot, kNumProfPhases> slots_{};
    std::vector<ProfSpan> spans_;
    MemorySnapshot mem_;
};

/**
 * RAII phase scope. Null profiler → both ends are a single pointer
 * test; live profiler → one profNow() call and one endScope() call.
 */
class ProfScope
{
  public:
    ProfScope(PhaseProfiler *prof, ProfPhase phase)
        : prof_(prof), phase_(phase)
    {
        if (prof_)
            start_ = profNow();
    }

    ~ProfScope()
    {
        if (prof_)
            prof_->endScope(phase_, start_);
    }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    PhaseProfiler *prof_;
    ProfPhase phase_;
    std::uint64_t start_ = 0;
};

/** Multi-line human-readable rendering of a report (noctool). */
std::string formatProfileReport(const ProfileReport &report);

} // namespace noc

#endif // NOC_PROFILE_PROFILE_HPP
