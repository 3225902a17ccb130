/**
 * @file
 * Telemetry core: typed per-cycle events, the sink interface with
 * runtime gating (sampling window + per-class enable mask), and a
 * single-producer ring-buffer collector.
 *
 * Every instrumentation point is one recordTelemetry() call: with no
 * sink attached it is a null-pointer test; with a sink attached it is
 * one out-of-line call into TelemetrySink::record, which builds the
 * event and rejects it when it falls outside the sampling window or its
 * class is masked off, before the virtual push.
 *
 * Collectors are per-worker: every simulation (and thus every sweep
 * job) owns its own RingBufferCollector, so the hot path never takes a
 * lock and never touches an atomic — cross-thread merging happens
 * after the workers join, in submission order (sim/sweep.hpp).
 */

#ifndef NOC_TELEMETRY_TELEMETRY_HPP
#define NOC_TELEMETRY_TELEMETRY_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace noc {

/**
 * Event taxonomy. Pipeline-stage events mirror the paper's Fig 6
 * stages (BW / VA / SA / ST / LT); pseudo-circuit lifecycle events
 * mirror §3–§4 (create on SA grant, reuse = SA bypass or buffer
 * bypass, terminate with reason, speculative revival and its
 * hit/miss resolution); CreditStall marks an Active VC whose front
 * flit could not even request the switch for lack of credit.
 */
enum class TelemetryEventClass : std::uint8_t {
    BufferWrite,     ///< BW: flit written into an input VC FIFO
    VaGrant,         ///< VA: head received an output VC
    SaGrant,         ///< SA: non-speculative switch grant
    SwitchTraverse,  ///< ST: flit crossed the crossbar
    LinkTraverse,    ///< LT: flit placed on a link (arg = wire delay)
    PcCreate,        ///< pseudo-circuit established by an SA grant
    PcReuseSa,       ///< reuse from the buffer (SA bypass, §3.B)
    PcReuseBuffer,   ///< reuse through the arrival latch (§4.B)
    PcTerminate,     ///< arg: TerminateReason
    PcSpeculate,     ///< circuit revived from history (§4.A)
    PcSpecHit,       ///< revived circuit produced a reuse
    PcSpecMiss,      ///< revived circuit died unused
    CreditStall,     ///< active VC blocked on downstream credits
    ExpressBypass,   ///< EVC flit latched through an intermediate hop
};

/// TelemetryEvent::arg values for PcTerminate.
enum class TerminateReason : std::uint8_t { Conflict = 0, Credit = 1, Fault = 2 };

inline constexpr int kNumTelemetryClasses = 14;

/// Bit for one class in a TelemetryConfig::classMask.
constexpr std::uint32_t
telemetryClassBit(TelemetryEventClass cls)
{
    return std::uint32_t{1} << static_cast<unsigned>(cls);
}

inline constexpr std::uint32_t kAllTelemetryClasses =
    (std::uint32_t{1} << kNumTelemetryClasses) - 1;

/** Short stable name ("pc-create", "bw", ...) used by exporters. */
const char *toString(TelemetryEventClass cls);

/**
 * Parse a comma-separated class list into a mask. Accepts the
 * per-class names from toString() plus the group aliases `all`,
 * `pipeline` (bw/va/sa/st/lt), `pc` (the pseudo-circuit lifecycle),
 * `credit` and `link`. Fatals on unknown names.
 */
std::uint32_t telemetryMaskFromSpec(const std::string &spec);

/** One recorded event; 24 bytes, trivially copyable. */
struct TelemetryEvent
{
    Cycle cycle = 0;
    RouterId router = kInvalidRouter;
    std::int16_t port = -1;   ///< input port (arrival side) of the event
    std::int8_t vc = -1;
    TelemetryEventClass cls = TelemetryEventClass::BufferWrite;
    std::uint8_t arg = 0;     ///< class-specific (reason, wire delay, ...)

    friend bool operator==(const TelemetryEvent &a, const TelemetryEvent &b)
    {
        return a.cycle == b.cycle && a.router == b.router &&
               a.port == b.port && a.vc == b.vc && a.cls == b.cls &&
               a.arg == b.arg;
    }
};

/** Runtime gating knobs; default-accept everything once attached. */
struct TelemetryConfig
{
    bool enabled = false;     ///< sweep jobs: attach a collector at all?
    Cycle startCycle = 0;     ///< sampling window, inclusive
    Cycle endCycle = kNeverCycle;
    std::uint32_t classMask = kAllTelemetryClasses;
    /// Events a collector keeps; past it the oldest are overwritten.
    std::size_t capacity = std::size_t{1} << 20;
};

/** Rolled-up per-class event counts (merged into SimResult). */
struct TelemetryCounters
{
    std::array<std::uint64_t, kNumTelemetryClasses> perClass{};
    std::uint64_t recorded = 0;  ///< events accepted past the gate
    std::uint64_t dropped = 0;   ///< accepted but overwritten in the ring

    std::uint64_t count(TelemetryEventClass cls) const
    {
        return perClass[static_cast<std::size_t>(cls)];
    }
};

/**
 * Destination for instrumentation events. The gate (window + mask) and
 * the per-class tally live in the base so record() stays cheap and
 * counters are exact even when a bounded collector drops events.
 */
class TelemetrySink
{
  public:
    explicit TelemetrySink(const TelemetryConfig &cfg = {}) : cfg_(cfg) {}
    virtual ~TelemetrySink() = default;

    bool accepts(TelemetryEventClass cls, Cycle cycle) const
    {
        return cycle >= cfg_.startCycle && cycle <= cfg_.endCycle &&
               (cfg_.classMask & telemetryClassBit(cls)) != 0;
    }

    /**
     * Build one event, gate it, count it and push it: the only place a
     * hook's event is built. Out of line, so an attached hook is one
     * call (see recordTelemetry).
     */
    void record(TelemetryEventClass cls, Cycle now, RouterId router,
                PortId port, VcId vc, std::uint8_t arg);

    const TelemetryConfig &config() const { return cfg_; }
    const TelemetryCounters &counters() const { return counters_; }

  protected:
    virtual void push(const TelemetryEvent &ev) = 0;

    TelemetryConfig cfg_;
    TelemetryCounters counters_;
};

/**
 * The one telemetry hook: record an event at (router, port, vc) through
 * `sink`, which may be null. Unattached, a hook is this null test;
 * attached, it is one out-of-line call.
 */
inline void
recordTelemetry(TelemetrySink *sink, TelemetryEventClass cls, Cycle now,
                RouterId router, PortId port, VcId vc, std::uint8_t arg = 0)
{
    if (sink)
        sink->record(cls, now, router, port, vc, arg);
}

/**
 * Bounded single-producer collector: appends events until it holds
 * `capacity` of them, then overwrites the oldest (counted as dropped),
 * so a long run keeps its most recent window. events() returns the
 * surviving events oldest-first.
 */
class RingBufferCollector : public TelemetrySink
{
  public:
    explicit RingBufferCollector(const TelemetryConfig &cfg = {});

    /** Surviving events in chronological (record) order. */
    std::vector<TelemetryEvent> events() const;

    std::size_t size() const { return ring_.size(); }

  protected:
    void push(const TelemetryEvent &ev) override;

  private:
    std::vector<TelemetryEvent> ring_;  ///< grows to capacity, then wraps
    std::size_t head_ = 0;   ///< oldest event, next to overwrite once full
};

/** One run's worth of collected telemetry, labelled for exporters. */
struct TelemetryTrace
{
    std::string label;
    std::vector<TelemetryEvent> events;
    TelemetryCounters counters;
};

} // namespace noc

#endif // NOC_TELEMETRY_TELEMETRY_HPP
