/**
 * @file
 * The pipelined virtual-channel router (paper §3.A, Fig 2) with the
 * pseudo-circuit scheme (§3), pseudo-circuit speculation and buffer
 * bypassing (§4), and an EVC mode (§7.B).
 *
 * Pipeline (Fig 6), in cycles of per-hop router delay:
 *   Baseline      BW | VA+SA | ST   (3)
 *   Pseudo        BW | ST          (2)   — SA bypassed on a circuit match
 *   Pseudo+B      ST               (1)   — arrival-cycle switch traversal
 * plus one link-traversal cycle per grid hop in all configurations.
 *
 * Simulation structure per cycle (driven by Network):
 *   1. deliverFlit()/deliverCredit() for everything arriving this cycle
 *      (buffer write, or bypass-latch capture);
 *   2. step() on an awake() router: switch-traversal phase (SA winners
 *      from the previous cycle, then latched flits, then pseudo-circuit
 *      buffered bypasses), followed by the allocation phase (VA,
 *      speculative SA, pseudo-circuit creation/termination/speculation).
 *      A quiescent router is not visited at all: step() would only
 *      rotate VA, so the next step() first applies the rotations owed
 *      since the last one, and holdRotation() exempts the cycles a stall
 *      clause froze.
 * Outputs accumulate in sentFlits/sentCredits for the caller to drain.
 *
 * Every scheme runs this one pipeline: a scheme only decides which
 * stages a flit may skip, so its predicates are constants fixed at
 * construction. Per-port state that step() would otherwise scan is kept
 * as 64-bit words beside the state it summarizes: VC occupancy, latched
 * inputs, crossbar use, valid circuits, circuit-driven outputs,
 * speculation candidates, credited VCs and outputs with a dry drop.
 * Every loop in step() walks set bits in ascending order, which bounds
 * a router to kMaxVcs VCs and kMaxRadix ports (common/config.hpp). The
 * pseudo-circuit upkeep is event-driven the same way: a credit check
 * visits only circuits whose output has a dry drop, and speculation
 * only outputs with a live candidate.
 */

#ifndef NOC_ROUTER_ROUTER_HPP
#define NOC_ROUTER_ROUTER_HPP

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "router/evc.hpp"
#include "router/flit.hpp"
#include "router/input_unit.hpp"
#include "router/output_unit.hpp"
#include "router/pseudo_circuit.hpp"
#include "router/switch_allocator.hpp"
#include "router/vc_allocator.hpp"
#include "profile/profile.hpp"
#include "telemetry/telemetry.hpp"

namespace noc {

class Topology;
class RoutingAlgorithm;
class InvariantChecker;

/** Per-router event counters (drive energy, reusability and locality). */
struct RouterStats
{
    std::uint64_t flitsArrived = 0;
    std::uint64_t bufferWrites = 0;
    std::uint64_t bufferReads = 0;
    std::uint64_t xbarTraversals = 0;
    std::uint64_t vaGrants = 0;
    std::uint64_t saGrants = 0;
    std::uint64_t saBypasses = 0;      ///< circuit reuse from the buffer
    std::uint64_t bufferBypasses = 0;  ///< circuit reuse through the latch
    std::uint64_t headTraversals = 0;  ///< head flits through the switch
    std::uint64_t headSaBypasses = 0;  ///< heads reusing from the buffer
    std::uint64_t headBufferBypasses = 0;  ///< heads through the latch
    std::uint64_t expressBypasses = 0; ///< EVC intermediate-hop traversals
    std::uint64_t wastedGrants = 0;    ///< speculation / preemption losses

    /// Crossbar-connection temporal locality (Fig 1): per-input-port
    /// consecutive packets using the same output port.
    std::uint64_t localityHeads = 0;
    std::uint64_t localityHits = 0;

    /** Flits that reused a pseudo-circuit. */
    std::uint64_t circuitReuses() const
    {
        return saBypasses + bufferBypasses;
    }
};

class Router
{
  public:
    /** A flit leaving through an output channel. */
    struct SentFlit
    {
        PortId outPort = kInvalidPort;
        int drop = 0;
        Flit flit;
    };

    /** A credit leaving upstream through an input port. */
    struct SentCredit
    {
        PortId inPort = kInvalidPort;
        VcId vc = kInvalidVc;
        bool express = false;
    };

    /** Fatal when the topology gives router `id` more than kMaxRadix
     *  input or output ports. */
    Router(const SimConfig &cfg, const Topology &topo,
           const RoutingAlgorithm &routing, RouterId id);

    RouterId id() const { return id_; }
    int numInputPorts() const
    {
        return static_cast<int>(vcs_.size()) / cfg_.numVcs;
    }
    int numOutputPorts() const { return static_cast<int>(outputs_.size()); }
    int numVcs() const { return cfg_.numVcs; }

    /** Arrival of a flit on an input port at cycle `now` (phase 1). */
    void deliverFlit(PortId in_port, const Flit &flit, Cycle now);

    /** Arrival of a credit for one of this router's outputs (phase 1). */
    void deliverCredit(const Credit &credit, Cycle now);

    /** One cycle of switch traversal + allocation (phase 2). */
    void step(Cycle now);

    /**
     * Whether step() may have work to do. deliverFlit(), deliverCredit()
     * and faultTeardown() set it; step() clears it when it ends with no
     * buffered flit and no pending switch grant (the same cycle's
     * traversal always empties the latches). A router that is not awake
     * need not be stepped: on it step() would only advance the VA
     * rotation, and the next step() applies every rotation owed since
     * the last one (docs/architecture.md §13 has the argument).
     */
    bool awake() const { return awake_; }

    /**
     * A stall clause freezes this router at `now`: the cycle does not
     * advance the VA rotation. Call it for every frozen cycle, before
     * the next step(); calling it twice in one cycle is harmless.
     */
    void holdRotation(Cycle now)
    {
        settleRotation(now);
        rotateFrom_ = std::max(rotateFrom_, now + 1);
    }

    /**
     * Fault layer: the link feeding `in_port` rejected a flit (CRC
     * fail), so any pseudo-circuit cached at that input is stale and
     * must be rebuilt by the retransmitted stream. Returns true when a
     * live circuit was actually torn down (for teardown accounting);
     * always false for schemes without pseudo-circuits.
     */
    bool faultTeardown(PortId in_port, Cycle now);

    /**
     * Attach a telemetry sink (nullptr detaches). Pipeline-stage and
     * pseudo-circuit lifecycle events are emitted at the same points
     * the RouterStats counters increment, so event counts reconcile
     * exactly with the aggregate statistics.
     */
    void setTelemetry(TelemetrySink *sink)
    {
        telem_ = sink;
        pc_.attachTelemetry(sink, id_);
    }

    /** Attach an invariant checker (nullptr detaches). */
    void setVerifier(InvariantChecker *chk) { vchk_ = chk; }

    /** Attach a phase profiler (nullptr detaches). The fine per-phase
     *  scopes inside the pipeline run only on the profiler's sampling
     *  cycles (PhaseProfiler::fine()). */
    void setProfiler(PhaseProfiler *prof) { prof_ = prof; }

    /** Bytes of VC flit storage: ports x VCs x depth slots. */
    std::uint64_t arenaBytes() const
    {
        return vcs_.size() * static_cast<std::uint64_t>(cfg_.bufferDepth) *
               sizeof(BufferedFlit);
    }

    /** Flits/credits produced by the latest step(); caller clears. */
    std::vector<SentFlit> sentFlits;
    std::vector<SentCredit> sentCredits;

    const RouterStats &stats() const { return stats_; }
    const PseudoCircuitStats &pcStats() const { return pc_.stats(); }
    const PseudoCircuitUnit &pcUnit() const { return pc_; }
    const InputVc &inputVc(PortId p, VcId v) const
    {
        return vcs_[static_cast<std::size_t>(p) * cfg_.numVcs + v];
    }
    const OutputPort &outputPort(PortId p) const { return outputs_[p]; }

    /** Bit o set ⇔ outputPort(o).anyDryDrop(). */
    std::uint64_t dryOutputs() const { return dryOut_; }

  private:
    InputVc &inVc(PortId p, VcId v)
    {
        return vcs_[static_cast<std::size_t>(p) * cfg_.numVcs + v];
    }

    bool pendingUsesInput(PortId in_port) const;
    bool pendingUsesOutput(PortId out_port) const;

    /** VC range this head flit may be allocated into at this router
     *  (position-dependent for torus dateline classes). */
    std::pair<VcId, int> vaRange(const Flit &head) const;

    /** Try to capture an arriving flit in the buffer-bypass latch. */
    bool tryBufferBypass(PortId in_port, const Flit &flit, Cycle now);

    /** Head-flit VA performed outside the allocation phase (§3.B: "VA is
     *  performed independently"); returns the granted VC or kInvalidVc. */
    VcId independentVa(const Flit &head, const RouteDecision &route);

    /** Advance the VA start index by one flat (in, vc) position. */
    void rotateVa()
    {
        if (++vaRotate_ == vaSpan_)
            vaRotate_ = 0;
    }

    /** Apply the rotations of cycles [rotateFrom_, now): each one a
     *  cycle the router was neither stepped nor held. */
    void settleRotation(Cycle now)
    {
        if (now > rotateFrom_)
            vaRotate_ = static_cast<int>(
                (static_cast<Cycle>(vaRotate_) +
                 (now - rotateFrom_) % static_cast<Cycle>(vaSpan_)) %
                static_cast<Cycle>(vaSpan_));
    }

    void switchPhase(Cycle now);
    void vaPhase(Cycle now);
    void saPhase(Cycle now);
    void doVa(PortId in_port, VcId in_vc, Cycle now);

    /** True if this VC's front flit will traverse via the standing
     *  pseudo-circuit, so it must not request SA (§3.B). */
    bool willUseCircuit(PortId in_port, VcId in_vc) const;

    /**
     * Move one flit through the crossbar onto its output channel,
     * handling credits, ownership release, lookahead routing and stats.
     * `from_buffer` distinguishes buffered flits (buffer-read energy,
     * upstream credit) from latched ones (credit only).
     */
    void traverse(PortId in_port, Flit flit, const RouteDecision &route,
                  VcId out_vc, bool express_out, bool from_buffer,
                  Cycle now);

    /** Dequeue the front flit of a VC, keeping the occupancy words. */
    Flit dequeueTracked(PortId in_port, VcId in_vc);

    /** Bookkeeping for one switch grant (a speculative one is wasted). */
    void processSaGrant(const SaGrant &g, Cycle now);

    /** EVC: move an express flit through the intermediate-hop latch. */
    void traverseExpress(PortId in_port, Flit flit, Cycle now);

    void creditTerminations(Cycle now);
    void speculate(Cycle now);
    void noteLocality(PortId in_port, PortId out_port);

    const SimConfig cfg_;
    const Topology &topo_;
    const RoutingAlgorithm &routing_;
    const RouterId id_;

    // Scheme predicates, fixed at construction.
    const bool pcEnabled_;    ///< pseudo-circuits (every Pseudo* scheme)
    const bool specEnabled_;  ///< circuit speculation (+S, §4.A)
    const bool bbEnabled_;    ///< buffer bypassing (+B, §4.B)
    const bool evcEnabled_;   ///< express virtual channels (§7.B)

    std::vector<InputVc> vcs_;   ///< [port * numVcs + vc]
    std::vector<OutputPort> outputs_;
    PseudoCircuitUnit pc_;
    EvcUnit evc_;
    VcAllocator va_;
    SwitchAllocator sa_;

    std::vector<SaGrant> pendingGrants_;  ///< execute next cycle
    std::vector<Flit> bypassLatch_;       ///< per input port
    std::vector<Flit> expressLatch_;      ///< per input port
    std::uint64_t bypassLatched_ = 0;     ///< bit in: bypassLatch_[in] full
    std::uint64_t expressLatched_ = 0;    ///< bit in: expressLatch_[in] full
    /// Crossbar ports switchPhase() has moved a flit through this cycle.
    std::uint64_t usedIn_ = 0;
    std::uint64_t usedOut_ = 0;
    std::uint64_t connectedOut_ = 0;      ///< bit o: outputs_[o].connected()
    /// Bit o: outputs_[o].anyDryDrop(). Only traverse() takes and only
    /// deliverCredit() returns a normal VC's credit, so they keep it.
    std::uint64_t dryOut_ = 0;
    int vaRotate_ = 0;   ///< flat (in * numVcs + vc) index VA starts at
    const int vaSpan_;   ///< numInputPorts() * numVcs: where it wraps
    Cycle rotateFrom_ = 0;  ///< first cycle whose rotation is not applied
    bool awake_ = false; ///< see awake()

    /// Bit v of vcOcc_[in] is set ⇔ input VC (in, v) buffers a flit;
    /// bit in of portOcc_ is set ⇔ vcOcc_[in] != 0. The allocation
    /// loops visit only these VCs: an empty VC cannot pass frontReady().
    std::vector<std::uint64_t> vcOcc_;
    std::uint64_t portOcc_ = 0;

    std::vector<PortId> lastOutPort_;  ///< per input port, for locality

    RouterStats stats_;
    TelemetrySink *telem_ = nullptr;
    InvariantChecker *vchk_ = nullptr;
    PhaseProfiler *prof_ = nullptr;      ///< attached profiler (may be null)
    PhaseProfiler *fineProf_ = nullptr;  ///< non-null on sampling cycles only
};

} // namespace noc

#endif // NOC_ROUTER_ROUTER_HPP
