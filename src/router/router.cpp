#include "router/router.hpp"

#include <algorithm>
#include <string>

#include "common/log.hpp"
#include "routing/routing.hpp"
#include "topology/topology.hpp"
#include "verify/verify.hpp"

namespace noc {

Router::Router(const SimConfig &cfg, const Topology &topo,
               const RoutingAlgorithm &routing, RouterId id)
    : cfg_(cfg), topo_(topo), routing_(routing), id_(id),
      pcEnabled_(cfg.scheme == Scheme::Pseudo ||
                 cfg.scheme == Scheme::PseudoS ||
                 cfg.scheme == Scheme::PseudoB ||
                 cfg.scheme == Scheme::PseudoSB),
      specEnabled_(cfg.scheme == Scheme::PseudoS ||
                   cfg.scheme == Scheme::PseudoSB),
      bbEnabled_(cfg.scheme == Scheme::PseudoB ||
                 cfg.scheme == Scheme::PseudoSB),
      evcEnabled_(cfg.scheme == Scheme::Evc),
      pc_(topo.numInputPorts(id), topo.numOutputPorts(id),
          cfg.pcHistoryDepth),
      va_(cfg.vaPolicy),
      sa_(topo.numInputPorts(id), topo.numOutputPorts(id), cfg.numVcs),
      vaSpan_(topo.numInputPorts(id) * cfg.numVcs)
{
    const int num_in = topo.numInputPorts(id);
    const int num_out = topo.numOutputPorts(id);
    const int radix = std::max(num_in, num_out);
    if (radix > kMaxRadix)
        NOC_FATAL("router " + std::to_string(id) + " has " +
                  std::to_string(radix) + " ports; at most " +
                  std::to_string(kMaxRadix) +
                  " fit the router's allocation masks");
    NOC_ASSERT(cfg.numVcs <= kMaxVcs,
               "more VCs than an occupancy word holds");

    vcs_.reserve(static_cast<std::size_t>(num_in) * cfg.numVcs);
    for (int i = 0; i < num_in * cfg.numVcs; ++i)
        vcs_.emplace_back(cfg.bufferDepth);

    outputs_.reserve(num_out);
    for (int p = 0; p < num_out; ++p) {
        const OutputChannel &chan = topo.output(id, p);
        const int drops = chan.isTerminal()
            ? 1
            : static_cast<int>(chan.drops.size());
        outputs_.emplace_back(drops, cfg.numVcs, cfg.bufferDepth);
        if (outputs_.back().connected())
            connectedOut_ |= 1ull << p;
        if (outputs_.back().anyDryDrop())
            dryOut_ |= 1ull << p;
    }

    if (evcEnabled_) {
        evc_ = EvcUnit(cfg, topo);
        for (int p = 0; p < num_out; ++p) {
            if (topo.output(id, p).isTerminal())
                continue;
            if (evc_.twoHopSink(id, p) != kInvalidRouter) {
                outputs_[p].initExpress(evc_.expressBase(),
                                        evc_.numExpress(), cfg.bufferDepth);
            }
        }
    }

    pendingGrants_.reserve(num_out);
    bypassLatch_.resize(num_in);
    expressLatch_.resize(num_in);
    vcOcc_.assign(num_in, 0);
    lastOutPort_.assign(num_in, kInvalidPort);
}

bool
Router::pendingUsesInput(PortId in_port) const
{
    for (const SaGrant &g : pendingGrants_) {
        if (g.inPort == in_port)
            return true;
    }
    return false;
}

bool
Router::pendingUsesOutput(PortId out_port) const
{
    for (const SaGrant &g : pendingGrants_) {
        if (g.outPort == out_port)
            return true;
    }
    return false;
}

std::pair<VcId, int>
Router::vaRange(const Flit &head) const
{
    if (evcEnabled_)
        return {0, evc_.numNormal()};
    return routing_.vcRangeAt(id_, head.src, head.dst, head.cls,
                              cfg_.numVcs);
}

void
Router::deliverFlit(PortId in_port, const Flit &flit, Cycle now)
{
    awake_ = true;
    ++stats_.flitsArrived;
    NOC_ASSERT(flit.vc >= 0 && flit.vc < cfg_.numVcs, "flit VC out of range");

    if (evcEnabled_ && flit.evcHopsLeft > 0) {
        // Express flits pass through the latch this very cycle (§7.B).
        NOC_ASSERT(!(expressLatched_ & (1ull << in_port)),
                   "two flits on one input port in one cycle");
        expressLatch_[in_port] = flit;
        expressLatched_ |= 1ull << in_port;
        return;
    }

    if (bbEnabled_ && tryBufferBypass(in_port, flit, now))
        return;

    InputVc &vc = inVc(in_port, flit.vc);
    vc.enqueue(flit, now + 1);   // BW occupies this cycle
    vcOcc_[in_port] |= 1ull << flit.vc;
    portOcc_ |= 1ull << in_port;
    ++stats_.bufferWrites;
    recordTelemetry(telem_, TelemetryEventClass::BufferWrite, now, id_,
                    in_port, flit.vc);
}

void
Router::deliverCredit(const Credit &credit, Cycle now)
{
    // Credit loss injection lives in the fault layer now: the network
    // consults FaultController::dropCredit() before calling here.
    awake_ = true;
    OutputPort &op = outputs_[credit.outPort];
    if (credit.express) {
        ++op.expressVc(credit.vc).credits;
        NOC_ASSERT(op.expressVc(credit.vc).credits <= cfg_.bufferDepth,
                   "express credit overflow");
    } else {
        op.addCredit(credit.drop, credit.vc);
        NOC_ASSERT(op.vc(credit.drop, credit.vc).credits <= cfg_.bufferDepth,
                   "credit overflow");
        if (!op.anyDryDrop())
            dryOut_ &= ~(1ull << credit.outPort);
    }
    NOC_VCHK(vchk_, onCreditReturned(id_, credit.outPort, credit.drop,
                                     credit.vc, credit.express, now));
}

bool
Router::faultTeardown(PortId in_port, Cycle now)
{
    awake_ = true;
    if (!pcEnabled_)
        return false;
    return pc_.terminateForFault(in_port, now);
}

VcId
Router::independentVa(const Flit &head, const RouteDecision &route)
{
    const auto [base, count] = vaRange(head);
    OutputPort &op = outputs_[route.outPort];
    const VcId w = va_.choose(op, route.drop, base, count, head.dst);
    if (w == kInvalidVc || op.vc(route.drop, w).credits <= 0)
        return kInvalidVc;
    return w;
}

bool
Router::tryBufferBypass(PortId in_port, const Flit &flit, Cycle now)
{
    const PseudoCircuitUnit::Register &reg = pc_.at(in_port);
    if (!reg.valid || reg.inVc != flit.vc)
        return false;
    InputVc &vc = inVc(in_port, flit.vc);
    if (!vc.empty())
        return false;
    NOC_ASSERT(!(bypassLatched_ & (1ull << in_port)),
               "bypass latch already holds a flit");
    // A switch grant scheduled for this cycle claims the crossbar port.
    if (pendingUsesInput(in_port) || pendingUsesOutput(reg.route.outPort))
        return false;

    OutputPort &op = outputs_[reg.route.outPort];
    if (isHead(flit.type)) {
        if (vc.state() != InputVc::State::Idle)
            return false;
        if (!(flit.route == reg.route))
            return false;
        const VcId w = independentVa(flit, reg.route);
        if (w == kInvalidVc)
            return false;
        vc.startPacket(flit.route);
        op.allocate(reg.route.drop, w, in_port, flit.vc);
        vc.activate(w, /*express=*/false);
        ++stats_.vaGrants;
        recordTelemetry(telem_, TelemetryEventClass::VaGrant, now, id_,
                        in_port, flit.vc);
    } else {
        if (vc.state() != InputVc::State::Active)
            return false;
        if (!(vc.route() == reg.route) || vc.outVcExpress())
            return false;
        if (op.vc(reg.route.drop, vc.outVc()).credits <= 0) {
            // §4.B: output out of credit before the flit arrives — the
            // circuit is terminated and the latch turned off.
            pc_.terminateForCredit(in_port, now);
            return false;
        }
    }
    bypassLatch_[in_port] = flit;
    bypassLatched_ |= 1ull << in_port;
    return true;
}

Flit
Router::dequeueTracked(PortId in_port, VcId in_vc)
{
    InputVc &vc = inVc(in_port, in_vc);
    const Flit flit = vc.dequeue();
    if (vc.empty()) {
        vcOcc_[in_port] &= ~(1ull << in_vc);
        if (vcOcc_[in_port] == 0)
            portOcc_ &= ~(1ull << in_port);
    }
    return flit;
}

void
Router::step(Cycle now)
{
    // Catch up the VA rotations of the cycles since the last step (or
    // hold); vaPhase() then rotates once for this one.
    settleRotation(now);
    rotateFrom_ = now + 1;
    // Latch the fine profiler once per step: null on non-sampled cycles,
    // so every scope below degrades to a single pointer test.
    fineProf_ = prof_ ? prof_->fine() : nullptr;
    {
        NOC_PROF_SCOPE(fineProf_, SwitchTraversal);
        switchPhase(now);
    }
    {
        NOC_PROF_SCOPE(fineProf_, VcAlloc);
        vaPhase(now);
    }
    {
        NOC_PROF_SCOPE(fineProf_, SwitchAlloc);
        saPhase(now);
    }
    awake_ = portOcc_ != 0 || !pendingGrants_.empty();
}

void
Router::switchPhase(Cycle now)
{
    usedIn_ = 0;
    usedOut_ = 0;

    // Steps 1, 3 and 4 walk a word read before the walk, in ascending
    // port order, and visit exactly the ports the per-port scan they
    // replace did not skip. Handling input `in` changes only its own
    // latch, valid and occupancy bits, its usedIn_ bit and its output's
    // usedOut_ bit, so the words stay exact for the ports still ahead;
    // usedOut_ alone is re-tested at each visit (docs/architecture.md
    // §13).

    // 1. EVC express latches — highest priority, preempting local grants.
    for (std::uint64_t ins = expressLatched_; ins != 0; ins &= ins - 1) {
        const PortId in = lowestSetBit(ins);
        const Flit &flit = expressLatch_[in];
        NOC_ASSERT(!(usedIn_ & (1ull << in)) &&
                       !(usedOut_ & (1ull << flit.route.outPort)),
                   "express flits collided in the crossbar");
        traverseExpress(in, flit, now);
    }
    expressLatched_ = 0;

    // 2. Switch grants from last cycle's allocation.
    for (const SaGrant &g : pendingGrants_) {
        if ((usedIn_ & (1ull << g.inPort)) ||
            (usedOut_ & (1ull << g.outPort))) {
            ++stats_.wastedGrants;   // preempted by an express flit
            continue;
        }
        InputVc &vc = inVc(g.inPort, g.inVc);
        NOC_ASSERT(vc.state() == InputVc::State::Active,
                   "switch grant for an inactive VC");
        NOC_ASSERT(vc.frontReady(now), "switch grant for an absent flit");
        const RouteDecision route = vc.route();
        NOC_ASSERT(route.outPort == g.outPort, "grant/route mismatch");
        const VcId out_vc = vc.outVc();
        const bool express_out = vc.outVcExpress();
        const Flit flit = dequeueTracked(g.inPort, g.inVc);
        traverse(g.inPort, flit, route, out_vc, express_out,
                 /*from_buffer=*/true, now);
    }
    pendingGrants_.clear();

    // 3. Buffer-bypass latches (validated at arrival this cycle).
    for (std::uint64_t ins = bypassLatched_; ins != 0; ins &= ins - 1) {
        const PortId in = lowestSetBit(ins);
        const Flit &flit = bypassLatch_[in];
        InputVc &vc = inVc(in, flit.vc);
        NOC_ASSERT(vc.state() == InputVc::State::Active,
                   "latched flit on an inactive VC");
        const RouteDecision route = vc.route();
        NOC_ASSERT(!(usedIn_ & (1ull << in)) &&
                       !(usedOut_ & (1ull << route.outPort)),
                   "bypass latch lost its crossbar slot");
        const VcId out_vc = vc.outVc();
        vc.noteBypassedFlit(flit);
        ++stats_.bufferBypasses;
        pc_.noteReuse(in, /*via_latch=*/true, now);
        NOC_VCHK(vchk_, onPcReuse(id_, in, flit.vc, route, flit,
                                  /*via_latch=*/true, now));
        if (isHead(flit.type))
            ++stats_.headBufferBypasses;
        traverse(in, flit, route, out_vc, /*express_out=*/false,
                 /*from_buffer=*/false, now);
    }
    bypassLatched_ = 0;

    // 4. Pseudo-circuit reuse straight from the buffers (SA bypass, §3.B).
    // Only a valid circuit at an input with a buffered flit and a free
    // crossbar input can move: an empty VC fails frontReady().
    for (std::uint64_t ins = pc_.validInputs() & portOcc_ & ~usedIn_;
         ins != 0; ins &= ins - 1) {
        const PortId in = lowestSetBit(ins);
        const PseudoCircuitUnit::Register &reg = pc_.at(in);
        if (usedOut_ & (1ull << reg.route.outPort))
            continue;
        InputVc &vc = inVc(in, reg.inVc);
        if (!vc.frontReady(now))
            continue;
        const Flit &front = vc.front().flit;

        VcId out_vc = kInvalidVc;
        if (vc.state() == InputVc::State::WaitingVa) {
            // Head reusing the circuit; VA runs independently (§3.B).
            NOC_ASSERT(isHead(front.type), "WaitingVa without a head");
            if (!(front.route == reg.route))
                continue;
            out_vc = independentVa(front, reg.route);
            if (out_vc == kInvalidVc)
                continue;
            outputs_[reg.route.outPort].allocate(reg.route.drop, out_vc,
                                                 in, reg.inVc);
            vc.activate(out_vc, /*express=*/false);
            ++stats_.vaGrants;
            recordTelemetry(telem_, TelemetryEventClass::VaGrant, now, id_,
                            in, reg.inVc);
        } else if (vc.state() == InputVc::State::Active) {
            if (!(vc.route() == reg.route) || vc.outVcExpress())
                continue;
            if (outputs_[reg.route.outPort]
                    .vc(reg.route.drop, vc.outVc()).credits <= 0) {
                // §3.C: a flit attempting a circuit whose output has no
                // credit terminates it ("the circuit guarantees credit
                // availability"); speculation may revive it once the
                // congestion clears.
                pc_.terminateForCredit(in, now);
                continue;
            }
            out_vc = vc.outVc();
        } else {
            continue;
        }

        const RouteDecision route = vc.route();
        const Flit flit = dequeueTracked(in, reg.inVc);
        ++stats_.saBypasses;
        pc_.noteReuse(in, /*via_latch=*/false, now);
        NOC_VCHK(vchk_, onPcReuse(id_, in, reg.inVc, route, flit,
                                  /*via_latch=*/false, now));
        if (isHead(flit.type))
            ++stats_.headSaBypasses;
        traverse(in, flit, route, out_vc, /*express_out=*/false,
                 /*from_buffer=*/true, now);
    }
}

void
Router::processSaGrant(const SaGrant &g, Cycle now)
{
    if (g.speculative) {
        ++stats_.wastedGrants;   // VA failed: crossbar slot wasted
        return;
    }
    ++stats_.saGrants;
    recordTelemetry(telem_, TelemetryEventClass::SaGrant, now, id_,
                    g.inPort, g.inVc);
    if (pcEnabled_)
        pc_.onGrant(g.inPort, g.inVc,
                    inputVc(g.inPort, g.inVc).route(), now);
    NOC_VCHK(vchk_, onSaGrant(id_, g.inPort, g.inVc,
                              inputVc(g.inPort, g.inVc).route(),
                              now));
    pendingGrants_.push_back(g);
}

void
Router::vaPhase(Cycle now)
{
    // VA visits VCs in rotating flat (in * numVcs + vc) order for
    // fairness: indices from vaRotate_ upwards, then the wrapped ones
    // below it. Only occupied VCs can hold a ready head.
    const int num_vcs = cfg_.numVcs;
    rotateVa();
    if (portOcc_ == 0)
        return;

    auto visit = [&](PortId in, std::uint64_t vcs) {
        for (; vcs != 0; vcs &= vcs - 1) {
            const VcId v = lowestSetBit(vcs);
            InputVc &vc = inVc(in, v);
            if (vc.state() == InputVc::State::WaitingVa &&
                vc.frontReady(now))
                doVa(in, v, now);
        }
    };
    auto visitPorts = [&](std::uint64_t ports) {
        for (; ports != 0; ports &= ports - 1) {
            const PortId in = lowestSetBit(ports);
            visit(in, vcOcc_[in]);
        }
    };
    const PortId rot_in = vaRotate_ / num_vcs;
    const std::uint64_t rot_bit = 1ull << rot_in;
    const std::uint64_t from_rot = ~0ull << (vaRotate_ % num_vcs);
    visit(rot_in, vcOcc_[rot_in] & from_rot);
    visitPorts(portOcc_ & ~(rot_bit | (rot_bit - 1)));
    visitPorts(portOcc_ & (rot_bit - 1));
    visit(rot_in, vcOcc_[rot_in] & ~from_rot);
}

void
Router::saPhase(Cycle now)
{
    // --- speculative SA: requests in ascending (in, vc) order ---
    for (std::uint64_t ports = portOcc_; ports != 0; ports &= ports - 1) {
        const PortId in = lowestSetBit(ports);
        for (std::uint64_t vcs = vcOcc_[in]; vcs != 0; vcs &= vcs - 1) {
            const VcId v = lowestSetBit(vcs);
            const InputVc &vc = inputVc(in, v);
            if (!vc.frontReady(now))
                continue;
            // Flits that will ride the standing pseudo-circuit do not
            // request SA at all (§3.B: "the following flits coming to
            // the same VC can bypass SA until the circuit is
            // terminated") — which also frees the allocator for other
            // VCs at this input port.
            if (willUseCircuit(in, v))
                continue;
            if (vc.state() == InputVc::State::Active) {
                const RouteDecision &r = vc.route();
                const int credits = vc.outVcExpress()
                    ? outputs_[r.outPort].expressVc(vc.outVc()).credits
                    : outputs_[r.outPort].vc(r.drop, vc.outVc()).credits;
                if (credits <= 0) {
                    // SA arbitrates on credit availability
                    recordTelemetry(telem_, TelemetryEventClass::CreditStall,
                                    now, id_, in, v);
                    continue;
                }
                sa_.request(in, v, r.outPort, /*speculative=*/false);
            } else if (vc.state() == InputVc::State::WaitingVa) {
                // Head whose VA just failed: speculative request.
                sa_.request(in, v, vc.route().outPort,
                            /*speculative=*/true);
            }
        }
    }
    for (const SaGrant &g : sa_.allocate())
        processSaGrant(g, now);

    if (pcEnabled_)
        creditTerminations(now);
    if (specEnabled_)
        speculate(now);
}

void
Router::doVa(PortId in_port, VcId in_vc, Cycle now)
{
    InputVc &vc = inVc(in_port, in_vc);
    const Flit &head = vc.front().flit;
    NOC_ASSERT(isHead(head.type), "VA requested by a non-head flit");
    const RouteDecision &route = vc.route();
    OutputPort &op = outputs_[route.outPort];
    NOC_ASSERT(op.connected(), "VA towards an unconnected output");

    // EVC: express VCs are preferred whenever the packet still travels at
    // least lmax hops in this dimension.
    if (evcEnabled_ && op.hasExpress() &&
        evc_.eligible(id_, head.dst, route)) {
        VcId best = kInvalidVc;
        int best_credits = -1;
        for (VcId w = evc_.expressBase(); w < cfg_.numVcs; ++w) {
            const OutputVcState &s = op.expressVc(w);
            if (!s.owned && s.credits > best_credits) {
                best = w;
                best_credits = s.credits;
            }
        }
        if (best != kInvalidVc) {
            OutputVcState &s = op.expressVc(best);
            s.owned = true;
            s.ownerPort = in_port;
            s.ownerVc = in_vc;
            vc.activate(best, /*express=*/true);
            ++stats_.vaGrants;
            recordTelemetry(telem_, TelemetryEventClass::VaGrant, now, id_,
                            in_port, in_vc);
            return;
        }
    }

    // Failed-VA memo: while the target port's version is unchanged since
    // this head last failed, choose() would fail again — skip it. This is
    // behaviour-preserving (not just faster): the memo is set only on
    // failure, and every mutation that can flip failure to success bumps
    // the port version.
    if (vc.vaFailStamp() == op.version())
        return;
    const auto [base, count] = vaRange(head);
    const VcId w = va_.choose(op, route.drop, base, count, head.dst);
    if (w == kInvalidVc) {
        vc.setVaFailStamp(op.version());
        return;
    }
    op.allocate(route.drop, w, in_port, in_vc);
    vc.activate(w, /*express=*/false);
    ++stats_.vaGrants;
    recordTelemetry(telem_, TelemetryEventClass::VaGrant, now, id_,
                    in_port, in_vc);
}

bool
Router::willUseCircuit(PortId in_port, VcId in_vc) const
{
    if (!pcEnabled_)
        return false;
    const PseudoCircuitUnit::Register &reg = pc_.at(in_port);
    if (!reg.valid || reg.inVc != in_vc)
        return false;
    const InputVc &vc = inputVc(in_port, in_vc);
    if (vc.state() == InputVc::State::Active) {
        return vc.route() == reg.route && !vc.outVcExpress() &&
            outputs_[reg.route.outPort]
                    .vc(reg.route.drop, vc.outVc()).credits > 0;
    }
    if (vc.state() == InputVc::State::WaitingVa) {
        if (!(vc.front().flit.route == reg.route))
            return false;
        // The head can take the circuit only if its independent VA can
        // succeed right now; otherwise fall back to the normal pipeline.
        const auto [base, count] = vaRange(vc.front().flit);
        if (cfg_.vaPolicy == VaPolicy::Static) {
            const VcId w =
                VcAllocator::staticVc(base, count, vc.front().flit.dst);
            const OutputVcState &s =
                outputs_[reg.route.outPort].vc(reg.route.drop, w);
            return !s.owned && s.credits > 0;
        }
        return outputs_[reg.route.outPort].anyFreeCreditedVc(
            reg.route.drop, base, count);
    }
    return false;
}

void
Router::traverse(PortId in_port, Flit flit, const RouteDecision &route,
                 VcId out_vc, bool express_out, bool from_buffer, Cycle now)
{
    usedIn_ |= 1ull << in_port;
    usedOut_ |= 1ull << route.outPort;
    ++stats_.xbarTraversals;
    recordTelemetry(telem_, TelemetryEventClass::SwitchTraverse, now, id_,
                    in_port, flit.vc);
    if (from_buffer)
        ++stats_.bufferReads;
    if (isHead(flit.type)) {
        ++stats_.headTraversals;
        noteLocality(in_port, route.outPort);
    }

    OutputPort &op = outputs_[route.outPort];
    NOC_ASSERT(op.connected(), "switch traversal to unconnected output");
    const OutputChannel &chan = topo_.output(id_, route.outPort);
    const VcId in_vc = flit.vc;

    if (express_out) {
        // EVC source: consume an express credit of the two-hop sink.
        OutputVcState &s = op.expressVc(out_vc);
        NOC_ASSERT(s.credits > 0, "express flit sent without credit");
        --s.credits;
        NOC_VCHK(vchk_, onCreditTaken(id_, route.outPort, route.drop,
                                      out_vc, /*express=*/true, now));
        if (isTail(flit.type)) {
            NOC_ASSERT(s.owned, "tail on an unowned express VC");
            s.owned = false;
            s.ownerPort = kInvalidPort;
            s.ownerVc = kInvalidVc;
        }
        flit.vc = out_vc;
        flit.evcHopsLeft = 1;
        ++flit.hops;
        const RouterId next = chan.drops[route.drop].router;
        {
            NOC_PROF_SCOPE(fineProf_, RouteCompute);
            flit.route = routing_.route(next, flit.dst, flit.cls);
        }
        sentFlits.push_back({route.outPort, route.drop, flit});
    } else {
        op.takeCredit(route.drop, out_vc);
        if (op.anyDryDrop())
            dryOut_ |= 1ull << route.outPort;
        NOC_VCHK(vchk_, onCreditTaken(id_, route.outPort, route.drop,
                                      out_vc, /*express=*/false, now));
        if (isTail(flit.type))
            op.release(route.drop, out_vc);
        flit.vc = out_vc;
        ++flit.hops;
        if (!chan.isTerminal()) {
            // One packet carries one lookahead route: the head computes
            // it and body/tail flits copy the head's stamp. Recomputing
            // per flit would split a packet across two paths when the
            // routing function changes mid-stream (fault/churn detour
            // generations) and corrupt downstream wormhole state.
            OutputVcState &ls = op.vc(route.drop, out_vc);
            if (isHead(flit.type)) {
                const RouterId next = chan.drops[route.drop].router;
                NOC_PROF_SCOPE(fineProf_, RouteCompute);
                ls.headLookahead = routing_.route(next, flit.dst, flit.cls);
            }
            flit.route = ls.headLookahead;
        }
        sentFlits.push_back({route.outPort, route.drop, flit});
    }

    // Return the freed slot upstream (NI or router).
    const bool express_credit = evcEnabled_ && evc_.isExpressVc(in_vc) &&
        !topo_.input(id_, in_port).isTerminal();
    sentCredits.push_back({in_port, in_vc, express_credit});
}

void
Router::creditTerminations(Cycle now)
{
    // §3.C condition 2: a circuit towards a congested output (no credit
    // left on any VC of its drop) is torn down so backpressure can
    // propagate. A circuit in the middle of streaming a packet is left
    // alone during *transient* credit dips from the credit round trip —
    // its flits simply wait, and the arrival-time check in
    // tryBufferBypass() (§4.B) still terminates it if a latched flit
    // would have nowhere to land.
    //
    // Only a circuit whose output has a dry drop can fail the credit
    // test: a valid input drives exactly one busy output (owner() maps
    // it back), and an output with no dry drop passes anyCredit() on
    // every drop. Collecting the owners into an input word keeps
    // ascending input order. A termination clears only its own valid
    // bit and changes no credit, so the word stays exact for later
    // inputs. anyCredit() is still asked of the circuit's own drop: on
    // a multi-drop (MECS) output another drop may be the dry one. Both
    // tests are side-effect-free, so testing credit first changes
    // nothing.
    std::uint64_t ins = 0;
    for (std::uint64_t outs = pc_.busyOutputs() & dryOut_; outs != 0;
         outs &= outs - 1)
        ins |= 1ull << pc_.owner(lowestSetBit(outs));
    for (; ins != 0; ins &= ins - 1) {
        const PortId in = lowestSetBit(ins);
        const PseudoCircuitUnit::Register &reg = pc_.at(in);
        if (outputs_[reg.route.outPort].anyCredit(reg.route.drop, 0,
                                                  cfg_.numVcs))
            continue;
        const InputVc &vc = inputVc(in, reg.inVc);
        const bool streaming = vc.state() == InputVc::State::Active &&
            vc.route() == reg.route && !vc.outVcExpress();
        if (!streaming)
            pc_.terminateForCredit(in, now);
    }
}

void
Router::speculate(Cycle now)
{
    // speculationOutputs() names exactly the outputs with a candidate.
    // A revival makes only its own output busy and validates only its
    // own input, and an input is a candidate for at most one output (its
    // retained route names one), so every later output in the word read
    // here still has the candidate it had before the walk.
    for (std::uint64_t outs = pc_.speculationOutputs() & connectedOut_;
         outs != 0; outs &= outs - 1) {
        const PortId o = lowestSetBit(outs);
        const PortId in = pc_.speculationCandidate(o);
        NOC_ASSERT(in != kInvalidPort,
                   "candidate word names an output without a candidate");
        // §4.A: never speculate towards a congested downstream router.
        if (!outputs_[o].anyCredit(pc_.at(in).route.drop, 0, cfg_.numVcs))
            continue;
        pc_.revive(in, now);
    }
}

void
Router::traverseExpress(PortId in_port, Flit flit, Cycle now)
{
    usedIn_ |= 1ull << in_port;
    usedOut_ |= 1ull << flit.route.outPort;
    ++stats_.xbarTraversals;
    recordTelemetry(telem_, TelemetryEventClass::SwitchTraverse, now, id_,
                    in_port, flit.vc);
    ++stats_.expressBypasses;
    recordTelemetry(telem_, TelemetryEventClass::ExpressBypass, now, id_,
                    in_port, flit.vc);
    if (isHead(flit.type)) {
        ++stats_.headTraversals;
        noteLocality(in_port, flit.route.outPort);
    }

    NOC_ASSERT(flit.evcHopsLeft > 0, "express traversal without hops left");
    const OutputChannel &chan = topo_.output(id_, flit.route.outPort);
    NOC_ASSERT(!chan.isTerminal() && chan.isConnected(),
               "express flit routed off the dimension");

    --flit.evcHopsLeft;
    ++flit.hops;
    const RouteDecision cur = flit.route;
    const RouterId next = chan.drops[cur.drop].router;
    flit.route = routing_.route(next, flit.dst, flit.cls);
    sentFlits.push_back({cur.outPort, cur.drop, flit});
    // No credits here: the flit was never buffered at this router.
}

void
Router::noteLocality(PortId in_port, PortId out_port)
{
    ++stats_.localityHeads;
    if (lastOutPort_[in_port] == out_port)
        ++stats_.localityHits;
    lastOutPort_[in_port] = out_port;
}

} // namespace noc
