#include "network/network.hpp"

#include <algorithm>
#include <sstream>

#include "common/log.hpp"
#include "fault/fault_routing.hpp"
#include "profile/profile.hpp"
// Layering exception: network/ sits below sim/, but partition() takes
// the ShardPlan that sim/shard.hpp builds instead of duplicating the
// struct. Nothing else from sim/ is visible here.
#include "sim/shard.hpp"
#include "topology/fbfly.hpp"
#include "verify/verify.hpp"
#include "topology/mecs.hpp"
#include "topology/mesh.hpp"
#include "topology/torus.hpp"

namespace noc {

std::unique_ptr<Topology>
makeTopology(const SimConfig &cfg)
{
    switch (cfg.topology) {
      case TopologyKind::Mesh:
        return std::make_unique<Mesh>(cfg.meshWidth, cfg.meshHeight, 1);
      case TopologyKind::CMesh:
        return std::make_unique<CMesh>(cfg.meshWidth, cfg.meshHeight,
                                       cfg.concentration);
      case TopologyKind::Mecs:
        return std::make_unique<Mecs>(cfg.meshWidth, cfg.meshHeight,
                                      cfg.concentration);
      case TopologyKind::FlatFly:
        return std::make_unique<FlattenedButterfly>(
            cfg.meshWidth, cfg.meshHeight, cfg.concentration);
      case TopologyKind::Torus:
        return std::make_unique<Torus>(cfg.meshWidth, cfg.meshHeight,
                                       cfg.concentration);
    }
    NOC_FATAL("unknown topology kind");
}

/**
 * One band of the cycle body: a contiguous router range and the NIs
 * attached to it, with its own event calendar and activity words. The
 * whole network is one band until partition(). Between barriers a band
 * is touched only by the thread stepping it; the barrier, which runs
 * while no band does, empties its outboxes.
 */
struct Network::Band
{
    /// A flit or credit for another band's calendar, due at `when`.
    template <typename Arrival>
    struct Msg
    {
        Cycle when = 0;
        Arrival arrival;
    };

    /// One open-loop packet staged for injection at `cycle`.
    struct Staged
    {
        Cycle cycle = 0;
        PacketDesc pkt;
    };

    Band(int i, RouterId rb, RouterId re, NodeId nb, NodeId ne)
        : index(i), routerBegin(rb), routerEnd(re), nodeBegin(nb),
          nodeEnd(ne), awakeRouters(words(re - rb)),
          busyNis(words(ne - nb)), doneNis(words(ne - nb))
    {
    }

    static std::size_t
    words(int bits)
    {
        return (static_cast<std::size_t>(bits) + 63) / 64;
    }

    /** Set / clear bit `i` of a band-relative activity word set. */
    static void
    mark(std::vector<std::uint64_t> &set, int i)
    {
        set[static_cast<std::size_t>(i) >> 6] |= 1ull << (i & 63);
    }
    static void
    unmark(std::vector<std::uint64_t> &set, int i)
    {
        set[static_cast<std::size_t>(i) >> 6] &= ~(1ull << (i & 63));
    }

    /**
     * Call `fn(i)` for each bit set in `set`, in ascending order. Each
     * word is read before its walk, so `fn` may clear bits it visited.
     */
    template <typename Fn>
    static void
    forEachSet(const std::vector<std::uint64_t> &set, Fn &&fn)
    {
        for (std::size_t w = 0; w < set.size(); ++w) {
            for (std::uint64_t bits = set[w]; bits != 0; bits &= bits - 1)
                fn(static_cast<int>(w * 64) + lowestSetBit(bits));
        }
    }

    void wake(RouterId r) { mark(awakeRouters, r - routerBegin); }

    int index;
    RouterId routerBegin;
    RouterId routerEnd;
    NodeId nodeBegin;
    NodeId nodeEnd;
    EventRing ring;
    std::int64_t outstandingDelta = 0;  ///< injected - completed packets
    Cycle lastProgress = 0;             ///< last cycle a flit moved here

    // Activity words, bit i = router routerBegin + i / node nodeBegin + i
    // (docs/architecture.md §13).
    std::vector<std::uint64_t> awakeRouters;  ///< Router::awake()
    std::vector<std::uint64_t> busyNis;       ///< !NetworkInterface::idle()
    std::vector<std::uint64_t> doneNis;       ///< completed packets held

    // Partitioned runs only. The outboxes keep their capacity across
    // barriers.
    std::vector<Msg<FlitArrival>> outFlits;
    std::vector<Msg<ControlArrival>> outCredits;
    std::vector<Staged> staged;           ///< the window's injections
    std::size_t stagedIdx = 0;            ///< next staged entry to replay
};

Network::~Network() = default;

Network::Network(const SimConfig &cfg)
    : cfg_(cfg), topo_(makeTopology(cfg))
{
    cfg_.validate();

    bands_.push_back(std::make_unique<Band>(
        0, 0, static_cast<RouterId>(topo_->numRouters()), 0,
        static_cast<NodeId>(topo_->numNodes())));

    // The fault layer only exists when a plan is configured; fault-free
    // runs never pay for it (all hooks below test `faults_` first).
    FaultPlan plan;
    if (!cfg_.faultSpec.empty())
        plan = FaultPlan::parse(cfg_.faultSpec);
    ChurnPlan churn;
    if (!cfg_.churnSpec.empty())
        churn = ChurnPlan::parse(cfg_.churnSpec);
    if (!plan.empty() || !churn.empty()) {
        faults_ =
            std::make_unique<FaultController>(plan, churn, cfg_, *topo_);
        faults_->bindRing(&bands_[0]->ring);
    }

    routing_ = makeRouting(cfg_.routing, *topo_);
    if (faults_ && faults_->needsReroute())
        routing_ = std::make_unique<FaultRouting>(std::move(routing_),
                                                  *topo_, faults_.get());

    routers_.reserve(topo_->numRouters());
    for (RouterId r = 0; r < topo_->numRouters(); ++r)
        routers_.push_back(
            std::make_unique<Router>(cfg_, *topo_, *routing_, r));

    nis_.reserve(topo_->numNodes());
    for (NodeId n = 0; n < topo_->numNodes(); ++n)
        nis_.push_back(
            std::make_unique<NetworkInterface>(cfg_, *topo_, *routing_, n));

    if (cfg_.scheme == Scheme::Evc)
        buildEvcCreditMap();
}

void
Network::buildEvcCreditMap()
{
    evcUpstream_.resize(topo_->numRouters());
    for (RouterId r = 0; r < topo_->numRouters(); ++r) {
        evcUpstream_[r].assign(topo_->numInputPorts(r),
                               {kInvalidRouter, kInvalidPort});
        for (PortId p = 0; p < topo_->numInputPorts(r); ++p) {
            const InputSource &src = topo_->input(r, p);
            if (src.isTerminal())
                continue;
            const RouterId mid = src.router;
            const PortId dir_port = src.outPort;
            // The express source is the router feeding `mid` through the
            // same direction port (unique on a mesh).
            for (PortId p2 = 0; p2 < topo_->numInputPorts(mid); ++p2) {
                const InputSource &up = topo_->input(mid, p2);
                if (!up.isTerminal() && up.outPort == dir_port) {
                    evcUpstream_[r][p] = {up.router, dir_port};
                    break;
                }
            }
        }
    }
}

void
Network::injectPacket(const PacketDesc &packet)
{
    if (staging_) {
        // Record against the staged cycle on the owning band; the band
        // replays it — NI queue append, outstanding count, verifier
        // hook — at exactly that cycle, in the order the source
        // generated it.
        bandOfNode(packet.src).staged.push_back({stageCycle_, packet});
        return;
    }
    if (faults_) {
        faults_->onOffered(packet);
        if (!faults_->routable(packet.src, packet.dst)) {
            // No alive path: refuse at the source instead of wedging a
            // packet in the fabric. Accounted per flow in the report.
            faults_->onUnroutable(packet);
            return;
        }
    }
    nis_[packet.src]->inject(packet);
    Band &b = bandOfNode(packet.src);
    Band::mark(b.busyNis, packet.src - b.nodeBegin);
    ++outstanding_;
    NOC_VCHK(verifier_, onPacketInjected(packet, now_));
}

Network::Band &
Network::bandOfNode(NodeId n)
{
    if (bands_.size() == 1)
        return *bands_[0];
    const RouterId r = topo_->nodeRouter(n);
    return *bands_[static_cast<std::size_t>(
        bandOfRouter_[static_cast<std::size_t>(r)])];
}

void
Network::stageAt(Cycle cycle)
{
    NOC_ASSERT(bands_.size() > 1, "staging needs a partitioned network");
    staging_ = true;
    stageCycle_ = cycle;
}

void
Network::step()
{
    for (auto &band : bands_)
        stepBand(*band, now_);
    barrier(now_ + 1);
}

void
Network::advanceBand(int band, Cycle from, Cycle to)
{
    Band &b = *bands_[static_cast<std::size_t>(band)];
    for (Cycle c = from; c < to; ++c)
        stepBand(b, c);
}

void
Network::stepBand(Band &b, Cycle c)
{
    if (prof_)
        prof_->beginCycle(c);

    // Staged injections for this cycle first — a one-band run ticks the
    // source into the NIs before the cycle; the staged list was appended
    // in that order (cycle-major, node-ascending), so a linear replay
    // reproduces it, including per-NI RNG consumption order.
    for (; b.stagedIdx < b.staged.size() &&
           b.staged[b.stagedIdx].cycle == c;
         ++b.stagedIdx) {
        const PacketDesc &pkt = b.staged[b.stagedIdx].pkt;
        nis_[static_cast<std::size_t>(pkt.src)]->inject(pkt);
        Band::mark(b.busyNis, pkt.src - b.nodeBegin);
        ++b.outstandingDelta;
        NOC_VCHK(verifier_, onPacketInjected(pkt, c));
    }

    // Phase 0 (fault layer only): retry timeouts, stall accounting, and
    // release of deliveries held at the wires of a previously stalled
    // router (credits in full, flits re-serialised one per port).
    const bool stalls = faults_ && faults_->anyStalls();
    if (faults_) {
        NOC_PROF_SCOPE(prof_, FaultHook);
        faults_->beginCycle(c);
        // Availability transitions this cycle invalidate the cached
        // routes of pseudo-circuits at the affected routers: flush them
        // before any arrival can ride a stale circuit.
        if (faults_->takeTeardowns(teardownScratch_)) {
            for (const TeardownRequest &t : teardownScratch_) {
                if (routers_[t.router]->faultTeardown(t.inPort, c))
                    faults_->noteChurnTeardown();
                b.wake(t.router);
            }
        }
        if (stalls) {
            heldCredits_.clear();
            heldFlits_.clear();
            faults_->drainStallQueues(c, heldCredits_, heldFlits_);
            for (const ControlArrival &a : heldCredits_)
                arriveControl(b, c, a);
            for (const FlitArrival &a : heldFlits_)
                arriveFlit(b, c, a);
        }
    }

    // Phase 1: arrivals. Credits land before flits — a flit arriving in
    // the same cycle as a credit must see the updated counter, or e.g. a
    // buffer-bypass check would spuriously fail. Credits commute (pure
    // counter increments), so they need no ordering across bands; flits
    // replay in (creation cycle, creator rank) order, which is the FIFO
    // order unless another band's flits were admitted to this bucket.
    EventRing::Bucket &bucket = b.ring.at(c);
    {
        NOC_PROF_SCOPE(prof_, CreditReturn);
        for (const ControlArrival &a : bucket.controls) {
            if (!(stalls && faults_->captureArrival(a)))
                arriveControl(b, c, a);
        }
    }
    {
        NOC_PROF_SCOPE(prof_, LinkTraverse);
        for (const FlitArrival &a : bucket.orderedFlits()) {
            if (!(stalls && faults_->captureArrival(a, c)))
                arriveFlit(b, c, a);
        }
        bucket.clear();
    }

    // Phase 2: NI injection (creator rank = node id), over the NIs with
    // work in ascending node order. An idle NI's step returns nothing
    // and changes nothing; only inject() gives it work again.
    {
        NOC_PROF_SCOPE(prof_, NiInject);
        Band::forEachSet(b.busyNis, [&](int i) {
            const NodeId n = b.nodeBegin + i;
            NetworkInterface &ni = *nis_[static_cast<std::size_t>(n)];
            if (auto flit = ni.step(c)) {
                // The NI's router lives in this band.
                NOC_VCHK(verifier_, onFlitInjected(n, *flit, c));
                b.ring.scheduleFlit(c, c + 1 + cfg_.linkLatency, n,
                                    topo_->nodeRouter(n), topo_->nodePort(n),
                                    /*to_ni=*/false, *flit);
            }
            if (ni.idle())
                Band::unmark(b.busyNis, i);
        });
    }

    // Phase 3: routers (creator rank = numNodes + router id), over the
    // awake ones in ascending id order. A router that is not awake has
    // no buffered flit and no pending grant, and no flit, credit or
    // teardown has reached it since its last step. step() would move
    // nothing (latches and grants are empty), post no SA request (so no
    // arbiter rotates), end no circuit (that step already ran
    // creditTerminations, and credits only fall when a flit traverses)
    // and revive none (that step's speculate left every candidate short
    // of credit, and only deliverCredit adds credit). All it would do is
    // rotate VA, which its next step() catches up on
    // (docs/architecture.md §13). Stepping schedules arrivals for later
    // cycles only, so no bit is set during the walk.
    {
        NOC_PROF_SCOPE(prof_, RouterStep);
        if (stalls) {
            // Frozen routers: no allocation, traversal, emission or VA
            // rotation this cycle.
            faults_->forEachStalledRouter([&](RouterId r) {
                routers_[static_cast<std::size_t>(r)]->holdRotation(c);
            });
        }
        Band::forEachSet(b.awakeRouters, [&](int i) {
            const RouterId r = b.routerBegin + i;
            if (stalls && faults_->routerStalled(r))
                return;
            Router &router = *routers_[static_cast<std::size_t>(r)];
            router.step(c);
            if (!router.awake())
                Band::unmark(b.awakeRouters, i);
            emit(b, c, r, router);
        });
    }

    if (prof_)
        prof_->noteCycle();
}

void
Network::emit(Band &b, Cycle c, RouterId r, Router &router)
{
    const std::int32_t rank = static_cast<std::int32_t>(nis_.size()) + r;
    for (const Router::SentFlit &sf : router.sentFlits) {
        const OutputChannel &chan = topo_->output(r, sf.outPort);
        if (chan.isTerminal()) {
            b.ring.scheduleFlit(c, c + 1 + cfg_.linkLatency, rank,
                                chan.terminal, kInvalidPort,
                                /*to_ni=*/true, sf.flit);
            continue;
        }
        // Protected links go through the retry machinery, which
        // schedules (or drops) the transmission itself.
        if (faults_ &&
            faults_->handleSend(r, sf.outPort, sf.drop, sf.flit, c))
            continue;
        const Drop &drop = chan.drops[static_cast<std::size_t>(sf.drop)];
        sendFlit(b, c, c + 1 + cfg_.linkLatency * drop.distance, rank,
                 drop.router, drop.inPort, sf.flit);
    }
    router.sentFlits.clear();

    for (const Router::SentCredit &sc : router.sentCredits) {
        const InputSource &src = topo_->input(r, sc.inPort);
        ControlArrival a;
        if (src.isTerminal()) {
            a.kind = ControlArrival::Kind::CreditToNi;
            a.target = src.terminal;
            a.credit.vc = sc.vc;
            b.ring.scheduleControl(c, c + 1 + cfg_.creditLatency, a);
        } else if (sc.express) {
            const auto [up_router, up_port] =
                evcUpstream_[static_cast<std::size_t>(r)]
                            [static_cast<std::size_t>(sc.inPort)];
            NOC_ASSERT(up_router != kInvalidRouter,
                       "express credit with no two-hop upstream");
            a.target = up_router;
            a.credit.outPort = up_port;
            a.credit.drop = 0;
            a.credit.vc = sc.vc;
            a.credit.express = true;
            sendCredit(b, c, c + 1 + cfg_.creditLatency * 2, a);
        } else {
            a.target = src.router;
            a.credit.outPort = src.outPort;
            a.credit.drop = src.dropIndex;
            a.credit.vc = sc.vc;
            sendCredit(b, c, c + 1 + cfg_.creditLatency * src.distance, a);
        }
    }
    router.sentCredits.clear();
}

void
Network::arriveControl(Band &b, Cycle c, const ControlArrival &a)
{
    switch (a.kind) {
      case ControlArrival::Kind::CreditToRouter:
        if (faults_ && faults_->dropCredit(a.target))
            break;
        routers_[static_cast<std::size_t>(a.target)]->deliverCredit(a.credit,
                                                                   c);
        b.wake(a.target);
        break;
      case ControlArrival::Kind::CreditToNi:
        nis_[static_cast<std::size_t>(a.target)]->addCredit(a.credit.vc);
        NOC_VCHK(verifier_, onNiCredit(a.target, a.credit.vc, c));
        break;
      case ControlArrival::Kind::LinkAck:
        faults_->onAck(a, c);   // only the fault layer sends ACKs
        break;
    }
}

void
Network::arriveFlit(Band &b, Cycle c, const FlitArrival &a)
{
    if (!a.toNi) {
        Router &router = *routers_[static_cast<std::size_t>(a.target)];
        b.wake(a.target);
        if (faults_ && !faults_->onReceive(a.target, a.inPort, a.flit, c)) {
            // CRC/sequence check failed: the flit is discarded (the
            // sender's retry buffer will re-deliver it) and the input
            // port's pseudo-circuit can no longer be trusted.
            if (router.faultTeardown(a.inPort, c))
                faults_->noteCircuitTeardown();
            return;
        }
        router.deliverFlit(a.inPort, a.flit, c);
        b.lastProgress = c;
        return;
    }

    const NodeId n = a.target;
    b.lastProgress = c;
    NOC_VCHK(verifier_, onFlitEjected(n, a.flit, c));
    if (nis_[static_cast<std::size_t>(n)]->receiveFlit(a.flit, c)) {
        --b.outstandingDelta;
        Band::mark(b.doneNis, n - b.nodeBegin);
        if (faults_)
            faults_->onDelivered(a.flit);
    }
    // The NI consumes the flit immediately; return the ejection-port
    // buffer slot to its router, which lives in this band.
    ControlArrival credit;
    credit.target = topo_->nodeRouter(n);
    credit.credit.outPort = topo_->nodePort(n);
    credit.credit.drop = 0;
    credit.credit.vc = a.flit.vc;
    b.ring.scheduleControl(c, c + 1 + cfg_.creditLatency, credit);
}

void
Network::sendFlit(Band &b, Cycle now, Cycle when, std::int32_t rank,
                  RouterId router, PortId in_port, const Flit &flit)
{
    if (bands_.size() > 1 &&
        bandOfRouter_[static_cast<std::size_t>(router)] != b.index) {
        b.outFlits.push_back(
            {when, {flit, now, rank, router, in_port, false}});
        return;
    }
    b.ring.scheduleFlit(now, when, rank, router, in_port, /*to_ni=*/false,
                        flit);
}

void
Network::sendCredit(Band &b, Cycle now, Cycle when, const ControlArrival &a)
{
    if (bands_.size() > 1 &&
        bandOfRouter_[static_cast<std::size_t>(a.target)] != b.index) {
        b.outCredits.push_back({when, a});
        return;
    }
    b.ring.scheduleControl(now, when, a);
}

void
Network::barrier(Cycle up_to)
{
    NOC_ASSERT(up_to > now_, "barrier must advance time");
    for (auto &bp : bands_) {
        Band &b = *bp;
        // Each outbox holds one kind, in creation order, so both
        // arrays of a target bucket receive this band's arrivals in
        // the order the band produced them.
        const auto target = [&](RouterId r, Cycle when) -> EventRing & {
            NOC_ASSERT(when >= up_to,
                       "cross-band event outside the lookahead bound");
            return bands_[static_cast<std::size_t>(
                bandOfRouter_[static_cast<std::size_t>(r)])]->ring;
        };
        for (const auto &[when, a] : b.outCredits)
            target(a.target, when).admitControl(up_to, when, a);
        for (const auto &[when, a] : b.outFlits)
            target(a.target, when).admitFlit(up_to, when, a);
        b.outCredits.clear();
        b.outFlits.clear();
        NOC_ASSERT(b.stagedIdx == b.staged.size(),
                   "staged injections left over at the barrier");
        b.staged.clear();
        b.stagedIdx = 0;
        NOC_ASSERT(static_cast<std::int64_t>(outstanding_) +
                           b.outstandingDelta >= 0,
                   "completion without injection");
        outstanding_ = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(outstanding_) + b.outstandingDelta);
        b.outstandingDelta = 0;
        lastProgress_ = std::max(lastProgress_, b.lastProgress);
    }

    // The end-of-cycle check runs once per window against barrier-
    // consistent state, timed as the check of the window's last cycle.
    now_ = up_to - 1;
    {
        NOC_PROF_SCOPE(prof_, VerifyHook);
        NOC_VCHK(verifier_, onCycleEnd(now_));
    }
    now_ = up_to;
}

void
Network::partition(const ShardPlan &plan)
{
    NOC_ASSERT(bands_.size() == 1, "network already partitioned");
    NOC_ASSERT(!faults_ && !telem_ && !prof_,
               "partitioned runs carry no fault layer, telemetry or "
               "profiler");
    NOC_ASSERT(now_ == 0, "partitioned runs start at cycle 0");
    NOC_ASSERT(bands_[0]->ring.empty(),
               "partitioned runs start on an empty calendar");
    NOC_ASSERT(plan.numShards >= 1 &&
                   plan.shardOfRouter.size() == routers_.size() &&
                   plan.shardOfNode.size() == nis_.size(),
               "shard plan does not match this network");

    bands_.clear();
    bandOfRouter_ = plan.shardOfRouter;
    for (int s = 0; s < plan.numShards; ++s) {
        auto band = std::make_unique<Band>(s, plan.routerBegin[s],
                                           plan.routerEnd[s],
                                           plan.nodeBegin[s],
                                           plan.nodeEnd[s]);
        // Packets injected before the split carry over. Nothing else
        // can be active at cycle 0 on an empty calendar.
        for (NodeId n = band->nodeBegin; n < band->nodeEnd; ++n) {
            if (!nis_[static_cast<std::size_t>(n)]->idle())
                Band::mark(band->busyNis, n - band->nodeBegin);
        }
        bands_.push_back(std::move(band));
    }

    if (verifier_)
        verifier_->setConcurrent(true);
}

std::string
Network::describeStall() const
{
    std::uint64_t queued = 0;
    for (const auto &ni : nis_)
        queued += ni->queueDepth();
    std::uint64_t buffered = 0;
    int busy_routers = 0;
    for (RouterId r = 0; r < static_cast<RouterId>(routers_.size()); ++r) {
        std::uint64_t here = 0;
        for (PortId p = 0; p < topo_->numInputPorts(r); ++p) {
            for (VcId v = 0; v < cfg_.numVcs; ++v)
                here += routers_[r]->inputVc(p, v).occupancy();
        }
        buffered += here;
        busy_routers += here > 0;
    }
    std::ostringstream os;
    os << outstanding_ << " packets outstanding, " << queued
       << " queued at NIs, " << buffered << " flits buffered in "
       << busy_routers << " routers, " << cyclesSinceProgress()
       << " cycles since progress";
    return os.str();
}

Network::Probe
Network::probe() const
{
    Probe p;
    for (const auto &ni : nis_) {
        p.niQueuedPackets += ni->queueDepth();
        if (const auto oldest = ni->oldestCreateTime())
            p.oldestCreate = std::min(p.oldestCreate, *oldest);
    }
    for (RouterId r = 0; r < static_cast<RouterId>(routers_.size()); ++r) {
        const Router &router = *routers_[r];
        std::uint64_t here = 0;
        for (PortId port = 0; port < topo_->numInputPorts(r); ++port) {
            for (VcId v = 0; v < cfg_.numVcs; ++v) {
                const InputVc &vc = router.inputVc(port, v);
                here += vc.occupancy();
                if (!vc.empty()) {
                    p.oldestCreate = std::min(p.oldestCreate,
                                              vc.front().flit.createTime);
                }
            }
        }
        p.bufferedFlits += here;
        if (here > p.hotOccupancy) {
            p.hotOccupancy = here;
            p.hotRouter = r;
        }
        for (PortId port = 0; port < router.numOutputPorts(); ++port) {
            const OutputPort &out = router.outputPort(port);
            if (!out.connected())
                continue;
            for (int d = 0; d < out.numDrops(); ++d) {
                for (VcId v = 0; v < out.numVcs(); ++v) {
                    p.creditsFree +=
                        static_cast<std::uint64_t>(out.vc(d, v).credits);
                }
            }
        }
    }
    return p;
}

void
Network::setTelemetry(TelemetrySink *sink)
{
    telem_ = sink;
    for (auto &router : routers_)
        router->setTelemetry(sink);
    for (auto &band : bands_)
        band->ring.setTelemetry(sink);
}

void
Network::setVerifier(InvariantChecker *chk)
{
    verifier_ = chk;
    for (auto &router : routers_)
        router->setVerifier(chk);
    if (chk) {
        chk->attach(*this);
        if (bands_.size() > 1)
            chk->setConcurrent(true);
    }
    if (faults_)
        faults_->bindVerifier(chk);
}

void
Network::setProfiler(PhaseProfiler *prof)
{
    prof_ = prof;
    for (auto &router : routers_)
        router->setProfiler(prof);
    if (prof && prof->config().memory) {
        for (const auto &router : routers_)
            prof->noteArena(router->arenaBytes());
    }
}

void
Network::drainCompleted(std::vector<CompletedPacket> &out)
{
    // Bands cover ascending node ranges, so walking each band's word in
    // turn visits the NIs holding packets in ascending node order.
    for (auto &bp : bands_) {
        Band &b = *bp;
        Band::forEachSet(b.doneNis, [&](int i) {
            NetworkInterface &ni =
                *nis_[static_cast<std::size_t>(b.nodeBegin + i)];
            out.insert(out.end(), ni.completed.begin(), ni.completed.end());
            ni.completed.clear();
        });
        std::fill(b.doneNis.begin(), b.doneNis.end(), 0);
    }
}

RouterStats
Network::aggregateRouterStats() const
{
    RouterStats total;
    for (const auto &router : routers_) {
        const RouterStats &s = router->stats();
        total.flitsArrived += s.flitsArrived;
        total.bufferWrites += s.bufferWrites;
        total.bufferReads += s.bufferReads;
        total.xbarTraversals += s.xbarTraversals;
        total.vaGrants += s.vaGrants;
        total.saGrants += s.saGrants;
        total.saBypasses += s.saBypasses;
        total.bufferBypasses += s.bufferBypasses;
        total.headTraversals += s.headTraversals;
        total.headSaBypasses += s.headSaBypasses;
        total.headBufferBypasses += s.headBufferBypasses;
        total.expressBypasses += s.expressBypasses;
        total.wastedGrants += s.wastedGrants;
        total.localityHeads += s.localityHeads;
        total.localityHits += s.localityHits;
    }
    return total;
}

PseudoCircuitStats
Network::aggregatePcStats() const
{
    PseudoCircuitStats total;
    for (const auto &router : routers_) {
        const PseudoCircuitStats &s = router->pcStats();
        total.created += s.created;
        total.terminatedConflict += s.terminatedConflict;
        total.terminatedCredit += s.terminatedCredit;
        total.terminatedFault += s.terminatedFault;
        total.speculated += s.speculated;
    }
    return total;
}

NiStats
Network::aggregateNiStats() const
{
    NiStats total;
    for (const auto &ni : nis_) {
        const NiStats &s = ni->stats();
        total.packetsInjected += s.packetsInjected;
        total.flitsInjected += s.flitsInjected;
        total.packetsReceived += s.packetsReceived;
        total.localityPackets += s.localityPackets;
        total.localityHits += s.localityHits;
    }
    return total;
}

} // namespace noc
