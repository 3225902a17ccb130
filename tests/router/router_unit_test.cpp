/**
 * @file
 * Direct Router-level tests: drive deliverFlit/deliverCredit/step by
 * hand on a single router and observe the microarchitectural state —
 * circuit creation via grants, bypass-latch admission rules, credit
 * gating, the SA-request suppression for circuit riders, the wake bit
 * by which the network's band loop leaves quiescent routers unvisited,
 * and the VA rotation such a router catches up on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "network/network.hpp"
#include "router/router.hpp"
#include "routing/routing.hpp"
#include "topology/fbfly.hpp"
#include "topology/mesh.hpp"

namespace noc {
namespace {

struct Rig
{
    SimConfig cfg;
    Mesh topo{4, 2, 1};
    std::unique_ptr<RoutingAlgorithm> routing;
    std::unique_ptr<Router> router;
    Cycle now = 0;

    explicit Rig(Scheme scheme, VaPolicy va = VaPolicy::Static)
    {
        cfg.topology = TopologyKind::Mesh;
        cfg.meshWidth = 4;
        cfg.meshHeight = 2;
        cfg.concentration = 1;
        cfg.scheme = scheme;
        cfg.vaPolicy = va;
        routing = makeRouting(RoutingKind::XY, topo);
        // Router 1 sits mid-row: it has terminal, E and W neighbours.
        router = std::make_unique<Router>(cfg, topo, *routing, 1);
    }

    Flit
    makeFlit(FlitType type, NodeId dst, VcId vc, PacketId pkt = 1)
    {
        Flit f;
        f.packet = pkt;
        f.type = type;
        f.src = 0;
        f.dst = dst;
        f.vc = vc;
        f.packetSize = 1;
        f.route = routing->route(1, dst, 0);
        return f;
    }

    void
    step(int cycles = 1)
    {
        for (int i = 0; i < cycles; ++i) {
            router->step(now);
            ++now;
        }
    }

    /** Cycles as the network's band loop runs them: step() while the
     *  router is awake; a sleeping router is not visited at all. */
    void
    bandStep(int cycles = 1)
    {
        for (int i = 0; i < cycles; ++i) {
            if (router->awake()) {
                router->step(now);
                ++steps;
            }
            ++now;
        }
    }

    /** A cycle a stall clause freezes: the rotation is held (twice, as
     *  overlapping clauses would), the router is not stepped. */
    void
    stallStep()
    {
        router->holdRotation(now);
        router->holdRotation(now);
        ++now;
    }

    int steps = 0;   ///< step() calls made by bandStep()
};

/** Input port index at router 1 fed from router 0's East channel. */
PortId
westInput(const Rig &rig)
{
    for (PortId p = 0; p < rig.topo.numInputPorts(1); ++p) {
        const InputSource &src = rig.topo.input(1, p);
        if (!src.isTerminal() && src.router == 0)
            return p;
    }
    return kInvalidPort;
}

TEST(RouterUnit, GrantCreatesCircuitAndSendsFlit)
{
    Rig rig(Scheme::Pseudo);
    const PortId in = westInput(rig);
    const Flit f = rig.makeFlit(FlitType::HeadTail, /*dst=*/3, /*vc=*/3);

    rig.router->deliverFlit(in, f, rig.now);
    rig.step(3);   // BW | VA+SA | ST

    ASSERT_EQ(rig.router->sentFlits.size(), 1u);
    EXPECT_EQ(rig.router->sentFlits[0].outPort, f.route.outPort);
    ASSERT_EQ(rig.router->sentCredits.size(), 1u);
    EXPECT_EQ(rig.router->sentCredits[0].inPort, in);
    EXPECT_EQ(rig.router->sentCredits[0].vc, 3);

    const auto &reg = rig.router->pcUnit().at(in);
    EXPECT_TRUE(reg.valid);
    EXPECT_EQ(reg.inVc, 3);
    EXPECT_EQ(reg.route.outPort, f.route.outPort);
    EXPECT_EQ(rig.router->stats().saGrants, 1u);
    EXPECT_EQ(rig.router->stats().saBypasses, 0u);
}

TEST(RouterUnit, SecondPacketBypassesSa)
{
    Rig rig(Scheme::Pseudo);
    const PortId in = westInput(rig);
    rig.router->deliverFlit(in, rig.makeFlit(FlitType::HeadTail, 3, 3, 1),
                            rig.now);
    rig.step(4);
    rig.router->sentFlits.clear();

    rig.router->deliverFlit(in, rig.makeFlit(FlitType::HeadTail, 3, 3, 2),
                            rig.now);
    rig.step(2);   // BW | ST — one cycle less than the full pipeline
    EXPECT_EQ(rig.router->sentFlits.size(), 1u);
    EXPECT_EQ(rig.router->stats().saBypasses, 1u);
    EXPECT_EQ(rig.router->stats().saGrants, 1u);   // only the first
}

TEST(RouterUnit, BufferBypassTraversesInArrivalCycle)
{
    Rig rig(Scheme::PseudoB);
    const PortId in = westInput(rig);
    rig.router->deliverFlit(in, rig.makeFlit(FlitType::HeadTail, 3, 3, 1),
                            rig.now);
    rig.step(4);
    rig.router->sentFlits.clear();

    rig.router->deliverFlit(in, rig.makeFlit(FlitType::HeadTail, 3, 3, 2),
                            rig.now);
    rig.step(1);   // same-cycle ST through the latch
    EXPECT_EQ(rig.router->sentFlits.size(), 1u);
    EXPECT_EQ(rig.router->stats().bufferBypasses, 1u);
    // The latched flit skipped the buffer: one write (first packet) only.
    EXPECT_EQ(rig.router->stats().bufferWrites, 1u);
}

TEST(RouterUnit, BypassRequiresVcMatch)
{
    Rig rig(Scheme::PseudoB, VaPolicy::Dynamic);
    const PortId in = westInput(rig);
    rig.router->deliverFlit(in, rig.makeFlit(FlitType::HeadTail, 3, 3, 1),
                            rig.now);
    rig.step(4);
    rig.router->sentFlits.clear();

    // Same route, different input VC: must take the full pipeline.
    rig.router->deliverFlit(in, rig.makeFlit(FlitType::HeadTail, 3, 1, 2),
                            rig.now);
    rig.step(1);
    EXPECT_TRUE(rig.router->sentFlits.empty());
    rig.step(2);
    EXPECT_EQ(rig.router->sentFlits.size(), 1u);
    EXPECT_EQ(rig.router->stats().bufferBypasses, 0u);
}

TEST(RouterUnit, BypassRequiresRouteMatch)
{
    // Dynamic VA upstream may reuse the same input VC for a flow with a
    // different route; the comparator must reject it.
    Rig rig(Scheme::PseudoB, VaPolicy::Dynamic);
    const PortId in = westInput(rig);
    rig.router->deliverFlit(in, rig.makeFlit(FlitType::HeadTail, 3, 3, 1),
                            rig.now);
    rig.step(4);
    rig.router->sentFlits.clear();

    // Same input VC, but dst 5 routes South (not East): full pipeline,
    // circuit replaced by the new grant.
    rig.router->deliverFlit(in, rig.makeFlit(FlitType::HeadTail, 5, 3, 2),
                            rig.now);
    rig.step(3);
    EXPECT_EQ(rig.router->sentFlits.size(), 1u);
    EXPECT_EQ(rig.router->stats().bufferBypasses, 0u);
    const auto &reg = rig.router->pcUnit().at(in);
    EXPECT_TRUE(reg.valid);
    EXPECT_EQ(reg.route.outPort, rig.routing->route(1, 5, 0).outPort);
}

TEST(RouterUnit, StarvedCircuitTerminatesOnUse)
{
    // Dynamic VA hands each packet the free VC with the most credits, so
    // single-flit packets riding the circuit east drain every VC of the
    // east output in turn; no credit comes back.
    Rig rig(Scheme::Pseudo, VaPolicy::Dynamic);
    const PortId in = westInput(rig);
    const Flit first = rig.makeFlit(FlitType::HeadTail, 3, 3, 1);
    const PortId east = first.route.outPort;
    const int credits = rig.cfg.numVcs * rig.cfg.bufferDepth;
    for (int k = 0; k < credits; ++k) {
        EXPECT_TRUE(rig.router->pcUnit().at(in).valid || k == 0) << k;
        EXPECT_FALSE(rig.router->dryOutputs() & (1ull << east)) << k;
        rig.router->deliverFlit(in, rig.makeFlit(FlitType::HeadTail, 3, 3,
                                                 k + 1),
                                rig.now);
        rig.step(4);
    }
    EXPECT_EQ(rig.router->sentFlits.size(),
              static_cast<std::size_t>(credits));
    EXPECT_EQ(rig.router->stats().saGrants, 1u);   // the rest rode it
    rig.router->sentFlits.clear();

    // The last credit left with the last flit: the output's drop is dry,
    // and the idle circuit towards it ended that same step (§3.C).
    EXPECT_TRUE(rig.router->outputPort(east).anyDryDrop());
    EXPECT_TRUE(rig.router->dryOutputs() & (1ull << east));
    EXPECT_FALSE(rig.router->pcUnit().at(in).valid);
    EXPECT_EQ(rig.router->pcStats().terminatedCredit, 1u);

    // Nothing may leave while the output is starved.
    rig.router->deliverFlit(in,
                            rig.makeFlit(FlitType::HeadTail, 3, 3,
                                         credits + 1),
                            rig.now);
    rig.step(2);
    EXPECT_TRUE(rig.router->sentFlits.empty());
    EXPECT_FALSE(rig.router->pcUnit().at(in).valid);

    // Credits return: the packet moves via the normal pipeline.
    for (VcId v = 0; v < rig.cfg.numVcs; ++v) {
        Credit c;
        c.outPort = east;
        c.drop = 0;
        c.vc = v;
        for (int k = 0; k < rig.cfg.bufferDepth; ++k)
            rig.router->deliverCredit(c, 0);
    }
    EXPECT_FALSE(rig.router->dryOutputs() & (1ull << east));
    rig.step(3);
    EXPECT_EQ(rig.router->sentFlits.size(), 1u);
}

TEST(RouterUnit, ConflictingGrantStealsCircuit)
{
    Rig rig(Scheme::Pseudo);
    const PortId in_w = westInput(rig);
    const PortId in_term = 0;   // terminal input port

    rig.router->deliverFlit(in_w, rig.makeFlit(FlitType::HeadTail, 3, 3, 1),
                            rig.now);
    rig.step(4);
    ASSERT_TRUE(rig.router->pcUnit().at(in_w).valid);

    // A packet injected locally (node 1) claims the same east output.
    Flit local = rig.makeFlit(FlitType::HeadTail, 3, 3, 2);
    local.src = 1;
    rig.router->deliverFlit(in_term, local, rig.now);
    rig.step(3);
    EXPECT_FALSE(rig.router->pcUnit().at(in_w).valid);
    EXPECT_TRUE(rig.router->pcUnit().at(in_term).valid);
    EXPECT_EQ(rig.router->pcUnit().history(
                  rig.routing->route(1, 3, 0).outPort),
              in_w);
}

TEST(RouterUnit, CircuitRidersDoNotRequestSa)
{
    // A long packet whose head went through SA: the followers ride the
    // circuit, so exactly one grant happens for the whole packet.
    Rig rig(Scheme::Pseudo);
    const PortId in = westInput(rig);
    Flit head = rig.makeFlit(FlitType::Head, 3, 3, 1);
    head.packetSize = 4;
    rig.router->deliverFlit(in, head, rig.now);
    rig.step(1);
    for (std::uint32_t s = 1; s < 4; ++s) {
        Flit f = rig.makeFlit(s == 3 ? FlitType::Tail : FlitType::Body, 3,
                              3, 1);
        f.seq = s;
        f.packetSize = 4;
        rig.router->deliverFlit(in, f, rig.now);
        rig.step(1);
    }
    rig.step(4);
    EXPECT_EQ(rig.router->stats().xbarTraversals, 4u);
    EXPECT_EQ(rig.router->stats().saGrants, 1u);
    EXPECT_EQ(rig.router->stats().saBypasses, 3u);
}

TEST(RouterUnit, SleepsOnceLastFlitLeavesAndWakesOnEveryArrival)
{
    Rig rig(Scheme::PseudoSB);
    const PortId in = westInput(rig);
    EXPECT_FALSE(rig.router->awake());   // nothing delivered yet

    rig.router->deliverFlit(in, rig.makeFlit(FlitType::HeadTail, 3, 3),
                            rig.now);
    EXPECT_TRUE(rig.router->awake());
    rig.bandStep(2);   // BW | VA+SA: the flit waits on its grant
    EXPECT_TRUE(rig.router->awake());
    rig.bandStep(1);   // ST: the last flit leaves
    ASSERT_EQ(rig.router->sentFlits.size(), 1u);
    EXPECT_FALSE(rig.router->awake());
    rig.bandStep(5);
    EXPECT_EQ(rig.steps, 3);

    Credit credit;
    credit.outPort = rig.router->sentFlits[0].outPort;
    credit.vc = rig.router->sentFlits[0].flit.vc;
    rig.router->deliverCredit(credit, rig.now);
    EXPECT_TRUE(rig.router->awake());
    rig.bandStep(1);
    EXPECT_FALSE(rig.router->awake());

    rig.router->faultTeardown(in, rig.now);
    EXPECT_TRUE(rig.router->awake());
    rig.bandStep(1);
    EXPECT_FALSE(rig.router->awake());
    EXPECT_EQ(rig.steps, 5);
}

/**
 * Two heads from different inputs want the same output VC (static VA,
 * same destination), so VA's rotating start point picks the winner.
 * Run `prelude` on a fresh rig, deliver both heads, and return the
 * inputs in the order VA served them; `band` steps the rig as the band
 * loop does, otherwise every cycle.
 */
template <typename Prelude>
std::vector<PortId>
grantTrace(Prelude prelude, bool band)
{
    Rig rig(Scheme::PseudoSB);
    prelude(rig);
    const PortId west = westInput(rig);
    const PortId term = 0;
    Flit local = rig.makeFlit(FlitType::HeadTail, 3, 0, 2);
    local.src = 1;
    rig.router->deliverFlit(west, rig.makeFlit(FlitType::HeadTail, 3, 0),
                            rig.now);
    rig.router->deliverFlit(term, local, rig.now);
    std::vector<PortId> order;
    for (int c = 0; c < 12; ++c) {
        for (const PortId p : {west, term}) {
            if (rig.router->inputVc(p, 0).state() ==
                    InputVc::State::Active &&
                std::find(order.begin(), order.end(), p) == order.end())
                order.push_back(p);
        }
        if (band)
            rig.bandStep(1);
        else
            rig.step(1);
    }
    return order;
}

/** VA start positions in one full rotation of router 1. */
int
rotationSpan()
{
    return Rig(Scheme::PseudoSB).topo.numInputPorts(1) * SimConfig().numVcs;
}

TEST(RouterUnit, SkippedCyclesKeepTheVaRotation)
{
    // A router left unvisited for k idle cycles must pick as one stepped
    // through them, for every k in a full rotation: its next step()
    // applies the k owed rotations first.
    std::set<std::vector<PortId>> seen;
    for (int k = 0; k < rotationSpan(); ++k) {
        const auto want = grantTrace([k](Rig &rig) { rig.step(k); }, false);
        const auto got = grantTrace(
            [k](Rig &rig) {
                rig.bandStep(k);
                EXPECT_EQ(rig.steps, 0);
            },
            true);
        ASSERT_EQ(want.size(), 2u) << "k=" << k;
        EXPECT_EQ(got, want) << "k=" << k;
        seen.insert(want);
    }
    // The rotation decides: both orders occur over one span.
    EXPECT_EQ(seen.size(), 2u);
}

TEST(RouterUnit, StallHeldCyclesDoNotRotate)
{
    // Of k unvisited cycles, s are frozen by a stall clause (spread over
    // the k): the router must pick as one stepped through k - s cycles.
    const int span = rotationSpan();
    for (int k = 0; k <= span; ++k) {
        for (int s = 0; s <= k; ++s) {
            const auto want =
                grantTrace([&](Rig &rig) { rig.step(k - s); }, false);
            const auto got = grantTrace(
                [&](Rig &rig) {
                    for (int j = 0; j < k; ++j) {
                        if ((j + 1) * s / k != j * s / k)
                            rig.stallStep();
                        else
                            rig.bandStep(1);
                    }
                    EXPECT_EQ(rig.steps, 0);
                },
                true);
            ASSERT_EQ(want.size(), 2u) << "k=" << k << " s=" << s;
            EXPECT_EQ(got, want) << "k=" << k << " s=" << s;
        }
    }
}

TEST(RouterUnit, BaselineNeverBypasses)
{
    Rig rig(Scheme::Baseline);
    const PortId in = westInput(rig);
    for (PacketId p = 1; p <= 3; ++p) {
        rig.router->deliverFlit(
            in, rig.makeFlit(FlitType::HeadTail, 3, 3, p), rig.now);
        rig.step(5);
    }
    EXPECT_EQ(rig.router->stats().saGrants, 3u);
    EXPECT_EQ(rig.router->stats().saBypasses, 0u);
    EXPECT_EQ(rig.router->stats().bufferBypasses, 0u);
    EXPECT_EQ(rig.router->pcStats().created, 0u);
}

TEST(RouterUnit, VcBuffersHoldPortsTimesVcsTimesDepthSlots)
{
    SimConfig cfg;   // 4 VCs of 4 flits
    const Mesh mesh(4, 4, 1);
    const auto mesh_routing = makeRouting(RoutingKind::XY, mesh);
    const Router inner(cfg, mesh, *mesh_routing, mesh.routerAt(1, 1));
    ASSERT_EQ(inner.numInputPorts(), 5);
    EXPECT_EQ(inner.arenaBytes(), 5u * 4 * 4 * sizeof(BufferedFlit));

    SimConfig wide;
    wide.topology = TopologyKind::FlatFly;
    wide.numVcs = 6;
    wide.bufferDepth = 5;
    const FlattenedButterfly fbfly(8, 8, 4);
    const auto fbfly_routing = makeRouting(RoutingKind::XY, fbfly);
    const Router router(wide, fbfly, *fbfly_routing, 0);
    ASSERT_EQ(router.numInputPorts(), 18);   // 4 terminals + 7 + 7
    EXPECT_EQ(router.arenaBytes(), 18u * 6 * 5 * sizeof(BufferedFlit));

    // The 8x8 mesh's 288 input ports (36 inner routers of 5, 24 edge of
    // 4, 4 corners of 3): 405,504 bytes at an 88-byte BufferedFlit.
    cfg.topology = TopologyKind::Mesh;
    cfg.concentration = 1;
    cfg.meshWidth = 8;
    cfg.meshHeight = 8;
    const Network net(cfg);
    std::uint64_t total = 0;
    for (RouterId r = 0; r < 64; ++r)
        total += net.router(r).arenaBytes();
    EXPECT_EQ(total, 288u * 4 * 4 * sizeof(BufferedFlit));
}

} // namespace
} // namespace noc
