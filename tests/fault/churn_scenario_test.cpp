/**
 * @file
 * End-to-end churn scenarios: topology churn is *lossless* — window,
 * periodic, trace, and router churn all deliver exactly the delivery
 * multiset of the churn-free run under the full invariant mask; random
 * churn drains with closed accounting; an isolated router degrades to
 * refusals instead of wedging; and a trace replay is bit-identical to
 * the equivalent window clause.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "common/options.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "traffic/synthetic.hpp"
#include "verify/liveness.hpp"
#include "verify/verify.hpp"

namespace noc {
namespace {

/// (src, dst, createTime, size) identifies a packet independently of
/// timing, so multisets of these compare delivery *content* across runs
/// whose latencies differ.
using PacketKey = std::tuple<NodeId, NodeId, Cycle, std::uint32_t>;
using PacketMultiset = std::multiset<PacketKey>;

class RecordingSource : public TrafficSource
{
  public:
    explicit RecordingSource(std::unique_ptr<TrafficSource> inner)
        : inner_(std::move(inner))
    {
    }

    void tick(Network &net, Cycle now, SimPhase phase) override
    {
        inner_->tick(net, now, phase);
    }

    void onPacketDelivered(const CompletedPacket &p, Network &net,
                           Cycle now) override
    {
        delivered_.insert(PacketKey{p.src, p.dst, p.createTime, p.size});
        inner_->onPacketDelivered(p, net, now);
    }

    bool exhausted() const override { return inner_->exhausted(); }

    const PacketMultiset &delivered() const { return delivered_; }

  private:
    std::unique_ptr<TrafficSource> inner_;
    PacketMultiset delivered_;
};

SimWindows
shortWindows()
{
    SimWindows w;
    w.warmup = 500;
    w.measure = 4000;
    w.drainLimit = 30000;
    return w;
}

struct ScenarioRun
{
    SimResult result;
    PacketMultiset delivered;
    std::uint64_t violations = 0;
    std::string report;
};

ScenarioRun
runChurn(SimConfig cfg, const std::string &churn, double load = 0.12)
{
    ScenarioRun out;
    cfg.seed = 11;
    cfg.churnSpec = churn;
    auto inner = syntheticTraffic(cfg, SyntheticPattern::UniformRandom, load,
                                  5);
    auto recorder = std::make_unique<RecordingSource>(std::move(inner));
    const RecordingSource *rec = recorder.get();
    Simulator sim(cfg, std::move(recorder));
    InvariantChecker checker;
    sim.setVerifier(&checker);
    out.result = sim.run(shortWindows());
    out.delivered = rec->delivered();
    out.violations = checker.violationCount();
    out.report = checker.report();
    // Every churned run must close its accounting books.
    if (out.result.fault.active) {
        const LivenessVerdict v =
            checkLiveness(out.result.fault, out.result.drained);
        EXPECT_TRUE(v.ok) << v.message;
    }
    return out;
}

TEST(ChurnScenario, WindowOutagePreservesTheDeliveryMultiset)
{
    // One link unplugged for 600 cycles mid-measure: packets routed
    // onto it wait in the retry buffer and resume at revival, nothing
    // is lost, and the full invariant mask stays green (churn takes
    // only progress waivers).
    const char *schemes[] = {"baseline", "pseudo-sb"};
    for (const char *name : schemes) {
        SCOPED_TRACE(name);
        SimConfig cfg = traceConfig();
        cfg.scheme = parseScheme(name);

        const ScenarioRun clean = runChurn(cfg, "");
        const ScenarioRun churned = runChurn(cfg, "window:5>6@1000..1599");

        ASSERT_TRUE(clean.result.drained);
        ASSERT_TRUE(churned.result.drained);
        EXPECT_GT(clean.delivered.size(), 100u);
        EXPECT_EQ(clean.delivered, churned.delivered);

        const FaultReport &f = churned.result.fault;
        ASSERT_TRUE(f.active);
        EXPECT_TRUE(f.churn);
        EXPECT_EQ(f.linkDownEvents, 1u);
        EXPECT_EQ(f.linkUpEvents, 1u);
        EXPECT_EQ(f.packetsDropped, 0u);   // lossless, unlike kill-link
        // Deferred flits all came back out at revival.
        EXPECT_EQ(f.flitsDeferred, f.flitsResumed);
        EXPECT_EQ(clean.violations, 0u) << clean.report;
        EXPECT_EQ(churned.violations, 0u) << churned.report;
    }
}

TEST(ChurnScenario, PeriodicChurnPreservesTheDeliveryMultiset)
{
    // A link that flaps all run long — up 300 / down 120, ~10 outages
    // across the window — still loses nothing.
    SimConfig cfg = traceConfig();
    cfg.scheme = Scheme::PseudoSB;

    const ScenarioRun clean = runChurn(cfg, "");
    const ScenarioRun churned =
        runChurn(cfg, "period:5>6@up300/down120");

    ASSERT_TRUE(churned.result.drained);
    EXPECT_EQ(clean.delivered, churned.delivered);

    const FaultReport &f = churned.result.fault;
    EXPECT_GT(f.linkDownEvents, 3u);
    EXPECT_GE(f.linkDownEvents, f.linkUpEvents);   // may end down-ward
    EXPECT_EQ(f.packetsDropped, 0u);
    EXPECT_EQ(f.flitsDeferred, f.flitsResumed);
    EXPECT_EQ(churned.violations, 0u) << churned.report;
}

TEST(ChurnScenario, RandomChurnDrainsWithClosedAccounting)
{
    // Seeded random churn over 3 links: the exact delivery order is
    // churn-dependent, but the run must drain, account for every
    // packet, and keep the invariant mask green. Same seed, same churn:
    // a second run is bit-identical.
    SimConfig cfg = traceConfig();
    cfg.scheme = Scheme::Pseudo;

    const std::string spec = "random@mttf700/mttr120/links3";
    const ScenarioRun a = runChurn(cfg, spec);
    const ScenarioRun b = runChurn(cfg, spec);

    ASSERT_TRUE(a.result.drained);
    const FaultReport &f = a.result.fault;
    ASSERT_TRUE(f.churn);
    EXPECT_GT(f.linkDownEvents, 0u);
    EXPECT_EQ(f.packetsDropped, 0u);
    EXPECT_EQ(f.packetsInFlight, 0u);   // drained ⇒ books closed
    EXPECT_EQ(a.violations, 0u) << a.report;

    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.result.fault.linkDownEvents, b.result.fault.linkDownEvents);
    EXPECT_EQ(a.result.avgTotalLatency, b.result.avgTotalLatency);
}

TEST(ChurnScenario, RouterChurnIsAbsorbedLikeAStall)
{
    // A periodically-down router freezes (stall semantics) rather than
    // dropping: the delivery multiset is unchanged, the frozen cycles
    // are accounted, and both transitions are counted.
    SimConfig cfg = traceConfig();
    cfg.scheme = Scheme::PseudoSB;

    const ScenarioRun clean = runChurn(cfg, "");
    const ScenarioRun churned =
        runChurn(cfg, "router-period:5@up1500/down150");

    ASSERT_TRUE(churned.result.drained);
    EXPECT_EQ(clean.delivered, churned.delivered);

    const FaultReport &f = churned.result.fault;
    EXPECT_GT(f.routerDownEvents, 0u);
    EXPECT_GT(f.routerUpEvents, 0u);
    EXPECT_GT(f.stallCycles, 0u);
    EXPECT_EQ(f.packetsDropped, 0u);
    EXPECT_EQ(churned.violations, 0u) << churned.report;
}

TEST(ChurnScenario, IsolatedRouterDegradesToRefusals)
{
    // Take both links *into* corner router 0 down for most of the run:
    // flows toward its terminals are refused at injection (counted
    // unroutable), the rest of the grid keeps working, and after the
    // revival the network drains clean.
    SimConfig cfg = traceConfig();
    cfg.scheme = Scheme::Pseudo;

    const ScenarioRun r = runChurn(
        cfg, "window:1>0@600..4000,window:4>0@600..4000");

    const FaultReport &f = r.result.fault;
    ASSERT_TRUE(f.active);
    ASSERT_TRUE(r.result.drained);
    EXPECT_GT(f.packetsUnroutable, 0u);
    EXPECT_GT(f.packetsDelivered, 0u);
    EXPECT_EQ(f.packetsDropped, 0u);
    std::uint64_t flowUnroutable = 0;
    for (const FaultReport::Flow &fl : f.flows)
        flowUnroutable += fl.unroutable;
    EXPECT_EQ(flowUnroutable, f.packetsUnroutable);
    EXPECT_EQ(r.violations, 0u) << r.report;
}

TEST(ChurnScenario, TraceReplayMatchesTheEquivalentWindow)
{
    // A trace that takes 5>6 down at 1000 and up at 1600 is the same
    // plan as window:5>6@1000..1599 — and must be *bit*-identical, not
    // just multiset-equal: same latencies, same counters.
    SimConfig cfg = traceConfig();
    cfg.scheme = Scheme::PseudoSB;

    const std::string path = ::testing::TempDir() + "churn_scenario.trace";
    {
        std::ofstream out(path);
        out << "# equivalent of window:5>6@1000..1599\n"
               "1000 link 5>6 down\n"
               "1600 link 5>6 up\n";
    }
    const ScenarioRun viaWindow = runChurn(cfg, "window:5>6@1000..1599");
    const ScenarioRun viaTrace = runChurn(cfg, "trace:" + path);
    std::remove(path.c_str());

    ASSERT_TRUE(viaWindow.result.drained);
    ASSERT_TRUE(viaTrace.result.drained);
    EXPECT_EQ(viaWindow.delivered, viaTrace.delivered);
    EXPECT_EQ(viaWindow.result.avgTotalLatency,
              viaTrace.result.avgTotalLatency);
    EXPECT_EQ(viaWindow.result.measuredPackets,
              viaTrace.result.measuredPackets);
    EXPECT_EQ(viaWindow.result.fault.flitsDeferred,
              viaTrace.result.fault.flitsDeferred);
    EXPECT_EQ(viaWindow.result.fault.churnTeardowns,
              viaTrace.result.fault.churnTeardowns);
    EXPECT_EQ(viaTrace.violations, 0u) << viaTrace.report;

    // Inside an outage another clause holds longer, the trace's `up`
    // line revives nothing: the outages merge to the later revival
    // exactly as the window does (the period keeps 5>6 down 400..999).
    {
        std::ofstream out(path);
        out << "600 link 5>6 down\n"
               "800 link 5>6 up\n";
    }
    const std::string period = "period:5>6@up400/down600";
    const ScenarioRun mergedWindow =
        runChurn(cfg, period + ",window:5>6@600..799");
    const ScenarioRun mergedTrace = runChurn(cfg, period + ",trace:" + path);
    std::remove(path.c_str());

    ASSERT_TRUE(mergedWindow.result.drained);
    ASSERT_TRUE(mergedTrace.result.drained);
    EXPECT_EQ(mergedWindow.result.avgTotalLatency,
              mergedTrace.result.avgTotalLatency);
    EXPECT_EQ(mergedWindow.result.measuredPackets,
              mergedTrace.result.measuredPackets);
    EXPECT_EQ(mergedWindow.result.fault.linkUpEvents,
              mergedTrace.result.fault.linkUpEvents);
    EXPECT_EQ(mergedWindow.result.fault.flitsDeferred,
              mergedTrace.result.fault.flitsDeferred);
    EXPECT_EQ(mergedWindow.result.fault.churnTeardowns,
              mergedTrace.result.fault.churnTeardowns);
    EXPECT_EQ(mergedTrace.violations, 0u) << mergedTrace.report;
}

TEST(ChurnScenario, InFlightPacketsAreReportedAtDrainTimeout)
{
    // A link that goes down and never comes back, with no alternate
    // path out of the corner (both exits of router 0 cut): packets
    // queued behind the outage can neither advance nor be refused, the
    // drain times out, and the degradation report owns up to them via
    // packetsInFlight instead of quietly losing count.
    SimConfig cfg = traceConfig();
    cfg.scheme = Scheme::Pseudo;

    SimWindows w = shortWindows();
    w.drainLimit = 3000;   // don't wait long: the outage outlives it
    ScenarioRun out;
    cfg.seed = 11;
    cfg.churnSpec = "window:0>1@800..900000,window:0>4@800..900000";
    auto inner = syntheticTraffic(cfg, SyntheticPattern::UniformRandom, 0.12,
                                  5);
    auto recorder = std::make_unique<RecordingSource>(std::move(inner));
    Simulator sim(cfg, std::move(recorder));
    out.result = sim.run(w);

    const FaultReport &f = out.result.fault;
    ASSERT_TRUE(f.active);
    EXPECT_FALSE(out.result.drained);
    EXPECT_GT(f.packetsInFlight, 0u);
    // The books still close: offered == delivered + dropped +
    // unroutable + in-flight, per flow and in total.
    const LivenessVerdict v = checkLiveness(f, out.result.drained);
    EXPECT_TRUE(v.ok) << v.message;
}

TEST(ChurnScenario, KillLinkOnAFlappingLinkIsDeclaredDead)
{
    // Link 2>3 is killed at cycle 374 while a period clause also flaps
    // it (up 317, down 131). No up phase lasts retryLimit (8) timeouts
    // of 43 cycles, so a retry count reset at every revival would never
    // reach the limit, leaving the link alive and the drain spinning to
    // its 10000-cycle watchdog. The count carries over outages, so the
    // link dies and the run stops within the first thousand cycles with
    // its books closed.
    const SimConfig cfg = configFromOptions(Options::parse(
        {"topology=cmesh", "width=2", "height=2", "concentration=4",
         "vcs=5", "buffers=5", "scheme=pseudo", "routing=xy", "va=static",
         "seed=337022",
         "fault=flip-link:0>1@p0.02,kill-link:2>3@cycle374,retry-timeout=43",
         "churn=period:2>3@up317/down131"}));
    auto src = syntheticTraffic(cfg, SyntheticPattern::BitReverse, 0.08, 4);
    Simulator sim(cfg, std::move(src));
    InvariantChecker checker;
    sim.setVerifier(&checker);
    SimWindows windows;
    windows.warmup = 300;
    windows.measure = 250;
    windows.drainLimit = 20000;
    const SimResult result = sim.run(windows);

    const FaultReport &f = result.fault;
    ASSERT_TRUE(f.active);
    EXPECT_EQ(f.linksKilled, 1u);
    EXPECT_LT(result.cyclesRun, 2000u);
    EXPECT_EQ(checker.violationCount(), 0u) << checker.report();
    const LivenessVerdict v = checkLiveness(f, result.drained);
    EXPECT_TRUE(v.ok) << v.message;
}

} // namespace
} // namespace noc
