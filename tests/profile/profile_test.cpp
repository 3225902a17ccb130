#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "profile/profile.hpp"
#include "sim/simulator.hpp"
#include "traffic/synthetic.hpp"

namespace noc {
namespace {

TEST(ProfPhase, NamesAreStableAndUnique)
{
    std::set<std::string> seen;
    for (int i = 0; i < kNumProfPhases; ++i) {
        const std::string name = toString(static_cast<ProfPhase>(i));
        EXPECT_FALSE(name.empty()) << "phase " << i;
        EXPECT_TRUE(seen.insert(name).second)
            << "duplicate phase name '" << name << "'";
    }
    // Report formatting and the Chrome trace exporter key off these.
    EXPECT_EQ(std::string("router-step"), toString(ProfPhase::RouterStep));
    EXPECT_EQ(std::string("st"), toString(ProfPhase::SwitchTraversal));
    EXPECT_EQ(std::string("va"), toString(ProfPhase::VcAlloc));
    EXPECT_EQ(std::string("sa"), toString(ProfPhase::SwitchAlloc));
}

TEST(ProfPhase, CyclePhasesOrderBeforeRouterPhases)
{
    // chrome_trace.cpp and report() rely on the taxonomy split being
    // expressible as a relational comparison.
    EXPECT_LT(ProfPhase::FaultHook, ProfPhase::SwitchTraversal);
    EXPECT_LT(ProfPhase::VerifyHook, ProfPhase::SwitchTraversal);
    EXPECT_FALSE(ProfPhase::RouteCompute < ProfPhase::SwitchTraversal);
}

TEST(ProfClock, MonotoneAndCalibrated)
{
    const std::uint64_t a = profNow();
    // Burn a little time so the delta is visible on any clock source.
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i)
        sink = sink + static_cast<double>(i);
    (void)sink;
    const std::uint64_t b = profNow();
    EXPECT_GE(b, a);
    EXPECT_GT(b - a, 0u);

    EXPECT_EQ(0.0, profTicksToNs(0));
    const double one = profTicksToNs(1);
    EXPECT_GT(one, 0.0);
    // Calibration is per-process: conversion must be linear.
    EXPECT_NEAR(profTicksToNs(1000), one * 1000.0, one * 0.001);
}

TEST(ProcMemory, ReportsResidentSetOnLinux)
{
    MemorySnapshot snap;
    const bool ok = readProcMemory(snap);
#if defined(__linux__)
    ASSERT_TRUE(ok);
    EXPECT_GT(snap.rssBytes, 0u);
    EXPECT_GE(snap.peakRssBytes, snap.rssBytes);
#else
    EXPECT_FALSE(ok);
#endif
    // The VC-buffer total belongs to the caller; the proc read leaves it be.
    EXPECT_EQ(0u, snap.arenaBytes);
}

TEST(PhaseProfiler, AccumulatesTicksAndCalls)
{
    PhaseProfiler prof;
    prof.add(ProfPhase::RouterStep, 100);
    prof.add(ProfPhase::RouterStep, 50);
    prof.add(ProfPhase::NiInject, 7);
    EXPECT_EQ(2u, prof.phaseCalls(ProfPhase::RouterStep));
    EXPECT_EQ(1u, prof.phaseCalls(ProfPhase::NiInject));
    EXPECT_EQ(0u, prof.phaseCalls(ProfPhase::VerifyHook));
    EXPECT_DOUBLE_EQ(profTicksToNs(150), prof.phaseNs(ProfPhase::RouterStep));
}

TEST(PhaseProfiler, FineSamplingHonorsPeriod)
{
    PhaseProfiler::Config cfg;
    cfg.fineEvery = 4;
    PhaseProfiler prof(cfg);
    int sampled = 0;
    for (Cycle c = 0; c < 16; ++c) {
        prof.beginCycle(c);
        if (prof.fine() != nullptr) {
            ++sampled;
            EXPECT_EQ(0u, c % 4) << "sampled off-period cycle " << c;
            EXPECT_EQ(&prof, prof.fine());
            EXPECT_EQ(c, prof.fineCycle());
        }
    }
    EXPECT_EQ(4, sampled);
}

TEST(PhaseProfiler, PeriodOneSamplesEveryCycleAndRoundsUp)
{
    PhaseProfiler::Config every;
    every.fineEvery = 1;
    PhaseProfiler prof(every);
    for (Cycle c = 0; c < 5; ++c) {
        prof.beginCycle(c);
        EXPECT_EQ(&prof, prof.fine()) << "cycle " << c;
    }

    // Non-power-of-two periods round up (mask arithmetic): 5 -> 8.
    PhaseProfiler::Config odd;
    odd.fineEvery = 5;
    PhaseProfiler rounded(odd);
    int sampled = 0;
    for (Cycle c = 0; c < 32; ++c) {
        rounded.beginCycle(c);
        sampled += rounded.fine() != nullptr ? 1 : 0;
    }
    EXPECT_EQ(4, sampled);
}

TEST(PhaseProfiler, SpanRecordingIsSampledAndBounded)
{
    PhaseProfiler::Config cfg;
    cfg.fineEvery = 2;
    cfg.spans = true;
    PhaseProfiler prof(cfg);

    prof.beginCycle(0);
    EXPECT_TRUE(prof.wantSpans());
    prof.beginCycle(1);
    EXPECT_FALSE(prof.wantSpans()) << "non-sampled cycle records no spans";

    prof.addSpan(0, ProfPhase::RouterStep, 10);
    prof.addSpan(0, ProfPhase::NiInject, 20);
    Cycle c = 2;
    for (; prof.spans().size() < PhaseProfiler::kMaxSpans; c += 2)
        prof.addSpan(c, ProfPhase::RouterStep, 30);
    prof.addSpan(c, ProfPhase::RouterStep, 40);   // over the cap: dropped
    ASSERT_EQ(PhaseProfiler::kMaxSpans, prof.spans().size());
    EXPECT_EQ(ProfPhase::NiInject, prof.spans()[1].phase);
    EXPECT_EQ(Cycle{2}, prof.spans()[2].cycle);
    EXPECT_EQ(c - 2, prof.spans().back().cycle);
    EXPECT_EQ(30u, prof.spans().back().ticks);

    PhaseProfiler off;
    off.beginCycle(0);
    EXPECT_FALSE(off.wantSpans()) << "spans default off";
}

TEST(PhaseProfiler, ReportSumsCyclePhasesOnly)
{
    PhaseProfiler prof;
    prof.add(ProfPhase::RouterStep, 1000);
    prof.add(ProfPhase::NiInject, 500);
    prof.add(ProfPhase::SwitchTraversal, 100000);   // sampled: not in total
    prof.noteCycle();
    prof.noteCycle();

    const ProfileReport rep = prof.report();
    EXPECT_EQ(Cycle{2}, rep.cycles);
    EXPECT_FALSE(rep.memoryValid);
    ASSERT_EQ(3u, rep.phases.size());
    // Taxonomy order, zero-cost phases skipped.
    EXPECT_EQ("ni-inject", rep.phases[0].name);
    EXPECT_EQ("router-step", rep.phases[1].name);
    EXPECT_EQ("st", rep.phases[2].name);
    EXPECT_DOUBLE_EQ(profTicksToNs(1500), rep.totalNs);
}

TEST(PhaseProfiler, ReportCapturesMemoryWhenAsked)
{
    PhaseProfiler::Config cfg;
    cfg.memory = true;
    PhaseProfiler prof(cfg);
    prof.noteArena(4096);
    prof.noteArena(1024);
    const ProfileReport rep = prof.report();
#if defined(__linux__)
    ASSERT_TRUE(rep.memoryValid);
    EXPECT_GT(rep.memory.rssBytes, 0u);
#endif
    EXPECT_EQ(5120u, rep.memory.arenaBytes);
}

TEST(FormatProfileReport, RendersPhasesSharesAndMemory)
{
    PhaseProfiler::Config cfg;
    cfg.memory = true;
    PhaseProfiler prof(cfg);
    prof.add(ProfPhase::RouterStep, 3000);
    prof.add(ProfPhase::NiInject, 1000);
    prof.add(ProfPhase::VcAlloc, 200);
    prof.noteCycle();

    const std::string text = formatProfileReport(prof.report());
    EXPECT_NE(std::string::npos, text.find("phase profile (1 cycles"));
    EXPECT_NE(std::string::npos, text.find("router-step"));
    EXPECT_NE(std::string::npos, text.find("ni-inject"));
    EXPECT_NE(std::string::npos, text.find("va"));
    EXPECT_NE(std::string::npos, text.find("total (cycle phases)"));
#if defined(__linux__)
    EXPECT_NE(std::string::npos, text.find("memory: rss"));
#endif

    // Empty report renders without a phase table (and without crashing).
    const std::string empty = formatProfileReport(PhaseProfiler().report());
    EXPECT_NE(std::string::npos, empty.find("phase profile"));
}

TEST(ProfScope, AttributesElapsedTimeOrNothingWhenNull)
{
    PhaseProfiler prof;
    {
        NOC_PROF_SCOPE(&prof, RouterStep);
        volatile int sink = 0;
        for (int i = 0; i < 1000; ++i)
            sink = sink + i;
        (void)sink;
    }
    EXPECT_EQ(1u, prof.phaseCalls(ProfPhase::RouterStep));
    EXPECT_GT(prof.phaseNs(ProfPhase::RouterStep), 0.0);

    {
        NOC_PROF_SCOPE(static_cast<PhaseProfiler *>(nullptr), RouterStep);
    }
    EXPECT_EQ(1u, prof.phaseCalls(ProfPhase::RouterStep));
}

TEST(ProfilerEndToEnd, SimulatorRunAttributesEveryCycle)
{
    SimConfig cfg;
    cfg.topology = TopologyKind::Mesh;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.concentration = 1;
    cfg.routing = RoutingKind::XY;
    cfg.vaPolicy = VaPolicy::Static;
    cfg.scheme = Scheme::PseudoSB;

    PhaseProfiler::Config pcfg;
    pcfg.fineEvery = 8;
    PhaseProfiler prof(pcfg);

    Simulator sim(cfg, std::make_unique<SyntheticTraffic>(
                           SyntheticPattern::UniformRandom, cfg.numNodes(),
                           0.10, 5, /*seed=*/4242));
    sim.setProfiler(&prof);
    SimWindows w;
    w.warmup = 200;
    w.measure = 800;
    const SimResult result = sim.run(w);

    // Every simulated cycle opened one scope per cycle phase.
    EXPECT_EQ(result.cyclesRun, prof.cycles());
    EXPECT_EQ(result.cyclesRun, prof.phaseCalls(ProfPhase::RouterStep));
    EXPECT_EQ(result.cyclesRun, prof.phaseCalls(ProfPhase::NiInject));
    EXPECT_GT(prof.phaseNs(ProfPhase::RouterStep), 0.0);
    // The sampled phases fired on roughly cycles/fineEvery cycles,
    // once per router (16 routers, ST runs every sampled cycle).
    EXPECT_GT(prof.phaseCalls(ProfPhase::SwitchTraversal), 0u);
    EXPECT_LT(prof.phaseCalls(ProfPhase::SwitchTraversal),
              result.cyclesRun * 16);
    const ProfileReport rep = prof.report();
    EXPECT_GT(rep.totalNs, 0.0);
}

} // namespace
} // namespace noc
