#include <gtest/gtest.h>

#include "router/input_unit.hpp"

namespace noc {
namespace {

Flit
makeFlit(FlitType type, PacketId pkt = 1, PortId out = 2)
{
    Flit f;
    f.packet = pkt;
    f.type = type;
    f.route = {out, 0};
    return f;
}

TEST(InputVc, StartsIdleAndEmpty)
{
    InputVc vc(4);
    EXPECT_EQ(vc.state(), InputVc::State::Idle);
    EXPECT_TRUE(vc.empty());
    EXPECT_FALSE(vc.frontReady(100));
}

TEST(InputVc, HeadArrivalStartsPacket)
{
    InputVc vc(4);
    vc.enqueue(makeFlit(FlitType::Head), 5);
    EXPECT_EQ(vc.state(), InputVc::State::WaitingVa);
    EXPECT_EQ(vc.route().outPort, 2);
    EXPECT_FALSE(vc.frontReady(4));
    EXPECT_TRUE(vc.frontReady(5));
}

TEST(InputVc, ActivateThenDrainPacket)
{
    InputVc vc(4);
    vc.enqueue(makeFlit(FlitType::Head), 1);
    vc.enqueue(makeFlit(FlitType::Body), 2);
    vc.enqueue(makeFlit(FlitType::Tail), 3);
    vc.activate(1, false);
    EXPECT_EQ(vc.state(), InputVc::State::Active);
    EXPECT_EQ(vc.outVc(), 1);

    EXPECT_EQ(vc.dequeue().type, FlitType::Head);
    EXPECT_EQ(vc.state(), InputVc::State::Active);
    EXPECT_EQ(vc.dequeue().type, FlitType::Body);
    EXPECT_EQ(vc.dequeue().type, FlitType::Tail);
    EXPECT_EQ(vc.state(), InputVc::State::Idle);
    EXPECT_EQ(vc.outVc(), kInvalidVc);
}

TEST(InputVc, HeadTailPacketCompletesImmediately)
{
    InputVc vc(4);
    vc.enqueue(makeFlit(FlitType::HeadTail), 1);
    vc.activate(0, false);
    vc.dequeue();
    EXPECT_EQ(vc.state(), InputVc::State::Idle);
}

TEST(InputVc, BackToBackPacketsInOneFifo)
{
    InputVc vc(4);
    vc.enqueue(makeFlit(FlitType::HeadTail, 1, 2), 1);
    Flit second = makeFlit(FlitType::HeadTail, 2, 3);
    vc.enqueue(second, 2);
    vc.activate(0, false);
    vc.dequeue();
    // Tail of packet 1 departed: packet 2's route takes over.
    EXPECT_EQ(vc.state(), InputVc::State::WaitingVa);
    EXPECT_EQ(vc.route().outPort, 3);
}

TEST(InputVc, BypassedFlitsKeepStateMachineInSync)
{
    InputVc vc(4);
    // Head bypassed: caller starts/activates explicitly.
    vc.startPacket({2, 0});
    vc.activate(1, false);
    vc.noteBypassedFlit(makeFlit(FlitType::Head));
    EXPECT_EQ(vc.state(), InputVc::State::Active);
    vc.noteBypassedFlit(makeFlit(FlitType::Body));
    EXPECT_EQ(vc.state(), InputVc::State::Active);
    vc.noteBypassedFlit(makeFlit(FlitType::Tail));
    EXPECT_EQ(vc.state(), InputVc::State::Idle);
}

TEST(InputVc, OccupancyTracksQueue)
{
    InputVc vc(4);
    vc.enqueue(makeFlit(FlitType::Head), 1);
    vc.enqueue(makeFlit(FlitType::Tail), 2);
    EXPECT_EQ(vc.occupancy(), 2u);
    vc.activate(0, false);
    vc.dequeue();
    EXPECT_EQ(vc.occupancy(), 1u);
}

TEST(InputVcDeath, OverflowIsCaught)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    InputVc vc(2);
    vc.enqueue(makeFlit(FlitType::Head), 1);
    vc.enqueue(makeFlit(FlitType::Body), 2);
    EXPECT_DEATH(vc.enqueue(makeFlit(FlitType::Tail), 3), "overflow");
}

TEST(InputVcDeath, BodyAtIdleEmptyVcIsProtocolViolation)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    InputVc vc(4);
    EXPECT_DEATH(vc.enqueue(makeFlit(FlitType::Body), 1), "idle");
}

} // namespace
} // namespace noc
