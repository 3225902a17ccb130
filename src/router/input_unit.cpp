#include "router/input_unit.hpp"

#include "common/log.hpp"

namespace noc {

void
InputVc::activate(VcId out_vc, bool express)
{
    NOC_ASSERT(state_ == State::WaitingVa, "activate without pending VA");
    state_ = State::Active;
    outVc_ = out_vc;
    outVcExpress_ = express;
}

void
InputVc::noteBypassedFlit(const Flit &flit)
{
    NOC_ASSERT(empty(), "buffer bypass with a non-empty VC buffer");
    NOC_ASSERT(state_ == State::Active, "bypassed flit on inactive VC");
    if (isTail(flit.type))
        finishPacket();
}

void
InputVc::startPacket(const RouteDecision &route)
{
    NOC_ASSERT(state_ == State::Idle, "packet start on busy VC");
    state_ = State::WaitingVa;
    route_ = route;
    outVc_ = kInvalidVc;
    outVcExpress_ = false;
    vaFailStamp_ = kNoVaFail;
}

void
InputVc::finishPacket()
{
    state_ = State::Idle;
    outVc_ = kInvalidVc;
    outVcExpress_ = false;
    if (!empty()) {
        const Flit &next = front().flit;
        NOC_ASSERT(isHead(next.type),
                   "non-head flit behind a tail in a VC FIFO");
        startPacket(next.route);
    }
}

} // namespace noc
