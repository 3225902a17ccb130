/**
 * @file
 * Input-port state: per-VC flit FIFOs and the per-VC packet state machine.
 *
 * The state machine describes the packet currently at the *front* of the
 * VC (wormhole allows several packets queued back to back in one VC FIFO;
 * transitions happen when heads arrive at an empty VC and when tails
 * depart). With buffer bypassing, flits may flow through a VC without ever
 * being enqueued; the state machine still tracks the in-flight packet.
 *
 * Each VC owns its FIFO: a ring of exactly `bufferDepth` slots, allocated
 * once at construction, so the cycle loop never touches the heap. Credit
 * flow control guarantees the ring never overflows (enqueue() asserts it).
 */

#ifndef NOC_ROUTER_INPUT_UNIT_HPP
#define NOC_ROUTER_INPUT_UNIT_HPP

#include <cstdint>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"
#include "router/flit.hpp"

namespace noc {

/** A buffered flit plus the first cycle it may leave the buffer. */
struct BufferedFlit
{
    Flit flit;
    Cycle ready = 0;   ///< buffer write occupies the arrival cycle
};

class InputVc
{
  public:
    enum class State {
        Idle,        ///< no packet in progress
        WaitingVa,   ///< head at front, needs an output VC
        Active,      ///< output VC allocated; flits compete for the switch
    };

    /** A VC whose FIFO holds `depth` flits. */
    explicit InputVc(int depth) : slots_(static_cast<std::size_t>(depth)) {}

    State state() const { return state_; }
    const RouteDecision &route() const { return route_; }
    VcId outVc() const { return outVc_; }
    /** True when the allocated output VC is an EVC express channel. */
    bool outVcExpress() const { return outVcExpress_; }

    bool empty() const { return size_ == 0; }
    std::size_t occupancy() const { return size_; }
    /** High-water mark of the FIFO over the whole run (heatmaps). */
    std::size_t peakOccupancy() const { return peak_; }
    const BufferedFlit &
    front() const
    {
        NOC_ASSERT(size_ > 0, "front of an empty VC");
        return slots_[head_];
    }
    bool frontReady(Cycle now) const
    {
        return size_ > 0 && slots_[head_].ready <= now;
    }

    /** Buffer write; caller must have verified space via credits.
     *  Inline: one call per flit-hop on the simulation hot path. */
    void
    enqueue(const Flit &flit, Cycle ready_at)
    {
        NOC_ASSERT(size_ < slots_.size(),
                   "buffer overflow — credit flow control is broken");
        // If the VC was drained/idle and a head arrives, a new packet
        // starts.
        if (size_ == 0 && state_ == State::Idle) {
            NOC_ASSERT(isHead(flit.type),
                       "body flit arrived at an idle, empty VC");
            startPacket(flit.route);
        }
        std::size_t tail = head_ + size_;
        if (tail >= slots_.size())
            tail -= slots_.size();
        slots_[tail] = {flit, ready_at};
        if (++size_ > peak_)
            peak_ = size_;
    }

    /** Pop the front flit (switch traversal of a buffered flit). */
    Flit
    dequeue()
    {
        NOC_ASSERT(size_ > 0, "dequeue from empty VC");
        const Flit flit = slots_[head_].flit;
        if (++head_ == slots_.size())
            head_ = 0;
        --size_;
        if (isTail(flit.type))
            finishPacket();
        return flit;
    }

    /**
     * VA-failure memo: the output port's version() at the head's last
     * failed allocation attempt. While the port version is unchanged a
     * retry is guaranteed to fail again (only release/addCredit can flip
     * the outcome, and both bump the version), so the allocator skips it.
     */
    std::uint64_t vaFailStamp() const { return vaFailStamp_; }
    void setVaFailStamp(std::uint64_t stamp) { vaFailStamp_ = stamp; }

    /** Head got its output VC. */
    void activate(VcId out_vc, bool express);

    /**
     * State bookkeeping for a flit that bypassed the buffer entirely
     * (buffer bypassing, §4.B). Heads must already be activated by the
     * caller; tails return the VC to Idle.
     */
    void noteBypassedFlit(const Flit &flit);

    /** Transition WaitingVa with the given packet route (head at front). */
    void startPacket(const RouteDecision &route);

    /** Called after a tail departs: look at the next queued packet. */
    void finishPacket();

  private:
    /** Sentinel: no failed-VA memo (ports start at version 0). */
    static constexpr std::uint64_t kNoVaFail = ~std::uint64_t{0};

    std::vector<BufferedFlit> slots_;  ///< the FIFO ring, `depth` slots
    std::size_t head_ = 0;             ///< slot of the front flit
    std::size_t size_ = 0;             ///< flits buffered
    std::size_t peak_ = 0;
    State state_ = State::Idle;
    RouteDecision route_;
    VcId outVc_ = kInvalidVc;
    bool outVcExpress_ = false;
    std::uint64_t vaFailStamp_ = kNoVaFail;
};

} // namespace noc

#endif // NOC_ROUTER_INPUT_UNIT_HPP
