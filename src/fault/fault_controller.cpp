#include "fault/fault_controller.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "verify/verify.hpp"

namespace noc {

FaultController::FaultController(const FaultPlan &plan, const ChurnPlan &churn,
                                 const SimConfig &cfg, const Topology &topo)
    : plan_(plan), topo_(topo), linkLatency_(cfg.linkLatency),
      creditLatency_(cfg.creditLatency),
      retryTimeout_(plan.retryTimeout > 0
                        ? plan.retryTimeout
                        : 4 * static_cast<Cycle>(cfg.linkLatency +
                                                 cfg.creditLatency) +
                              8),
      // Distinct stream from traffic generation: a fault plan must not
      // perturb which packets the workload produces.
      rng_(cfg.seed * 9157 + 311),
      // A third stream for random churn: the same seed replays the same
      // availability schedule regardless of corruption rolls.
      churnRng_(cfg.seed * 7919 + 1543)
{
    if (cfg.scheme == Scheme::Evc &&
        (plan_.hasLinkClauses() || !plan_.stalls.empty()))
        NOC_FATAL("fault plan: link/stall clauses are not supported with "
                  "scheme=evc (express bypass has no link-retry path)");
    if (cfg.scheme == Scheme::Evc && !churn.empty())
        NOC_FATAL("churn plan: topology churn is not supported with "
                  "scheme=evc (express bypass has no link-retry path)");
    const bool grid_routing = cfg.routing == RoutingKind::XY ||
                              cfg.routing == RoutingKind::YX ||
                              cfg.routing == RoutingKind::Adaptive;
    if (!plan_.kills.empty()) {
        if (cfg.topology != TopologyKind::Mesh &&
            cfg.topology != TopologyKind::CMesh)
            NOC_FATAL("fault plan: kill-link requires topology=mesh|cmesh "
                      "(rerouting fallback assumes a grid)");
        // Detours bend a packet off its dimension order, which is only
        // provably deadlock-free when every packet in a VC partition
        // follows one deterministic DOR function. Adaptive's two
        // partitions are each DOR, but a detour inside one reintroduces
        // the forbidden turns — so kills stay DOR-only while churn
        // (which waits outages out instead of detouring) composes with
        // adaptive below.
        if (cfg.routing != RoutingKind::XY && cfg.routing != RoutingKind::YX)
            NOC_FATAL("fault plan: kill-link requires routing=xy|yx");
    }
    if (churn.hasLinkClauses()) {
        if (cfg.topology != TopologyKind::Mesh &&
            cfg.topology != TopologyKind::CMesh)
            NOC_FATAL("churn plan: link churn requires topology=mesh|cmesh "
                      "(availability-aware rerouting assumes a grid)");
        if (!grid_routing)
            NOC_FATAL("churn plan: link churn requires "
                      "routing=xy|yx|adaptive");
    }

    for (const FlipLinkClause &c : plan_.flips) {
        LinkState &ls = links_[linkFor(c.src, c.dst, "flip-link")];
        ls.flipProb = std::max(ls.flipProb, c.prob);
    }
    for (const KillLinkClause &c : plan_.kills) {
        LinkState &ls = links_[linkFor(c.src, c.dst, "kill-link")];
        ls.killAt = std::min(ls.killAt, c.atCycle);
    }

    // ------------------------------------------------------------------
    // The outage schedule. Sources start their outages in this order
    // within a cycle: stall-router, window, period, random, router-
    // period, trace. Links register in the order period, window,
    // random, trace, and their indices fix the order of revivals.
    // Registering a link via linkFor makes it *protected*, which is
    // output-transparent while nothing fires: an uncontended protected
    // transmission departs at now+1 exactly like an unprotected one,
    // and its ACK events are inert bookkeeping.
    // ------------------------------------------------------------------
    const auto check_router = [&](RouterId r, const char *what) {
        if (r < 0 || r >= topo_.numRouters())
            NOC_FATAL(std::string(what) + std::to_string(r) +
                      " out of range");
        return r;
    };
    const auto add_windows = [this](std::vector<Outage> windows) {
        OutageSource src;
        src.next = windows.front();
        src.windows = std::move(windows);
        src.nextWindow = 1;
        sources_.push_back(std::move(src));
    };
    for (const StallRouterClause &c : plan_.stalls) {
        const RouterId r =
            check_router(c.router, "fault plan: stall-router target ");
        add_windows({{c.from, c.to == kNeverCycle ? kNeverCycle : c.to + 1,
                      true, r, /*churn=*/false}});
    }
    const auto flap = [](OutageSource::Gen gen, bool router, int target,
                         Cycle up, Cycle down, Cycle first) {
        OutageSource src;
        src.gen = gen;
        src.next = {first, kNeverCycle, router, target};
        src.up = up;
        src.down = down;
        return src;
    };
    std::vector<OutageSource> flaps;   // start after the windows
    for (const ChurnPeriodClause &c : churn.periods)
        flaps.push_back(flap(OutageSource::Gen::Period, false,
                             linkFor(c.src, c.dst, "churn period"), c.up,
                             c.down, c.phase + c.up));
    for (const ChurnWindowClause &c : churn.windows)
        add_windows({{c.from, c.to + 1, false,
                      linkFor(c.src, c.dst, "churn window")}});
    std::vector<OutageSource> router_flaps;   // start after the random ones
    for (const RouterPeriodClause &c : churn.routerPeriods)
        router_flaps.push_back(flap(
            OutageSource::Gen::Period, true,
            check_router(c.router, "churn plan: router-period target "), c.up,
            c.down, c.phase + c.up));
    for (const RandomChurnClause &c : churn.randoms) {
        // Canonical enumeration of every router->router link, then N
        // distinct picks from the dedicated stream (linear probe on
        // collision): the same seed always churns the same links.
        std::vector<std::pair<RouterId, RouterId>> candidates;
        for (RouterId r = 0; r < topo_.numRouters(); ++r) {
            for (PortId p = 0; p < topo_.numOutputPorts(r); ++p) {
                const OutputChannel &chan = topo_.output(r, p);
                if (chan.isTerminal())
                    continue;
                for (const auto &drop : chan.drops)
                    candidates.emplace_back(r, drop.router);
            }
        }
        if (candidates.empty())
            NOC_FATAL("churn plan: random churn needs router-to-router "
                      "links in the topology");
        const std::size_t want =
            std::min<std::size_t>(static_cast<std::size_t>(c.links),
                                  candidates.size());
        std::vector<char> used(candidates.size(), 0);
        for (std::size_t k = 0; k < want; ++k) {
            std::size_t i = static_cast<std::size_t>(
                churnRng_.nextBelow(candidates.size()));
            while (used[i])
                i = (i + 1) % candidates.size();
            used[i] = 1;
            const int link = linkFor(candidates[i].first,
                                     candidates[i].second, "churn random");
            flaps.push_back(flap(OutageSource::Gen::Random, false, link,
                                 c.mttf, c.mttr,
                                 1 + churnRng_.nextBelow(2 * c.mttf - 1)));
        }
    }
    sources_.insert(sources_.end(), flaps.begin(), flaps.end());
    sources_.insert(sources_.end(), router_flaps.begin(), router_flaps.end());

    // A trace `down` line lasts until the next `up` line for the same
    // link or router (forever without one). `up` lines only end those
    // windows: a link another clause holds down stays down until the
    // later revival, exactly as if the outage were a window clause.
    std::vector<Outage> trace;
    std::map<std::pair<bool, int>, std::vector<std::size_t>> awaiting_up;
    for (const ChurnTraceEvent &e : churn.traceEvents) {
        const int target =
            e.isRouter ? check_router(e.src, "churn plan: trace router ")
                       : linkFor(e.src, e.dst, "churn trace");
        std::vector<std::size_t> &open = awaiting_up[{e.isRouter, target}];
        if (e.up) {
            for (const std::size_t i : open)
                trace[i].upAt = e.cycle;
            open.clear();
        } else {
            open.push_back(trace.size());
            trace.push_back({e.cycle, kNeverCycle, e.isRouter, target});
        }
    }
    if (!trace.empty())
        add_windows(std::move(trace));

    stalls_.resize(static_cast<std::size_t>(topo_.numRouters()));
    anyRouterOutages_ = !plan_.stalls.empty() || churn.hasRouterClauses();
    creditCounters_.assign(static_cast<std::size_t>(topo_.numRouters()), 0);
    report_.active = true;
    report_.churn = !churn.empty();
}

int
FaultController::linkFor(const RouterId src, const RouterId dst,
                         const char *clause)
{
    if (src < 0 || src >= topo_.numRouters() || dst < 0 ||
        dst >= topo_.numRouters())
        NOC_FATAL(std::string("fault plan: ") + clause + " router pair " +
                  std::to_string(src) + ">" + std::to_string(dst) +
                  " out of range");
    // Resolve the first (outPort, drop) on `src` that reaches `dst`.
    for (PortId p = 0; p < topo_.numOutputPorts(src); ++p) {
        const OutputChannel &chan = topo_.output(src, p);
        if (chan.isTerminal())
            continue;
        for (std::size_t d = 0; d < chan.drops.size(); ++d) {
            if (chan.drops[d].router != dst)
                continue;
            const std::uint64_t key =
                senderKey(src, p, static_cast<int>(d));
            auto it = senderIdx_.find(key);
            if (it != senderIdx_.end())
                return it->second;
            LinkState ls;
            ls.src = src;
            ls.dst = dst;
            ls.outPort = p;
            ls.dropIdx = static_cast<int>(d);
            ls.inPort = chan.drops[d].inPort;
            ls.distance = chan.drops[d].distance;
            links_.push_back(ls);
            const int idx = static_cast<int>(links_.size()) - 1;
            senderIdx_[key] = idx;
            receiverIdx_[receiverKey(dst, ls.inPort)] = idx;
            return idx;
        }
    }
    NOC_FATAL(std::string("fault plan: ") + clause + " names " +
              std::to_string(src) + ">" + std::to_string(dst) +
              " but the topology has no such link");
}

void
FaultController::bindVerifier(InvariantChecker *chk)
{
    chk_ = chk;
    if (!chk_)
        return;
    // Stall windows legitimately freeze forward progress; tell the
    // deadlock probe up front. Dead-link waivers install as links die.
    Cycle lastStallEnd = 0;
    for (const StallRouterClause &c : plan_.stalls)
        lastStallEnd = std::max(lastStallEnd, c.to);
    if (lastStallEnd > 0)
        chk_->waiveProgressUntil(lastStallEnd);
    for (const LinkState &ls : links_) {
        if (ls.dead) {
            chk_->waiveLink(ls.src, ls.outPort, ls.dropIdx);
            chk_->waiveProgressUntil(kNeverCycle);
        }
        // Down links leak no credits (flits wait in the retry buffer),
        // so only the progress probe is waived — until the revival
        // drains, or forever when no revival is scheduled.
        if (ls.down) {
            chk_->waiveProgressUntil(ls.upAt == kNeverCycle
                                         ? kNeverCycle
                                         : ls.upAt + retryTimeout_);
        }
    }
}

// ----------------------------------------------------------------------
// The outage schedule.
// ----------------------------------------------------------------------

void
FaultController::beginCycle(Cycle now)
{
    // Revivals before new outages: a link or router whose outage ends
    // the cycle another clause takes it away again transitions cleanly
    // (one up event, one down event) instead of merging. Links revive
    // in index order: a resumed window draws corruption rolls.
    if (downWithRevival_ > 0) {
        for (LinkState &ls : links_) {
            if (ls.down && now >= ls.upAt)
                linkChurnUp(ls, now);
        }
    }
    for (std::size_t i = 0; i < openWindows_.size();) {
        const Outage w = openWindows_[i];
        if (now < w.upAt) {
            ++i;
            continue;
        }
        --stalls_[static_cast<std::size_t>(w.target)].openWindows;
        if (w.churn)
            ++report_.routerUpEvents;
        openWindows_[i] = openWindows_.back();
        openWindows_.pop_back();
    }
    for (OutageSource &src : sources_)
        startOutages(src, now);
    // A router under overlapping windows counts once per window.
    report_.stallCycles += openWindows_.size();

    for (LinkState &ls : links_) {
        if (ls.dead || ls.down || ls.retryBuf.empty())
            continue;
        if (now >= ls.retryBuf.front().sentAt + retryTimeout_)
            resendWindow(ls, now, /*fromTimeout=*/true);
    }
}

void
FaultController::startOutages(OutageSource &src, Cycle now)
{
    // Mean-M durations are uniform over [1, 2M-1]; the down duration is
    // drawn before the up one.
    const auto draw = [this](Cycle mean) {
        return 1 + churnRng_.nextBelow(2 * mean - 1);
    };
    while (src.next.from <= now) {
        Outage o = src.next;
        if (src.gen == OutageSource::Gen::Windows) {
            src.next = src.nextWindow < src.windows.size()
                           ? src.windows[src.nextWindow++]
                           : Outage{};
        } else {
            const bool random = src.gen == OutageSource::Gen::Random;
            o.upAt = now + (random ? draw(src.down) : src.down);
            src.next.from = o.upAt + (random ? draw(src.up) : src.up);
        }
        if (!o.router) {
            linkChurnDown(links_[static_cast<std::size_t>(o.target)], o.upAt);
            continue;
        }
        openWindows_.push_back(o);
        ++stalls_[static_cast<std::size_t>(o.target)].openWindows;
        // A stall-router window was waived at bindVerifier.
        if (!o.churn)
            continue;
        ++report_.routerDownEvents;
        if (chk_)
            chk_->waiveProgressUntil(
                o.upAt == kNeverCycle ? kNeverCycle : o.upAt - 1);
    }
}

void
FaultController::linkChurnDown(LinkState &ls, Cycle upAt)
{
    if (ls.dead)
        return;   // permanently dead outranks churn
    if (ls.down) {
        // Overlapping outages merge: extend to the later revival.
        const Cycle merged = std::max(ls.upAt, upAt);
        if (merged != ls.upAt) {
            if (ls.upAt != kNeverCycle && merged == kNeverCycle)
                --downWithRevival_;
            ls.upAt = merged;
            if (chk_)
                chk_->waiveProgressUntil(merged == kNeverCycle
                                             ? kNeverCycle
                                             : merged + retryTimeout_);
        }
        return;
    }
    ls.down = true;
    ls.upAt = upAt;
    ++downLinks_;
    ++report_.linkDownEvents;
    if (upAt != kNeverCycle)
        ++downWithRevival_;
    // Epoch boundary: invalidate route memos, recompute reachability
    // over available links, flush pseudo-circuits at both endpoints.
    ++generation_;
    reachDirty_ = true;
    queueTeardowns(ls);
    if (chk_) {
        // Nothing is dropped and no credit leaks — only forward
        // progress legitimately pauses, until the post-revival resend
        // settles (or forever when no revival is scheduled).
        chk_->waiveProgressUntil(upAt == kNeverCycle
                                     ? kNeverCycle
                                     : upAt + retryTimeout_);
    }
}

void
FaultController::linkChurnUp(LinkState &ls, Cycle now)
{
    ls.down = false;
    --downWithRevival_;
    ls.upAt = kNeverCycle;
    --downLinks_;
    ++report_.linkUpEvents;
    ++generation_;
    reachDirty_ = true;
    queueTeardowns(ls);
    // Deferred flits resume in sequence order. The retry count carries
    // over: only an ACK that makes progress clears it (onAck), so a link
    // that also flaps is still declared dead once it stops delivering.
    for (RetryEntry &entry : ls.retryBuf) {
        transmit(ls, entry, now);
        ++report_.flitsResumed;
    }
}

void
FaultController::queueTeardowns(const LinkState &ls)
{
    // Cached routes at either endpoint may predate the transition; the
    // retransmitted / re-routed stream rebuilds circuits through the
    // normal allocation path.
    for (const RouterId r : {ls.src, ls.dst}) {
        for (PortId p = 0; p < topo_.numInputPorts(r); ++p)
            pendingTeardowns_.push_back({r, p});
    }
}

bool
FaultController::takeTeardowns(std::vector<TeardownRequest> &out)
{
    if (pendingTeardowns_.empty())
        return false;
    out.clear();
    out.swap(pendingTeardowns_);
    return true;
}

bool
FaultController::revivalPending(Cycle now) const
{
    if (downWithRevival_ > 0)
        return true;
    for (const Outage &w : openWindows_) {
        if (w.upAt != kNeverCycle && now < w.upAt)
            return true;
    }
    // A stall-router window is known from the start, so it is pending
    // from its first cycle; a churn window from the cycle after.
    for (const OutageSource &src : sources_) {
        if (!src.next.churn && src.next.from == now)
            return true;
    }
    return false;
}

// ----------------------------------------------------------------------
// Router stalls: deliveries held at the input wires.
// ----------------------------------------------------------------------

bool
FaultController::captureArrival(const ControlArrival &arrival)
{
    if (arrival.kind != ControlArrival::Kind::CreditToRouter ||
        !routerStalled(arrival.target))
        return false;
    stalls_[static_cast<std::size_t>(arrival.target)].credits.push_back(
        arrival);
    holding_.insert(arrival.target);
    return true;
}

bool
FaultController::captureArrival(const FlitArrival &arrival, Cycle now)
{
    if (arrival.toNi)
        return false;
    RouterStall &st = stalls_[static_cast<std::size_t>(arrival.target)];
    const auto port = static_cast<std::size_t>(arrival.inPort);
    // A port that released a held flit this cycle, or still holds some,
    // keeps the wire's order even when the router runs.
    const bool backlog = port < st.flits.size() &&
                         (!st.flits[port].empty() ||
                          st.releasedAt[port] == now);
    if (!routerStalled(arrival.target) && !backlog)
        return false;
    if (st.flits.empty()) {
        const auto ports =
            static_cast<std::size_t>(topo_.numInputPorts(arrival.target));
        st.flits.resize(ports);
        st.releasedAt.assign(ports, kNeverCycle);
    }
    st.flits[port].push_back(arrival);
    holding_.insert(arrival.target);
    return true;
}

void
FaultController::drainStallQueues(Cycle now,
                                  std::vector<ControlArrival> &credits,
                                  std::vector<FlitArrival> &flits)
{
    for (auto it = holding_.begin(); it != holding_.end();) {
        RouterStall &st = stalls_[static_cast<std::size_t>(*it)];
        if (st.openWindows > 0) {
            ++it;
            continue;
        }
        credits.insert(credits.end(), st.credits.begin(), st.credits.end());
        st.credits.clear();
        // One flit per port per cycle: the wire re-serialises its backlog.
        bool more = false;
        for (std::size_t p = 0; p < st.flits.size(); ++p) {
            std::deque<FlitArrival> &held = st.flits[p];
            if (held.empty())
                continue;
            flits.push_back(held.front());
            held.pop_front();
            st.releasedAt[p] = now;
            more = more || !held.empty();
        }
        it = more ? std::next(it) : holding_.erase(it);
    }
}

// ----------------------------------------------------------------------
// Protected links: sender.
// ----------------------------------------------------------------------

bool
FaultController::handleSend(RouterId r, PortId outPort, int dropIdx,
                            const Flit &flit, Cycle now)
{
    auto it = senderIdx_.find(senderKey(r, outPort, dropIdx));
    if (it == senderIdx_.end())
        return false;
    LinkState &ls = links_[it->second];
    if (ls.dead) {
        recordDropped(flit);
        return true;
    }
    RetryEntry entry;
    entry.flit = flit;
    entry.flit.linkSeq = ls.nextSeq++;
    transmit(ls, entry, now);
    ls.retryBuf.push_back(entry);
    NOC_ASSERT(ls.retryBuf.size() < 4096,
               "link retry buffer runaway (ACKs not draining?)");
    return true;
}

void
FaultController::transmit(LinkState &ls, RetryEntry &entry, Cycle now)
{
    // A down link is unplugged: nothing reaches the wire. The entry
    // waits in the retry buffer (bounded by the credit window) and
    // resumeLink() puts it on the wire at revival.
    if (ls.down) {
        entry.sentAt = now;
        ++report_.flitsDeferred;
        return;
    }
    // The wire carries one flit per cycle: serialise departures so a
    // retransmission burst cannot land two flits on one input port in
    // the same cycle.
    const Cycle depart = std::max(now + 1, ls.nextFreeTx);
    ls.nextFreeTx = depart + 1;
    entry.sentAt = depart;

    Flit onWire = entry.flit;
    onWire.corrupted = depart >= ls.killAt ||
                       (ls.flipProb > 0.0 && rng_.nextBool(ls.flipProb));
    if (onWire.corrupted)
        ++report_.flitsCorrupted;

    ring_->scheduleFlit(now, depart + linkLatency_ * ls.distance, 0, ls.dst,
                        ls.inPort, /*to_ni=*/false, onWire);
}

void
FaultController::resendWindow(LinkState &ls, Cycle now, bool fromTimeout)
{
    if (ls.retryBuf.empty())
        return;
    // No retries while unplugged: the outage is not the protocol's
    // fault, and counting it against retryLimit would kill the link.
    if (ls.down)
        return;
    ++ls.retryCount;
    if (ls.retryCount > plan_.retryLimit) {
        killLink(ls, now);
        return;
    }
    if (fromTimeout)
        ++report_.retryTimeouts;
    ls.lastResendAt = now;
    for (RetryEntry &entry : ls.retryBuf) {
        transmit(ls, entry, now);
        ++report_.flitsRetransmitted;
    }
}

void
FaultController::killLink(LinkState &ls, Cycle now)
{
    ls.dead = true;
    anyDead_ = true;
    ++generation_;
    reachDirty_ = true;
    ++report_.linksKilled;
    for (const RetryEntry &entry : ls.retryBuf)
        recordDropped(entry.flit);
    ls.retryBuf.clear();
    if (chk_) {
        // The dropped flits' credits never return: waive exactly this
        // link's ledger, and permanently silence the progress probe —
        // packets wedged behind the dead link are expected.
        chk_->waiveLink(ls.src, ls.outPort, ls.dropIdx);
        chk_->waiveProgressUntil(kNeverCycle);
    }
    (void)now;
}

void
FaultController::recordDropped(const Flit &flit)
{
    if (!droppedPackets_.insert(flit.packet).second)
        return;
    ++report_.packetsDropped;
    ++flows_[{flit.src, flit.dst}].dropped;
}

// ----------------------------------------------------------------------
// Protected links: receiver + ACK channel.
// ----------------------------------------------------------------------

void
FaultController::sendAck(const LinkState &ls, bool ok, std::uint32_t seq,
                         Cycle now)
{
    ControlArrival ack;
    ack.kind = ControlArrival::Kind::LinkAck;
    ack.ackOk = ok;
    ack.target = ls.src;
    ack.ackLink = static_cast<int>(&ls - links_.data());
    ack.ackSeq = seq;
    ring_->scheduleControl(now, now + 1 + creditLatency_ * ls.distance, ack);
}

bool
FaultController::onReceive(RouterId r, PortId inPort, const Flit &flit,
                           Cycle now)
{
    auto it = receiverIdx_.find(receiverKey(r, inPort));
    if (it == receiverIdx_.end())
        return true;
    LinkState &ls = links_[it->second];
    if (ls.dead)
        return false;   // straggler on a declared-dead link
    if (!flit.corrupted && flit.linkSeq == ls.expectedSeq) {
        ++ls.expectedSeq;
        ls.nackedAt = kNeverCycle;
        sendAck(ls, /*ok=*/true, flit.linkSeq, now);
        return true;
    }
    // CRC failure, a gap (go-back-N discards past the loss), or a
    // duplicate from a resend overlap. NACK the expected sequence at
    // most once per timeout window; the sender's timer covers the rest.
    const bool fresh_gap =
        ls.nackedAt == kNeverCycle || now >= ls.nackedAt + retryTimeout_;
    if (static_cast<std::int32_t>(flit.linkSeq - ls.expectedSeq) >= 0 &&
        fresh_gap) {
        sendAck(ls, /*ok=*/false, ls.expectedSeq, now);
        ls.nackedAt = now;
        ++report_.nacksSent;
    }
    return false;
}

void
FaultController::onAck(const ControlArrival &ack, Cycle now)
{
    LinkState &ls = links_[static_cast<std::size_t>(ack.ackLink)];
    if (ls.dead)
        return;
    // Cumulative ACK of everything up to ackSeq (NACK acks the prefix
    // below the requested sequence).
    const std::uint32_t upto = ack.ackOk ? ack.ackSeq + 1 : ack.ackSeq;
    bool progressed = false;
    while (!ls.retryBuf.empty() &&
           static_cast<std::int32_t>(upto -
                                     ls.retryBuf.front().flit.linkSeq) > 0) {
        ls.retryBuf.pop_front();
        progressed = true;
    }
    if (progressed)
        ls.retryCount = 0;
    if (ack.ackOk)
        return;
    if (ls.retryBuf.empty())
        return;  // stale NACK: everything it asked for is already acked
    if (static_cast<std::int32_t>(ack.ackSeq -
                                  ls.retryBuf.front().flit.linkSeq) < 0)
        return;  // stale NACK from before a rewind
    if (ls.lastResendAt != kNeverCycle && now < ls.lastResendAt + retryTimeout_)
        return;  // a rewind is already in flight; don't double-count retries
    resendWindow(ls, now, /*fromTimeout=*/false);
}

bool
FaultController::linkDead(RouterId r, PortId outPort, int dropIdx) const
{
    auto it = senderIdx_.find(senderKey(r, outPort, dropIdx));
    return it != senderIdx_.end() && links_[it->second].dead;
}

bool
FaultController::linkUnavailable(RouterId r, PortId outPort, int dropIdx) const
{
    auto it = senderIdx_.find(senderKey(r, outPort, dropIdx));
    if (it == senderIdx_.end())
        return false;
    const LinkState &ls = links_[it->second];
    return ls.dead || ls.down;
}

// ----------------------------------------------------------------------
// Reachability / degradation accounting.
// ----------------------------------------------------------------------

void
FaultController::rebuildReachability() const
{
    const int n = topo_.numRouters();
    reach_.assign(static_cast<std::size_t>(n) * n, 0);
    std::vector<RouterId> queue;
    for (RouterId from = 0; from < n; ++from) {
        queue.clear();
        queue.push_back(from);
        reach_[static_cast<std::size_t>(from) * n + from] = 1;
        for (std::size_t head = 0; head < queue.size(); ++head) {
            const RouterId r = queue[head];
            for (PortId p = 0; p < topo_.numOutputPorts(r); ++p) {
                const OutputChannel &chan = topo_.output(r, p);
                if (chan.isTerminal())
                    continue;
                for (std::size_t d = 0; d < chan.drops.size(); ++d) {
                    if (linkUnavailable(r, p, static_cast<int>(d)))
                        continue;
                    const RouterId next = chan.drops[d].router;
                    char &seen =
                        reach_[static_cast<std::size_t>(from) * n + next];
                    if (!seen) {
                        seen = 1;
                        queue.push_back(next);
                    }
                }
            }
        }
    }
    reachDirty_ = false;
}

bool
FaultController::reachable(RouterId from, RouterId to) const
{
    if (!anyUnavailable())
        return true;
    if (reachDirty_ || reach_.empty())
        rebuildReachability();
    return reach_[static_cast<std::size_t>(from) * topo_.numRouters() + to] !=
           0;
}

bool
FaultController::routable(NodeId src, NodeId dst) const
{
    if (!anyUnavailable())
        return true;
    return reachable(topo_.nodeRouter(src), topo_.nodeRouter(dst));
}

bool
FaultController::dropCredit(RouterId r)
{
    if (plan_.dropCreditEvery == 0)
        return false;
    if (++creditCounters_[r] % plan_.dropCreditEvery != 0)
        return false;
    ++report_.creditsDropped;
    return true;
}

void
FaultController::onOffered(const PacketDesc &p)
{
    ++report_.packetsOffered;
    offeredFlits_ += p.size;
    ++flows_[{p.src, p.dst}].offered;
}

void
FaultController::onUnroutable(const PacketDesc &p)
{
    ++report_.packetsUnroutable;
    ++flows_[{p.src, p.dst}].unroutable;
}

void
FaultController::onDelivered(const Flit &flit)
{
    ++report_.packetsDelivered;
    deliveredFlits_ += flit.packetSize;
    ++flows_[{flit.src, flit.dst}].delivered;
}

FaultReport
FaultController::report(Cycle cyclesRun, int numNodes) const
{
    FaultReport out = report_;
    const double denom =
        static_cast<double>(cyclesRun) * static_cast<double>(numNodes);
    if (denom > 0.0) {
        out.offeredThroughput = static_cast<double>(offeredFlits_) / denom;
        out.achievedThroughput =
            static_cast<double>(deliveredFlits_) / denom;
    }
    out.flows.reserve(flows_.size());
    for (const auto &[key, counts] : flows_) {
        FaultReport::Flow f;
        f.src = key.first;
        f.dst = key.second;
        f.offered = counts.offered;
        f.delivered = counts.delivered;
        f.dropped = counts.dropped;
        f.unroutable = counts.unroutable;
        const std::uint64_t settled =
            counts.delivered + counts.dropped + counts.unroutable;
        f.inFlight = counts.offered > settled ? counts.offered - settled : 0;
        out.packetsInFlight += f.inFlight;
        out.flows.push_back(f);
    }
    return out;
}

} // namespace noc
