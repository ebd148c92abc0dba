#include "noc/crossbar_base.hh"

#include <algorithm>

#include "common/log.hh"

namespace amsc
{

CrossbarBase::CrossbarBase(const NocParams &params) : params_(params)
{
    if (params_.numSms == 0 || params_.numSlices() == 0)
        fatal("NoC requires SMs and slices");
}

FlitChannel *
CrossbarBase::makeChannel(Cycle flit_latency, std::uint32_t credits,
                          double length_mm)
{
    channels_.push_back(std::make_unique<FlitChannel>(
        flit_latency, params_.creditLatency, credits, length_mm,
        params_.channelWidthBytes));
    return channels_.back().get();
}

void
CrossbarBase::accountDelivery(NetworkStats &stats, const NocMessage &msg,
                              Cycle now) const
{
    Network::accountDelivery(stats, msg, now,
                             params_.channelWidthBytes);
}

bool
CrossbarBase::canInjectRequest(SmId sm) const
{
    return reqInj_[sm]->canAccept();
}

void
CrossbarBase::injectRequest(NocMessage msg, Cycle now)
{
    ++reqStats_.messagesInjected;
    reqInj_[msg.src]->accept(msg, now);
}

bool
CrossbarBase::canInjectReply(SliceId slice) const
{
    return repInj_[slice]->canAccept();
}

void
CrossbarBase::injectReply(NocMessage msg, Cycle now)
{
    ++repStats_.messagesInjected;
    repInj_[msg.src]->accept(msg, now);
}

bool
CrossbarBase::hasRequestFor(SliceId slice) const
{
    return reqEj_[slice]->hasMessage();
}

NocMessage
CrossbarBase::popRequestFor(SliceId slice, Cycle now)
{
    NocMessage msg = reqEj_[slice]->pop();
    accountDelivery(reqStats_, msg, now);
    return msg;
}

bool
CrossbarBase::hasReplyFor(SmId sm) const
{
    return repEj_[sm]->hasMessage();
}

NocMessage
CrossbarBase::popReplyFor(SmId sm, Cycle now)
{
    NocMessage msg = repEj_[sm]->pop();
    accountDelivery(repStats_, msg, now);
    return msg;
}

void
CrossbarBase::wireLiveSet()
{
    sinkBase_ = reqInj_.size() + repInj_.size() + reqConc_.size() +
        repConc_.size() + routers_.size();
    live_.init(sinkBase_ + reqEj_.size() + repEj_.size() +
               reqDist_.size() + repDist_.size());
    std::size_t i = 0;
    auto wire = [this, &i](auto &group) {
        for (auto &c : group)
            c->wireLive(live_.bit(i++));
    };
    wire(reqInj_);
    wire(repInj_);
    wire(reqConc_);
    wire(repConc_);
    wire(routers_);
    wire(reqEj_);
    wire(repEj_);
    wire(reqDist_);
    wire(repDist_);
    for (const auto &ch : channels_) {
        if (!ch->liveWired())
            panic("NoC channel lacks a live sender or receiver");
    }
}

template <typename T>
std::size_t
CrossbarBase::tickLive(std::vector<std::unique_ptr<T>> &v,
                       std::size_t base, Cycle now)
{
    const std::size_t end = base + v.size();
    live_.forEach(base, end, [&](std::size_t i) {
        T &c = *v[i - base];
        c.tick(now);
        if (c.idle())
            live_.clear(i);
    });
    return end;
}

template <typename T>
std::size_t
CrossbarBase::minLiveEvent(const std::vector<std::unique_ptr<T>> &v,
                           std::size_t base, Cycle &next) const
{
    const std::size_t end = base + v.size();
    live_.forEach(base, end, [&](std::size_t i) {
        next = std::min(next, v[i - base]->nextEventCycle());
    });
    return end;
}

void
CrossbarBase::tick(Cycle now)
{
    std::size_t i = tickLive(reqInj_, 0, now);
    i = tickLive(repInj_, i, now);
    i = tickLive(reqConc_, i, now);
    i = tickLive(repConc_, i, now);
    // Each router's bit is read on its turn: a router that an earlier
    // one fed over a zero-latency link ticks in the same cycle.
    for (auto &r : routers_) {
        if (live_.test(i)) {
            r->tick(now);
            if (r->idle())
                live_.clear(i);
        } else {
            r->skipIdleCycles(1);
        }
        ++i;
    }
    i = tickLive(reqEj_, i, now);
    i = tickLive(repEj_, i, now);
    i = tickLive(reqDist_, i, now);
    tickLive(repDist_, i, now);
    deliverReplies(now);
}

void
CrossbarBase::deliverReplies(Cycle now)
{
    if (!replyHandler_)
        return;
    auto deliver = [this, now](const NocMessage &msg) {
        accountDelivery(repStats_, msg, now);
        replyHandler_(msg, now);
    };
    // A reply sink holding a message stays live, so only live sinks
    // can have anything to deliver.
    std::size_t base = sinkBase_ + reqEj_.size();
    std::size_t end = base + repEj_.size();
    live_.forEach(base, end, [&](std::size_t i) {
        EjectionAdapter &ej = *repEj_[i - base];
        while (ej.hasMessage())
            deliver(ej.pop());
        if (ej.idle())
            live_.clear(i);
    });
    base = end + reqDist_.size();
    end = base + repDist_.size();
    live_.forEach(base, end, [&](std::size_t i) {
        DistributorAdapter &d = *repDist_[i - base];
        for (std::uint32_t local = 0; local < d.numDsts(); ++local) {
            while (d.hasMessage(local))
                deliver(d.pop(local));
        }
        if (d.idle())
            live_.clear(i);
    });
}

Cycle
CrossbarBase::nextEventCycle(Cycle now) const
{
    (void)now;
    Cycle next = kNoCycle;
    std::size_t i = minLiveEvent(reqInj_, 0, next);
    i = minLiveEvent(repInj_, i, next);
    i = minLiveEvent(reqConc_, i, next);
    i = minLiveEvent(repConc_, i, next);
    i = minLiveEvent(routers_, i, next);
    i = minLiveEvent(reqEj_, i, next);
    i = minLiveEvent(repEj_, i, next);
    i = minLiveEvent(reqDist_, i, next);
    minLiveEvent(repDist_, i, next);
    return next;
}

void
CrossbarBase::advanceIdleCycles(Cycle n)
{
    for (auto &r : routers_)
        r->skipIdleCycles(n);
}

namespace
{

template <typename T>
bool
allDrained(const std::vector<std::unique_ptr<T>> &v)
{
    for (const auto &c : v) {
        if (!c->drained())
            return false;
    }
    return true;
}

} // namespace

bool
CrossbarBase::drained() const
{
    if (!allDrained(reqInj_) || !allDrained(repInj_) ||
        !allDrained(reqConc_) || !allDrained(repConc_) ||
        !allDrained(routers_) || !allDrained(reqEj_) ||
        !allDrained(repEj_) || !allDrained(reqDist_) ||
        !allDrained(repDist_))
        return false;
    for (const auto &ch : channels_) {
        if (!ch->quiescent())
            return false;
    }
    return true;
}

void
CrossbarBase::saveCkpt(CkptWriter &w) const
{
    saveStatsCkpt(w);
    // Channel/router/adapter counts and wiring are fully determined
    // by the topology constructor, so per-element state is written in
    // construction order; the counts guard against topology drift.
    w.varint(channels_.size());
    for (const auto &ch : channels_)
        ch->saveCkpt(w);
    w.varint(routers_.size());
    for (const auto &r : routers_)
        r->saveCkpt(w);
    for (const auto &inj : reqInj_)
        inj->saveCkpt(w);
    for (const auto &ej : reqEj_)
        ej->saveCkpt(w);
    for (const auto &inj : repInj_)
        inj->saveCkpt(w);
    for (const auto &ej : repEj_)
        ej->saveCkpt(w);
    for (const auto &a : reqConc_)
        a->saveCkpt(w);
    for (const auto &a : reqDist_)
        a->saveCkpt(w);
    for (const auto &a : repConc_)
        a->saveCkpt(w);
    for (const auto &a : repDist_)
        a->saveCkpt(w);
}

void
CrossbarBase::loadCkpt(CkptReader &r)
{
    loadStatsCkpt(r);
    if (r.varint() != channels_.size())
        r.fail("NoC channel count mismatch");
    for (auto &ch : channels_)
        ch->loadCkpt(r);
    if (r.varint() != routers_.size())
        r.fail("NoC router count mismatch");
    for (auto &rt : routers_)
        rt->loadCkpt(r);
    for (auto &inj : reqInj_)
        inj->loadCkpt(r);
    for (auto &ej : reqEj_)
        ej->loadCkpt(r);
    for (auto &inj : repInj_)
        inj->loadCkpt(r);
    for (auto &ej : repEj_)
        ej->loadCkpt(r);
    for (auto &a : reqConc_)
        a->loadCkpt(r);
    for (auto &a : reqDist_)
        a->loadCkpt(r);
    for (auto &a : repConc_)
        a->loadCkpt(r);
    for (auto &a : repDist_)
        a->loadCkpt(r);
    // The live set is derived state: after a restore every component
    // ticks once and clears its own bit if it is idle.
    live_.setAll();
}

NocActivity
CrossbarBase::activity() const
{
    NocActivity act;
    act.routers.reserve(routers_.size());
    for (const auto &r : routers_)
        act.routers.push_back(r->activity());
    act.links.reserve(channels_.size());
    for (const auto &ch : channels_)
        act.links.push_back(ch->activity());
    return act;
}

} // namespace amsc
