#include "noc/ideal_network.hh"

#include <algorithm>

namespace amsc
{

IdealNetwork::IdealNetwork(const NocParams &params) : params_(params)
{
    toSlice_.resize(params_.numSlices());
    toSm_.resize(params_.numSms);
}

bool
IdealNetwork::canInjectRequest(SmId sm) const
{
    (void)sm;
    return true;
}

void
IdealNetwork::injectRequest(NocMessage msg, Cycle now)
{
    ++reqStats_.messagesInjected;
    msg.injectCycle = now;
    toSlice_[msg.dst].push(msg, now, params_.idealLatency);
}

bool
IdealNetwork::canInjectReply(SliceId slice) const
{
    (void)slice;
    return true;
}

void
IdealNetwork::injectReply(NocMessage msg, Cycle now)
{
    ++repStats_.messagesInjected;
    msg.injectCycle = now;
    toSm_[msg.dst].push(msg, now, params_.idealLatency);
}

bool
IdealNetwork::hasRequestFor(SliceId slice) const
{
    return toSlice_[slice].ready(now_);
}

NocMessage
IdealNetwork::popRequestFor(SliceId slice, Cycle now)
{
    NocMessage msg = toSlice_[slice].pop(now);
    accountDelivery(reqStats_, msg, now,
                    params_.channelWidthBytes);
    return msg;
}

void
IdealNetwork::tick(Cycle now)
{
    now_ = now;
    if (!replyHandler_)
        return;
    for (SmId sm = 0; sm < toSm_.size(); ++sm) {
        auto &q = toSm_[sm];
        while (q.ready(now)) {
            const NocMessage msg = q.pop(now);
            accountDelivery(repStats_, msg, now,
                            params_.channelWidthBytes);
            replyHandler_(msg, sm, now);
        }
    }
}

Cycle
IdealNetwork::nextEventCycle(Cycle now) const
{
    (void)now;
    Cycle next = kNoCycle;
    for (const auto &q : toSlice_) {
        if (!q.empty())
            next = std::min(next, q.frontReadyCycle());
    }
    for (const auto &q : toSm_) {
        if (!q.empty())
            next = std::min(next, q.frontReadyCycle());
    }
    return next;
}

bool
IdealNetwork::drained() const
{
    for (const auto &q : toSlice_) {
        if (!q.empty())
            return false;
    }
    for (const auto &q : toSm_) {
        if (!q.empty())
            return false;
    }
    return true;
}

NocActivity
IdealNetwork::activity() const
{
    return NocActivity{};
}

void
IdealNetwork::saveCkpt(CkptWriter &w) const
{
    saveStatsCkpt(w);
    w.u64(now_);
    for (const auto &q : toSlice_)
        q.saveCkpt(w);
    for (const auto &q : toSm_)
        q.saveCkpt(w);
}

void
IdealNetwork::loadCkpt(CkptReader &r)
{
    loadStatsCkpt(r);
    now_ = r.u64();
    for (auto &q : toSlice_)
        q.loadCkpt(r);
    for (auto &q : toSm_)
        q.loadCkpt(r);
}

} // namespace amsc
