#include "noc/crossbar_base.hh"

#include <algorithm>
#include <string>

#include "common/log.hh"

namespace amsc
{

namespace
{

/** Write a message queue: its length, then each message. */
void
saveMessageQueue(CkptWriter &w, const Ring<NocMessage> &q)
{
    w.varint(q.size());
    for (std::size_t i = 0; i < q.size(); ++i)
        ckptValue(w, q[i]);
}

/**
 * Read a queue written by saveMessageQueue(); a length above @p cap
 * fails the reader (@p what names the queue).
 */
void
loadMessageQueue(CkptReader &r, Ring<NocMessage> &q, std::size_t cap,
                 const char *what)
{
    q.clear();
    const std::uint64_t n = r.varint();
    if (n > cap)
        r.fail(std::string(what) + " over its cap");
    for (std::uint64_t i = 0; i < n; ++i) {
        NocMessage m{};
        ckptValue(r, m);
        q.push_back(m);
    }
}

} // namespace

CrossbarBase::CrossbarBase(const NocParams &params,
                           std::uint32_t endpoints_per_port)
    : params_(params), perPort_(endpoints_per_port),
      reqSrcQ_(params.numSms, Ring<NocMessage>(params.injectQueueCap)),
      reqSinkQ_(params.numSlices(),
                Ring<NocMessage>(params.ejectQueueCap)),
      repSrcQ_(params.numSlices(),
               Ring<NocMessage>(params.injectQueueCap)),
      repSinkQ_(params.numSms, Ring<NocMessage>(params.ejectQueueCap))
{
    if (params_.numSms == 0 || params_.numSlices() == 0)
        panic("NoC requires SMs and slices");
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

CrossbarBase::Range
CrossbarBase::portRange(std::size_t p, std::size_t n) const
{
    const auto first = static_cast<std::uint32_t>(p * perPort_);
    if (first >= n)
        panic("NoC port %zu has no endpoint", p);
    return {first, std::min(perPort_, static_cast<std::uint32_t>(n) -
                                          first)};
}

void
CrossbarBase::addSource(std::vector<SourcePort> &ports,
                        std::vector<Ring<NocMessage>> &queues,
                        FlitChannel *out)
{
    const Range r = portRange(ports.size(), queues.size());
    ports.emplace_back(out, params_.channelWidthBytes, &queues[r.first],
                       r.count);
}

void
CrossbarBase::addSink(std::vector<SinkPort> &ports,
                      std::vector<Ring<NocMessage>> &queues,
                      FlitChannel *in)
{
    const Range r = portRange(ports.size(), queues.size());
    ports.emplace_back(in, &queues[r.first], r.first, r.count,
                       params_.ejectQueueCap);
}

void
CrossbarBase::addRequestSource(FlitChannel *out)
{
    addSource(reqSrc_, reqSrcQ_, out);
}

void
CrossbarBase::addRequestSink(FlitChannel *in)
{
    addSink(reqSink_, reqSinkQ_, in);
}

void
CrossbarBase::addReplySource(FlitChannel *out)
{
    addSource(repSrc_, repSrcQ_, out);
}

void
CrossbarBase::addReplySink(FlitChannel *in)
{
    addSink(repSink_, repSinkQ_, in);
}

void
CrossbarBase::accountDelivery(NetworkStats &stats, const NocMessage &msg,
                              Cycle now) const
{
    Network::accountDelivery(stats, msg, now,
                             params_.channelWidthBytes);
}

void
CrossbarBase::enqueue(Ring<NocMessage> &q, NocMessage msg, Cycle now,
                      std::size_t bit)
{
    if (q.size() >= params_.injectQueueCap)
        panic("injection queue overflow");
    msg.injectCycle = now;
    q.push_back(msg);
    live_.set(bit);
}

bool
CrossbarBase::canInjectRequest(SmId sm) const
{
    return reqSrcQ_[sm].size() < params_.injectQueueCap;
}

void
CrossbarBase::injectRequest(NocMessage msg, Cycle now)
{
    ++reqStats_.messagesInjected;
    enqueue(reqSrcQ_[msg.src], msg, now, msg.src / perPort_);
}

bool
CrossbarBase::canInjectReply(SliceId slice) const
{
    return repSrcQ_[slice].size() < params_.injectQueueCap;
}

void
CrossbarBase::injectReply(NocMessage msg, Cycle now)
{
    ++repStats_.messagesInjected;
    enqueue(repSrcQ_[msg.src], msg, now,
            reqSrc_.size() + msg.src / perPort_);
}

bool
CrossbarBase::hasRequestFor(SliceId slice) const
{
    return !reqSinkQ_[slice].empty();
}

NocMessage
CrossbarBase::popRequestFor(SliceId slice, Cycle now)
{
    Ring<NocMessage> &q = reqSinkQ_[slice];
    const NocMessage msg = q.front();
    q.pop_front();
    accountDelivery(reqStats_, msg, now);
    return msg;
}

void
CrossbarBase::wireLiveSet()
{
    if (reqSrc_.size() * perPort_ < reqSrcQ_.size() ||
        reqSink_.size() * perPort_ < reqSinkQ_.size() ||
        repSrc_.size() * perPort_ < repSrcQ_.size() ||
        repSink_.size() * perPort_ < repSinkQ_.size())
        panic("NoC endpoint without a port");
    sinkBase_ = reqSrc_.size() + repSrc_.size() + routers_.size();
    live_.init(sinkBase_ + reqSink_.size() + repSink_.size());
    std::size_t i = 0;
    for (auto &p : reqSrc_)
        p.wireLive(live_.bit(i++));
    for (auto &p : repSrc_)
        p.wireLive(live_.bit(i++));
    for (auto &r : routers_)
        r->wireLive(live_.bit(i++));
    for (auto &p : reqSink_)
        p.wireLive(live_.bit(i++));
    for (auto &p : repSink_)
        p.wireLive(live_.bit(i++));
    for (const auto &ch : channels_) {
        if (!ch->liveWired())
            panic("NoC channel lacks a live sender or receiver");
    }
}

template <typename Port>
std::size_t
CrossbarBase::tickLive(std::vector<Port> &ports, std::size_t base,
                       Cycle now)
{
    const std::size_t end = base + ports.size();
    live_.forEach(base, end, [&](std::size_t i) {
        Port &p = ports[i - base];
        p.tick(now);
        if (p.idle())
            live_.clear(i);
    });
    return end;
}

template <typename Port>
std::size_t
CrossbarBase::minLiveEvent(const std::vector<Port> &ports,
                           std::size_t base, Cycle &next) const
{
    const std::size_t end = base + ports.size();
    live_.forEach(base, end, [&](std::size_t i) {
        next = std::min(next, ports[i - base].nextEventCycle());
    });
    return end;
}

void
CrossbarBase::tick(Cycle now)
{
    std::size_t i = tickLive(reqSrc_, 0, now);
    i = tickLive(repSrc_, i, now);
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
    i = tickLive(reqSink_, i, now);
    tickLive(repSink_, i, now);
    deliverReplies(now);
}

void
CrossbarBase::deliverReplies(Cycle now)
{
    if (!replyHandler_)
        return;
    // A reply sink holding a message stays live, so only live sinks
    // can have anything to deliver.
    const std::size_t base = sinkBase_ + reqSink_.size();
    live_.forEach(base, base + repSink_.size(), [&](std::size_t i) {
        SinkPort &sink = repSink_[i - base];
        sink.deliver([this, now](const NocMessage &msg, SmId at) {
            accountDelivery(repStats_, msg, now);
            replyHandler_(msg, at, now);
        });
        if (sink.idle())
            live_.clear(i);
    });
}

Cycle
CrossbarBase::nextEventCycle(Cycle now) const
{
    (void)now;
    Cycle next = kNoCycle;
    std::size_t i = minLiveEvent(reqSrc_, 0, next);
    i = minLiveEvent(repSrc_, i, next);
    live_.forEach(i, i + routers_.size(), [&](std::size_t k) {
        next = std::min(next, routers_[k - i]->nextEventCycle());
    });
    i = minLiveEvent(reqSink_, i + routers_.size(), next);
    minLiveEvent(repSink_, i, next);
    return next;
}

void
CrossbarBase::advanceIdleCycles(Cycle n)
{
    for (auto &r : routers_)
        r->skipIdleCycles(n);
}

bool
CrossbarBase::drained() const
{
    const auto drained = [](const auto &c) { return c.drained(); };
    if (!std::all_of(reqSrc_.begin(), reqSrc_.end(), drained) ||
        !std::all_of(repSrc_.begin(), repSrc_.end(), drained) ||
        !std::all_of(reqSink_.begin(), reqSink_.end(), drained) ||
        !std::all_of(repSink_.begin(), repSink_.end(), drained))
        return false;
    for (const auto &r : routers_) {
        if (!r->drained())
            return false;
    }
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
    // Channel, router and port counts and wiring are fully determined
    // by the topology constructor, so per-element state is written in
    // construction order; the counts guard against topology drift.
    w.varint(channels_.size());
    for (const auto &ch : channels_)
        ch->saveCkpt(w);
    w.varint(routers_.size());
    for (const auto &r : routers_)
        r->saveCkpt(w);
    for (const auto *qs : {&reqSrcQ_, &reqSinkQ_, &repSrcQ_, &repSinkQ_}) {
        for (const auto &q : *qs)
            saveMessageQueue(w, q);
    }
    for (const auto *ports : {&reqSrc_, &repSrc_}) {
        for (const SourcePort &p : *ports)
            p.saveCkpt(w);
    }
    for (const auto *ports : {&reqSink_, &repSink_}) {
        for (const SinkPort &p : *ports)
            p.saveCkpt(w);
    }
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
    // The queues come first: the ports check their cursors and
    // latches against them.
    for (auto &q : reqSrcQ_)
        loadMessageQueue(r, q, params_.injectQueueCap,
                         "request source queue");
    for (auto &q : reqSinkQ_)
        loadMessageQueue(r, q, params_.ejectQueueCap,
                         "request sink queue");
    for (auto &q : repSrcQ_)
        loadMessageQueue(r, q, params_.injectQueueCap,
                         "reply source queue");
    for (auto &q : repSinkQ_)
        loadMessageQueue(r, q, params_.ejectQueueCap,
                         "reply sink queue");
    for (auto *ports : {&reqSrc_, &repSrc_}) {
        for (SourcePort &p : *ports)
            p.loadCkpt(r);
    }
    for (auto *ports : {&reqSink_, &repSink_}) {
        for (SinkPort &p : *ports)
            p.loadCkpt(r);
    }
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
