#include "noc/router.hh"

#include "common/log.hh"

namespace amsc
{

Router::Router(const RouterParams &params,
               std::vector<std::uint32_t> routes)
    : params_(params), routes_(std::move(routes))
{
    if (params_.numInPorts == 0 || params_.numOutPorts == 0)
        panic("router '%s' needs ports", params_.name.c_str());
    if (params_.numVcs != 1)
        panic("router '%s': only 1 VC per port is modeled (Table 1)",
              params_.name.c_str());
    inputs_.resize(params_.numInPorts);
    for (auto &in : inputs_)
        in.buffer.reserve(inputBufferDepth());
    outputs_.resize(params_.numOutPorts);
    for (auto &o : outputs_)
        o.arb.resize(params_.numInPorts);
    requestedOut_.assign(params_.numInPorts, kInvalidId);
    outputRequested_.assign(params_.numOutPorts, 0);

    activity_.numInPorts = params_.numInPorts;
    activity_.numOutPorts = params_.numOutPorts;
    activity_.numVcs = params_.numVcs;
    activity_.vcDepthFlits = params_.vcDepthFlits;
    activity_.channelWidthBytes = params_.channelWidthBytes;
    activity_.gateable = params_.gateable;
}

void
Router::connectInput(std::uint32_t port, FlitChannel *channel)
{
    if (port >= params_.numInPorts)
        panic("router '%s': input port %u out of range",
              params_.name.c_str(), port);
    inputs_[port].in = channel;
}

void
Router::connectOutput(std::uint32_t port, FlitChannel *channel)
{
    if (port >= params_.numOutPorts)
        panic("router '%s': output port %u out of range",
              params_.name.c_str(), port);
    outputs_[port].out = channel;
}

void
Router::setBypass(bool enable)
{
    if (enable == bypass_)
        return;
    if (enable) {
        if (!params_.gateable)
            panic("router '%s' is not gateable", params_.name.c_str());
        if (params_.numInPorts != params_.numOutPorts)
            panic("router '%s': bypass requires square radix",
                  params_.name.c_str());
        if (!drained())
            panic("router '%s': bypass toggled while not drained",
                  params_.name.c_str());
    }
    bypass_ = enable;
}

void
Router::wireLive(LiveBit self)
{
    for (InputPort &in : inputs_) {
        if (in.in != nullptr)
            in.in->wireReceiver(self);
    }
    for (OutputPort &out : outputs_) {
        if (out.out != nullptr)
            out.out->wireSender(self);
    }
}

bool
Router::idle() const
{
    if (bufferedFlits_ != 0)
        return false;
    for (const InputPort &in : inputs_) {
        if (in.in != nullptr && in.in->flitsInFlight() != 0)
            return false;
    }
    for (const OutputPort &out : outputs_) {
        if (out.out != nullptr && out.out->creditsInFlight())
            return false;
    }
    return true;
}

Cycle
Router::nextEventCycle() const
{
    Cycle next = kNoCycle;
    for (const InputPort &in : inputs_) {
        if (in.in != nullptr)
            next = std::min(next, in.in->nextArrivalCycle());
    }
    for (const OutputPort &out : outputs_) {
        if (out.out != nullptr)
            next = std::min(next, out.out->nextCreditCycle());
    }
    if (bufferedFlits_ == 0)
        return next;
    for (std::uint32_t i = 0; i < params_.numInPorts; ++i) {
        const InputPort &in = inputs_[i];
        if (in.buffer.empty())
            continue;
        const BufferedFlit &front = in.buffer.front();
        std::uint32_t out_port;
        if (bypass_) {
            // Bypass hard-wires input i to output i.
            out_port = i;
        } else if (front.flit.head) {
            out_port = routeOf(front.flit.msg);
            if (out_port >= params_.numOutPorts)
                return 0; // tick() will panic; force the live tick
            if (outputs_[out_port].lockedBy != kInvalidId)
                continue; // unlock is the lock holder's event
        } else {
            out_port = in.currentOut;
            if (out_port == kInvalidId)
                return 0; // tick() will panic; force the live tick
        }
        const OutputPort &out = outputs_[out_port];
        if (out.out == nullptr)
            continue;
        const Cycle sendable = out.out->nextSendableCycle();
        if (sendable == kNoCycle)
            continue; // credits reappear only after a downstream pop
        next = std::min(next, std::max(front.eligibleAt, sendable));
    }
    return next;
}

bool
Router::drained() const
{
    for (const auto &in : inputs_) {
        if (!in.buffer.empty())
            return false;
    }
    return true;
}

void
Router::acceptArrivals(Cycle now)
{
    const Cycle eligible = now + (bypass_ ? 1 : params_.pipelineLatency);
    for (auto &in : inputs_) {
        if (in.in == nullptr)
            continue;
        while (in.in->hasArrival(now)) {
            // Credit flow control guarantees buffer space.
            if (in.buffer.size() >= inputBufferDepth())
                panic("router '%s': input buffer overflow "
                      "(credit protocol violated)",
                      params_.name.c_str());
            in.buffer.push_back({eligible, in.in->receive(now)});
            ++bufferedFlits_;
            if (!bypass_)
                ++activity_.bufferWrites;
        }
    }
}

void
Router::tickBypass(Cycle now)
{
    // Input i is hard-wired to output i; one flit per cycle, credit
    // checked on the downstream channel. No allocation, no switch.
    for (std::uint32_t i = 0; i < params_.numInPorts; ++i) {
        InputPort &in = inputs_[i];
        OutputPort &out = outputs_[i];
        if (in.buffer.empty() || in.buffer.front().eligibleAt > now)
            continue;
        if (out.out == nullptr || !out.out->canSend())
            continue;
        Flit flit = std::move(in.buffer.front().flit);
        in.buffer.pop_front();
        --bufferedFlits_;
        out.out->send(std::move(flit), now);
        if (in.in != nullptr)
            in.in->returnCredit(now);
        ++activity_.bypassTraversals;
    }
    ++activity_.gatedCycles;
}

void
Router::tickAllocate(Cycle now)
{
    // Request phase: each input nominates its head-of-line flit for
    // exactly one output, so requestedOut_ fully encodes the request
    // matrix the separable allocator consumes.
    bool any_request = false;
    for (std::uint32_t i = 0; i < params_.numInPorts; ++i) {
        InputPort &in = inputs_[i];
        requestedOut_[i] = kInvalidId;
        if (in.buffer.empty() || in.buffer.front().eligibleAt > now)
            continue;
        const Flit &flit = in.buffer.front().flit;

        std::uint32_t out_port;
        if (flit.head) {
            out_port = routeOf(flit.msg);
            if (out_port >= params_.numOutPorts)
                panic("router '%s': route to invalid port %u",
                      params_.name.c_str(), out_port);
            // A head flit may only compete for an unlocked output.
            if (outputs_[out_port].lockedBy != kInvalidId)
                continue;
        } else {
            // Body/tail flits follow the wormhole lock.
            out_port = in.currentOut;
            if (out_port == kInvalidId)
                panic("router '%s': body flit without route lock",
                      params_.name.c_str());
        }

        // Downstream credit must be available to compete this cycle.
        OutputPort &out = outputs_[out_port];
        if (out.out == nullptr || !out.out->canSend())
            continue;

        requestedOut_[i] = out_port;
        outputRequested_[out_port] = 1;
        any_request = true;
    }

    // Grant phase: per-output round-robin over requested outputs.
    // Each input requests at most one output, so grants touch
    // disjoint inputs and skipping request-free outputs is exact.
    for (std::uint32_t o = 0;
         any_request && o < params_.numOutPorts; ++o) {
        if (outputRequested_[o] == 0)
            continue;
        outputRequested_[o] = 0;
        OutputPort &out = outputs_[o];
        const std::uint32_t winner = out.arb.grant(
            [this, o](std::uint32_t i) { return requestedOut_[i] == o; });
        if (winner >= params_.numInPorts)
            continue;
        ++activity_.allocRounds;

        InputPort &in = inputs_[winner];
        Flit flit = std::move(in.buffer.front().flit);
        in.buffer.pop_front();
        --bufferedFlits_;
        ++activity_.bufferReads;
        ++activity_.xbarTraversals;

        if (flit.head) {
            out.lockedBy = winner;
            in.currentOut = o;
        }
        if (flit.tail) {
            out.lockedBy = kInvalidId;
            in.currentOut = kInvalidId;
        }

        out.out->send(std::move(flit), now);
        if (in.in != nullptr)
            in.in->returnCredit(now);
    }
    ++activity_.activeCycles;
}

void
Router::saveCkpt(CkptWriter &w) const
{
    w.b(bypass_);
    for (const InputPort &in : inputs_) {
        w.varint(in.buffer.size());
        for (std::size_t i = 0; i < in.buffer.size(); ++i) {
            w.u64(in.buffer[i].eligibleAt);
            ckptValue(w, in.buffer[i].flit);
        }
        w.u32(in.currentOut);
    }
    for (const OutputPort &out : outputs_) {
        out.arb.saveCkpt(w);
        w.u32(out.lockedBy);
    }
    ckptValue(w, activity_);
}

void
Router::loadCkpt(CkptReader &r)
{
    bypass_ = r.b();
    bufferedFlits_ = 0;
    for (InputPort &in : inputs_) {
        in.buffer.clear();
        const std::uint64_t n = r.varint();
        if (n > inputBufferDepth())
            r.fail("router input buffer overflow");
        for (std::uint64_t i = 0; i < n; ++i) {
            BufferedFlit e{};
            e.eligibleAt = r.u64();
            ckptValue(r, e.flit);
            in.buffer.push_back(e);
        }
        bufferedFlits_ += static_cast<std::uint32_t>(n);
        in.currentOut = r.u32();
        if (in.currentOut != kInvalidId &&
            in.currentOut >= params_.numOutPorts)
            r.fail("router wormhole lock out of range");
    }
    for (OutputPort &out : outputs_) {
        out.arb.loadCkpt(r);
        out.lockedBy = r.u32();
        if (out.lockedBy != kInvalidId &&
            out.lockedBy >= params_.numInPorts)
            r.fail("router output lock out of range");
    }
    ckptValue(r, activity_);
}

void
Router::tick(Cycle now)
{
    // Absorb credit returns on all downstream channels.
    for (auto &out : outputs_) {
        if (out.out != nullptr)
            out.out->tickSender(now);
    }
    acceptArrivals(now);
    if (bufferedFlits_ == 0) {
        // Empty router: allocation (or the bypass walk) cannot move
        // anything and mutates no state beyond the cycle counters.
        if (bypass_)
            ++activity_.gatedCycles;
        else
            ++activity_.activeCycles;
        return;
    }
    if (bypass_)
        tickBypass(now);
    else
        tickAllocate(now);
}

} // namespace amsc
