/**
 * @file
 * Endpoint adapters: packetization at injection, reassembly at
 * ejection.
 *
 * An InjectionAdapter owns the first hop channel into the network: it
 * queues whole messages, splits them into flits and transmits one flit
 * per cycle as credits allow.
 *
 * An EjectionAdapter owns the last hop channel out of the network: it
 * reassembles arriving flits into messages and exposes a bounded
 * message queue to the consumer (LLC slice input queue / SM reply
 * queue). When the consumer queue is full the adapter stops receiving
 * flits, which exhausts upstream credits and exerts backpressure into
 * the network -- this is exactly how "requests queue up in front of
 * the LLC slice" in the paper's shared-LLC bottleneck.
 *
 * Both message queues are rings reserved to their caps at
 * construction; neither adapter allocates while it runs.
 */

#ifndef AMSC_NOC_ENDPOINT_HH
#define AMSC_NOC_ENDPOINT_HH

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/ckpt.hh"
#include "common/log.hh"
#include "common/ring.hh"
#include "common/types.hh"
#include "noc/channel.hh"
#include "noc/live_set.hh"
#include "noc/message.hh"

namespace amsc
{

/** Write a message queue: its length, then each message. */
inline void
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
inline void
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

/** Message source: packetizes and feeds one channel. */
class InjectionAdapter
{
  public:
    /**
     * @param out        first-hop channel (owned elsewhere).
     * @param width_bytes channel width for flitization.
     * @param queue_cap  message queue capacity.
     */
    InjectionAdapter(FlitChannel *out, std::uint32_t width_bytes,
                     std::size_t queue_cap)
        : out_(out), widthBytes_(width_bytes), queueCap_(queue_cap),
          queue_(queue_cap)
    {}

    /** @return true if another message can be queued. */
    bool canAccept() const { return queue_.size() < queueCap_; }

    /** Queue a message for transmission. @pre canAccept(). */
    void
    accept(NocMessage msg, Cycle now)
    {
        if (!canAccept())
            panic("injection queue overflow");
        msg.injectCycle = now;
        queue_.push_back(msg);
        self_.set();
    }

    /**
     * Wire this adapter's live bit: set on accept() and, through the
     * output channel, on every credit return.
     */
    void
    wireLive(LiveBit self)
    {
        self_ = self;
        out_->wireSender(self);
    }

    /** Transmit up to one flit. */
    void
    tick(Cycle now)
    {
        out_->tickSender(now);
        if (queue_.empty() || !out_->canSend())
            return;
        const NocMessage &msg = queue_.front();
        const std::uint32_t total = msg.numFlits(widthBytes_);
        Flit flit;
        flit.head = flitsSent_ == 0;
        flit.tail = flitsSent_ + 1 == total;
        if (flit.head)
            flit.msg = msg;
        out_->send(std::move(flit), now);
        ++flitsSent_;
        if (flitsSent_ == total) {
            queue_.pop_front();
            flitsSent_ = 0;
        }
    }

    /** True when nothing is queued or partially sent. */
    bool drained() const { return queue_.empty(); }

    /**
     * True when tick() is a no-op until an accept() or a credit
     * return wakes the adapter: drained, no credit in flight.
     */
    bool
    idle() const
    {
        return drained() && !out_->creditsInFlight();
    }

    /**
     * Earliest cycle tick() could change state: the output channel's
     * next credit return, and while a message is queued its next
     * sendable cycle. Never late: with the queue non-empty, credits
     * appear only through a returned credit or a downstream pop (the
     * downstream component's own event); an injection is an
     * externally driven event.
     */
    Cycle
    nextEventCycle() const
    {
        const Cycle credit = out_->nextCreditCycle();
        return queue_.empty()
            ? credit
            : std::min(credit, out_->nextSendableCycle());
    }

    std::size_t queueSize() const { return queue_.size(); }

    /** Serialize queued messages and the partial-packet cursor. */
    void
    saveCkpt(CkptWriter &w) const
    {
        saveMessageQueue(w, queue_);
        w.u32(flitsSent_);
    }

    /**
     * Restore state written by saveCkpt(). More messages than the
     * queue cap, or a packet cursor past the front message's flits,
     * fail the reader.
     */
    void
    loadCkpt(CkptReader &r)
    {
        loadMessageQueue(r, queue_, queueCap_, "injection queue");
        flitsSent_ = r.u32();
        if (flitsSent_ != 0 &&
            (queue_.empty() ||
             flitsSent_ >= queue_.front().numFlits(widthBytes_)))
            r.fail("injection packet cursor out of range");
    }

  private:
    FlitChannel *out_;
    std::uint32_t widthBytes_;
    std::size_t queueCap_;
    Ring<NocMessage> queue_;
    std::uint32_t flitsSent_ = 0;
    LiveBit self_;
};

/** Message sink: reassembles flits from one channel. */
class EjectionAdapter
{
  public:
    /**
     * @param in         last-hop channel (owned elsewhere).
     * @param queue_cap  reassembled-message queue capacity.
     */
    EjectionAdapter(FlitChannel *in, std::size_t queue_cap)
        : in_(in), queueCap_(queue_cap), msgs_(queue_cap)
    {}

    /** Receive up to one flit (stalls when the queue is full). */
    void
    tick(Cycle now)
    {
        if (msgs_.size() >= queueCap_)
            return; // backpressure: stop receiving, credits dry up
        if (!in_->hasArrival(now))
            return;
        Flit flit = in_->receive(now);
        in_->returnCredit(now);
        if (flit.head)
            pending_ = flit.msg;
        if (flit.tail)
            msgs_.push_back(pending_);
    }

    /** Wire this adapter's live bit: set on every flit sent to it. */
    void wireLive(LiveBit self) { in_->wireReceiver(self); }

    /**
     * True when tick() is a no-op until a flit is sent to the adapter
     * and no delivered message waits: drained, nothing on the input
     * wire.
     */
    bool
    idle() const
    {
        return drained() && in_->flitsInFlight() == 0;
    }

    /**
     * Earliest cycle tick() could receive a flit: the input channel's
     * next arrival. A delivered message is the consumer's event.
     */
    Cycle nextEventCycle() const { return in_->nextArrivalCycle(); }

    /** @return true if a complete message is available. */
    bool hasMessage() const { return !msgs_.empty(); }

    /** Peek the oldest delivered message. @pre hasMessage(). */
    const NocMessage &front() const { return msgs_.front(); }

    /** Take the oldest delivered message. @pre hasMessage(). */
    NocMessage
    pop()
    {
        NocMessage m = msgs_.front();
        msgs_.pop_front();
        return m;
    }

    /** True when no partial or complete message is held. */
    bool drained() const { return msgs_.empty(); }

    std::size_t queueSize() const { return msgs_.size(); }

    /** Serialize delivered messages and the reassembly latch. */
    void
    saveCkpt(CkptWriter &w) const
    {
        saveMessageQueue(w, msgs_);
        ckptValue(w, pending_);
    }

    /**
     * Restore state written by saveCkpt(); more messages than the
     * queue cap fail the reader.
     */
    void
    loadCkpt(CkptReader &r)
    {
        loadMessageQueue(r, msgs_, queueCap_, "ejection queue");
        ckptValue(r, pending_);
    }

  private:
    FlitChannel *in_;
    std::size_t queueCap_;
    Ring<NocMessage> msgs_;
    NocMessage pending_{};
};

} // namespace amsc

#endif // AMSC_NOC_ENDPOINT_HH
