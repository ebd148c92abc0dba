/**
 * @file
 * Network ports: packetization at a source, reassembly at a sink.
 *
 * Every SM and LLC slice owns one message queue per direction, and
 * the crossbar keeps them in flat arrays indexed by endpoint id
 * (CrossbarBase). A port connects a contiguous range of those queues
 * to one channel. The paper's crossbars differ only in the range's
 * width: one endpoint per port on the full and hierarchical crossbars
 * (Figs 4 and 6), `c` on the concentrated crossbar (Fig 5).
 *
 * A SourcePort owns the first-hop channel into the network. A
 * round-robin arbiter picks the queue that streams the next packet,
 * which leaves one flit per cycle as credits allow; packets never
 * interleave on the port (wormhole).
 *
 * A SinkPort owns the last-hop channel out of the network. It
 * reassembles arriving flits into the queue of the head flit's
 * destination, and a full target queue blocks the whole port
 * (head-of-line blocking). Blocking exhausts the upstream credits and
 * exerts backpressure into the network: this is how "requests queue up
 * in front of the LLC slice" in the paper's shared-LLC bottleneck, and
 * port contention is why C-Xbar loses performance at high
 * concentration in Figure 7a. A one-endpoint sink keeps whatever its
 * wire brings, whatever the message's dst: a bypassed H-Xbar
 * MC-router forwards input i to output i.
 *
 * The queues are rings their owner reserves to the queue caps, so
 * neither port allocates while it runs.
 */

#ifndef AMSC_NOC_PORT_HH
#define AMSC_NOC_PORT_HH

#include <algorithm>
#include <cstdint>

#include "common/ckpt.hh"
#include "common/log.hh"
#include "common/ring.hh"
#include "common/types.hh"
#include "noc/arbiter.hh"
#include "noc/channel.hh"
#include "noc/live_set.hh"
#include "noc/message.hh"

namespace amsc
{

/** True when none of the @p n queues at @p q holds a message. */
inline bool
allEmpty(const Ring<NocMessage> *q, std::uint32_t n)
{
    return std::all_of(q, q + n,
                       [](const Ring<NocMessage> &x) { return x.empty(); });
}

/** Packetizes messages from `count` endpoint queues into one channel. */
class SourcePort
{
  public:
    /**
     * @param out         first-hop channel (owned elsewhere).
     * @param width_bytes channel width for flitization.
     * @param queues      the first of the port's @p count queues.
     */
    SourcePort(FlitChannel *out, std::uint32_t width_bytes,
               Ring<NocMessage> *queues, std::uint32_t count)
        : out_(out), widthBytes_(width_bytes), queues_(queues),
          count_(count), arb_(count)
    {}

    /**
     * Wire this port's live bit: the output channel sets it on every
     * credit return, the queues' owner on every message it queues.
     */
    void wireLive(LiveBit self) { out_->wireSender(self); }

    /** Stream one flit of the current packet, or arbitrate a new one. */
    void
    tick(Cycle now)
    {
        out_->tickSender(now);
        if (!out_->canSend())
            return;
        if (current_ == kInvalidId) {
            const std::uint32_t pick = arb_.grant(
                [this](std::uint32_t i) { return !queues_[i].empty(); });
            if (pick == count_)
                return;
            current_ = pick;
        }
        Ring<NocMessage> &q = queues_[current_];
        const std::uint32_t total = q.front().numFlits(widthBytes_);
        Flit flit;
        flit.head = flitsSent_ == 0;
        flit.tail = flitsSent_ + 1 == total;
        if (flit.head)
            flit.msg = q.front();
        out_->send(std::move(flit), now);
        if (++flitsSent_ == total) {
            q.pop_front();
            current_ = kInvalidId;
            flitsSent_ = 0;
        }
    }

    /** True when every queue is empty (a packet cursor implies not). */
    bool drained() const { return allEmpty(queues_, count_); }

    /**
     * True when tick() is a no-op until a message is queued or a
     * credit return wakes the port: drained, no credit in flight.
     */
    bool
    idle() const
    {
        return drained() && !out_->creditsInFlight();
    }

    /**
     * Earliest cycle tick() could change state: the channel's next
     * credit return, and while a queue holds a message its next
     * sendable cycle. Never late: with a message queued, credits
     * appear only through a returned credit or a downstream pop (the
     * downstream component's own event); a new message is an
     * externally driven event.
     */
    Cycle
    nextEventCycle() const
    {
        const Cycle credit = out_->nextCreditCycle();
        return drained() ? credit
                         : std::min(credit, out_->nextSendableCycle());
    }

    /** Serialize the arbiter and the streaming cursor. */
    void
    saveCkpt(CkptWriter &w) const
    {
        arb_.saveCkpt(w);
        w.u32(current_);
        w.u32(flitsSent_);
    }

    /**
     * Restore state written by saveCkpt(), after the queues. A cursor
     * on a missing or empty queue, a packet cursor past the current
     * message's flits, or a packet cursor without a current queue
     * fail the reader.
     */
    void
    loadCkpt(CkptReader &r)
    {
        arb_.loadCkpt(r);
        current_ = r.u32();
        flitsSent_ = r.u32();
        if (current_ == kInvalidId) {
            if (flitsSent_ != 0)
                r.fail("source port packet cursor without a packet");
            return;
        }
        if (current_ >= count_ || queues_[current_].empty())
            r.fail("source port cursor out of range");
        if (flitsSent_ >= queues_[current_].front().numFlits(widthBytes_))
            r.fail("source port packet cursor out of range");
    }

  private:
    FlitChannel *out_;
    std::uint32_t widthBytes_;
    Ring<NocMessage> *queues_;
    std::uint32_t count_;
    RoundRobinArbiter arb_;
    /** Local index of the queue streaming a packet, or kInvalidId. */
    std::uint32_t current_ = kInvalidId;
    std::uint32_t flitsSent_ = 0;
};

/** Reassembles flits from one channel into `count` endpoint queues. */
class SinkPort
{
  public:
    /**
     * @param in        last-hop channel (owned elsewhere).
     * @param queues    the first of the port's @p count queues.
     * @param first     endpoint id of queues[0].
     * @param queue_cap per-endpoint message queue capacity.
     */
    SinkPort(FlitChannel *in, Ring<NocMessage> *queues,
             std::uint32_t first, std::uint32_t count,
             std::size_t queue_cap)
        : in_(in), queues_(queues), first_(first), count_(count),
          queueCap_(queue_cap)
    {}

    /** Wire this port's live bit: set on every flit sent to it. */
    void wireLive(LiveBit self) { in_->wireReceiver(self); }

    /**
     * Receive up to one flit. The head flit's destination decides the
     * queue; a full target queue blocks the whole port.
     */
    void
    tick(Cycle now)
    {
        if (!in_->hasArrival(now))
            return;
        if (havePending_) {
            if (queues_[pendingLocal_].size() >= queueCap_)
                return;
        } else {
            // The next flit could be a head for any endpoint; the port
            // stalls if any queue is full (conservative head-of-line
            // blocking, as in a real 1:c demux latch).
            for (std::uint32_t i = 0; i < count_; ++i) {
                if (queues_[i].size() >= queueCap_)
                    return;
            }
        }
        Flit flit = in_->receive(now);
        in_->returnCredit(now);
        if (flit.head) {
            pending_ = flit.msg;
            pendingLocal_ = count_ == 1 ? 0 : flit.msg.dst - first_;
            if (pendingLocal_ >= count_)
                panic("sink port [%u, %u): message for endpoint %u",
                      first_, first_ + count_, flit.msg.dst);
            havePending_ = true;
        }
        if (flit.tail) {
            queues_[pendingLocal_].push_back(pending_);
            havePending_ = false;
        }
    }

    /**
     * Pop every delivered message into @p fn(msg, endpoint id of its
     * queue), queue by queue in endpoint order.
     */
    template <typename Fn>
    void
    deliver(Fn &&fn)
    {
        for (std::uint32_t i = 0; i < count_; ++i) {
            Ring<NocMessage> &q = queues_[i];
            while (!q.empty()) {
                const NocMessage msg = q.front();
                q.pop_front();
                fn(msg, first_ + i);
            }
        }
    }

    /** True when no partial or delivered message is held. */
    bool
    drained() const
    {
        return !havePending_ && allEmpty(queues_, count_);
    }

    /**
     * True when tick() is a no-op until a flit is sent to the port and
     * no delivered message waits: every queue empty, nothing on the
     * input wire. A partial packet does not keep the port live; its
     * next flit wakes it.
     */
    bool
    idle() const
    {
        return in_->flitsInFlight() == 0 && allEmpty(queues_, count_);
    }

    /**
     * Earliest cycle tick() could receive a flit: the input channel's
     * next arrival. A delivered message is the consumer's event.
     */
    Cycle nextEventCycle() const { return in_->nextArrivalCycle(); }

    /** Serialize the reassembly latch. */
    void
    saveCkpt(CkptWriter &w) const
    {
        ckptValue(w, pending_);
        w.u32(pendingLocal_);
        w.b(havePending_);
    }

    /**
     * Restore state written by saveCkpt(); a latch on a missing queue
     * fails the reader.
     */
    void
    loadCkpt(CkptReader &r)
    {
        ckptValue(r, pending_);
        pendingLocal_ = r.u32();
        havePending_ = r.b();
        if (havePending_ && pendingLocal_ >= count_)
            r.fail("sink port latch out of range");
    }

  private:
    FlitChannel *in_;
    Ring<NocMessage> *queues_;
    std::uint32_t first_;
    std::uint32_t count_;
    std::size_t queueCap_;
    NocMessage pending_{};
    std::uint32_t pendingLocal_ = 0;
    bool havePending_ = false;
};

} // namespace amsc

#endif // AMSC_NOC_PORT_HH
