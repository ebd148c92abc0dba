/**
 * @file
 * Concentrator / distributor adapters for the concentrated crossbar
 * (paper Fig 5).
 *
 * A concentrator lets `c` SMs share one network injection port: each
 * SM keeps its own message queue and a round-robin arbiter picks which
 * queue streams its next packet (packets are never interleaved on the
 * shared port -- wormhole). A distributor is the mirror image on the
 * ejection side: one network port fans out to `c` endpoints, with
 * head-of-line blocking when the target endpoint queue is full. Port
 * contention in these adapters is exactly why C-Xbar loses performance
 * at high concentration in Figure 7a.
 *
 * Every per-endpoint queue is a ring reserved to its cap, and the
 * distributor maps a destination to its local queue through a table
 * the topology fills, so neither adapter allocates while it runs.
 */

#ifndef AMSC_NOC_CONCENTRATOR_HH
#define AMSC_NOC_CONCENTRATOR_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/ckpt.hh"
#include "common/log.hh"
#include "common/ring.hh"
#include "common/types.hh"
#include "noc/arbiter.hh"
#include "noc/channel.hh"
#include "noc/endpoint.hh"
#include "noc/live_set.hh"
#include "noc/message.hh"

namespace amsc
{

/** c-to-1 injection concentrator with per-source queues. */
class ConcentratorAdapter
{
  public:
    ConcentratorAdapter(FlitChannel *out, std::uint32_t width_bytes,
                        std::uint32_t num_srcs, std::size_t queue_cap)
        : out_(out), widthBytes_(width_bytes), queueCap_(queue_cap),
          queues_(num_srcs, Ring<NocMessage>(queue_cap)), arb_(num_srcs)
    {}

    bool
    canAccept(std::uint32_t local_src) const
    {
        return queues_[local_src].size() < queueCap_;
    }

    void
    accept(std::uint32_t local_src, NocMessage msg, Cycle now)
    {
        if (!canAccept(local_src))
            panic("concentrator queue overflow");
        msg.injectCycle = now;
        queues_[local_src].push_back(msg);
        self_.set();
    }

    /**
     * Wire this adapter's live bit: set on accept() and, through the
     * shared output channel, on every credit return.
     */
    void
    wireLive(LiveBit self)
    {
        self_ = self;
        out_->wireSender(self);
    }

    /** Stream one flit of the current packet, or arbitrate a new one. */
    void
    tick(Cycle now)
    {
        out_->tickSender(now);
        if (!out_->canSend())
            return;

        if (current_ == kInvalidId) {
            // Pick the next non-empty source queue round-robin.
            const std::uint32_t pick = arb_.grant(
                [this](std::uint32_t i) { return !queues_[i].empty(); });
            if (pick == arb_.numInputs())
                return;
            current_ = pick;
            flitsSent_ = 0;
        }

        const NocMessage &msg = queues_[current_].front();
        const std::uint32_t total = msg.numFlits(widthBytes_);
        Flit flit;
        flit.head = flitsSent_ == 0;
        flit.tail = flitsSent_ + 1 == total;
        if (flit.head)
            flit.msg = msg;
        out_->send(std::move(flit), now);
        ++flitsSent_;
        if (flitsSent_ == total) {
            queues_[current_].pop_front();
            current_ = kInvalidId;
        }
    }

    bool
    drained() const
    {
        for (const auto &q : queues_) {
            if (!q.empty())
                return false;
        }
        return true;
    }

    /**
     * True when tick() is a no-op until an accept() or a credit
     * return wakes the adapter: every source queue empty (a
     * mid-packet cursor implies a non-empty queue), no credit in
     * flight.
     */
    bool
    idle() const
    {
        return drained() && !out_->creditsInFlight();
    }

    /**
     * Earliest cycle tick() could change state: the shared channel's
     * next credit return, and while any source queue holds a message
     * its next sendable cycle.
     */
    Cycle
    nextEventCycle() const
    {
        const Cycle credit = out_->nextCreditCycle();
        return drained()
            ? credit
            : std::min(credit, out_->nextSendableCycle());
    }

    /** Serialize per-source queues, arbiter and streaming cursor. */
    void
    saveCkpt(CkptWriter &w) const
    {
        for (const auto &q : queues_)
            saveMessageQueue(w, q);
        arb_.saveCkpt(w);
        w.u32(current_);
        w.u32(flitsSent_);
    }

    /**
     * Restore state written by saveCkpt(). A queue over its cap, a
     * cursor on a missing or empty queue, or a packet cursor past the
     * current message's flits fail the reader.
     */
    void
    loadCkpt(CkptReader &r)
    {
        for (auto &q : queues_)
            loadMessageQueue(r, q, queueCap_, "concentrator queue");
        arb_.loadCkpt(r);
        current_ = r.u32();
        flitsSent_ = r.u32();
        if (current_ == kInvalidId)
            return;
        if (current_ >= queues_.size() || queues_[current_].empty())
            r.fail("concentrator cursor out of range");
        if (flitsSent_ >= queues_[current_].front().numFlits(widthBytes_))
            r.fail("concentrator packet cursor out of range");
    }

  private:
    FlitChannel *out_;
    std::uint32_t widthBytes_;
    std::size_t queueCap_;
    std::vector<Ring<NocMessage>> queues_;
    RoundRobinArbiter arb_;
    std::uint32_t current_ = kInvalidId;
    std::uint32_t flitsSent_ = 0;
    LiveBit self_;
};

/** 1-to-c ejection distributor with per-destination queues. */
class DistributorAdapter
{
  public:
    /**
     * @param in        last-hop channel.
     * @param num_dsts  endpoints sharing this port.
     * @param queue_cap per-endpoint message queue capacity.
     * @param local_of  local endpoint index, indexed by msg.dst; a dst
     *                  past the end is a routing error (panic).
     */
    DistributorAdapter(FlitChannel *in, std::uint32_t num_dsts,
                       std::size_t queue_cap,
                       std::vector<std::uint32_t> local_of)
        : in_(in), queueCap_(queue_cap),
          queues_(num_dsts, Ring<NocMessage>(queue_cap)),
          localOf_(std::move(local_of))
    {}

    /**
     * Receive up to one flit. The head flit's destination decides the
     * local queue; a full target queue blocks the whole port
     * (head-of-line blocking by design).
     */
    void
    tick(Cycle now)
    {
        if (!in_->hasArrival(now))
            return;
        if (havePending_) {
            // Mid-packet: stall on the known target queue.
            if (queues_[pendingLocal_].size() >= queueCap_)
                return; // HoL block
        } else {
            // The next flit could be a head for any destination; the
            // port stalls if any local queue is full (conservative
            // head-of-line blocking, as in a real 1:c demux latch).
            for (const auto &q : queues_) {
                if (q.size() >= queueCap_)
                    return;
            }
        }
        Flit flit = in_->receive(now);
        in_->returnCredit(now);
        if (flit.head) {
            pending_ = flit.msg;
            pendingLocal_ = flit.msg.dst < localOf_.size()
                ? localOf_[flit.msg.dst]
                : kInvalidId;
            if (pendingLocal_ >= queues_.size())
                panic("distributor: local index %u out of range",
                      pendingLocal_);
            havePending_ = true;
        }
        if (flit.tail) {
            queues_[pendingLocal_].push_back(pending_);
            havePending_ = false;
        }
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

    /** Endpoints sharing this port. */
    std::uint32_t
    numDsts() const
    {
        return static_cast<std::uint32_t>(queues_.size());
    }

    bool
    hasMessage(std::uint32_t local_dst) const
    {
        return !queues_[local_dst].empty();
    }

    NocMessage
    pop(std::uint32_t local_dst)
    {
        NocMessage m = queues_[local_dst].front();
        queues_[local_dst].pop_front();
        return m;
    }

    bool
    drained() const
    {
        if (havePending_)
            return false;
        for (const auto &q : queues_) {
            if (!q.empty())
                return false;
        }
        return true;
    }

    /** Serialize per-destination queues and the reassembly latch. */
    void
    saveCkpt(CkptWriter &w) const
    {
        for (const auto &q : queues_)
            saveMessageQueue(w, q);
        ckptValue(w, pending_);
        w.u32(pendingLocal_);
        w.b(havePending_);
    }

    /**
     * Restore state written by saveCkpt(). A queue over its cap or a
     * latch on a missing queue fail the reader.
     */
    void
    loadCkpt(CkptReader &r)
    {
        for (auto &q : queues_)
            loadMessageQueue(r, q, queueCap_, "distributor queue");
        ckptValue(r, pending_);
        pendingLocal_ = r.u32();
        havePending_ = r.b();
        if (havePending_ && pendingLocal_ >= queues_.size())
            r.fail("distributor latch out of range");
    }

  private:
    FlitChannel *in_;
    std::size_t queueCap_;
    std::vector<Ring<NocMessage>> queues_;
    /** msg.dst -> local endpoint index. */
    std::vector<std::uint32_t> localOf_;
    NocMessage pending_{};
    std::uint32_t pendingLocal_ = 0;
    bool havePending_ = false;
};

} // namespace amsc

#endif // AMSC_NOC_CONCENTRATOR_HH
