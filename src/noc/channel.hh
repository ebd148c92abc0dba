/**
 * @file
 * Unidirectional flit channel with credit-based flow control.
 *
 * A FlitChannel models one physical link: a forward flit pipeline with
 * wire latency and a reverse credit pipeline. The *sender* owns a
 * credit counter initialized to the downstream buffer depth; it may
 * send only while credits remain (guaranteeing the downstream buffer
 * never overflows, per paper section 3.3). The *receiver* returns one
 * credit whenever a flit leaves its input buffer.
 *
 * Inside a crossbar network the channel also wakes its endpoints: a
 * sent flit sets the receiver's live bit and a returned credit the
 * sender's (noc/live_set.hh), so only components with work are ticked.
 *
 * The credit protocol bounds both wires by the credit count: flits in
 * flight plus credits in flight never exceed it, so both delay queues
 * are reserved to it at construction and never allocate afterwards.
 */

#ifndef AMSC_NOC_CHANNEL_HH
#define AMSC_NOC_CHANNEL_HH

#include <cstdint>

#include "common/delay_queue.hh"
#include "common/types.hh"
#include "noc/live_set.hh"
#include "noc/message.hh"

namespace amsc
{

/** One credit-flow-controlled link. */
class FlitChannel
{
  public:
    /**
     * @param flit_latency   forward wire/pipeline latency in cycles.
     * @param credit_latency credit return latency in cycles.
     * @param credits        downstream buffer depth in flits.
     * @param length_mm      physical length (power model).
     * @param width_bytes    channel width (power model / packetizing).
     */
    FlitChannel(Cycle flit_latency, Cycle credit_latency,
                std::uint32_t credits, double length_mm,
                std::uint32_t width_bytes)
        : flitLatency_(flit_latency), creditLatency_(credit_latency),
          senderCredits_(credits), flits_(credits),
          creditReturns_(credits)
    {
        activity_.lengthMm = length_mm;
        activity_.widthBytes = width_bytes;
    }

    /** Set @p bit (the sender's) on every credit return. */
    void wireSender(LiveBit bit) { sender_ = bit; }

    /** Set @p bit (the receiver's) on every flit sent. */
    void wireReceiver(LiveBit bit) { receiver_ = bit; }

    /** True once both endpoints' live bits are wired. */
    bool
    liveWired() const
    {
        return sender_.wired() && receiver_.wired();
    }

    /** @return true if the sender holds at least one credit. */
    bool canSend() const { return senderCredits_ > 0; }

    /** Sender: transmit one flit. @pre canSend(). */
    void
    send(Flit flit, Cycle now)
    {
        --senderCredits_;
        flits_.push(std::move(flit), now, flitLatency_);
        ++activity_.flitTraversals;
        receiver_.set();
    }

    /** Receiver: @return true if a flit has arrived by @p now. */
    bool hasArrival(Cycle now) const { return flits_.ready(now); }

    /** Receiver: take the arrived flit. @pre hasArrival(now). */
    Flit receive(Cycle now) { return flits_.pop(now); }

    /** Receiver: return one credit (its buffer slot freed). */
    void
    returnCredit(Cycle now)
    {
        creditReturns_.push(1, now, creditLatency_);
        sender_.set();
    }

    /** Sender: absorb credits that completed the return trip. */
    void
    tickSender(Cycle now)
    {
        while (creditReturns_.ready(now)) {
            creditReturns_.pop(now);
            ++senderCredits_;
        }
    }

    /** Credits currently available to the sender. */
    std::uint32_t senderCredits() const { return senderCredits_; }

    /**
     * Cycle the oldest in-flight flit completes the wire traversal;
     * kNoCycle when none is in flight. Exact: `DelayQueue`'s monotone
     * ready-cycle clamp makes frontReadyCycle() the precise cycle
     * hasArrival() first turns true.
     */
    Cycle
    nextArrivalCycle() const
    {
        return flits_.empty() ? kNoCycle : flits_.frontReadyCycle();
    }

    /**
     * Cycle the oldest in-flight credit completes the return trip
     * (tickSender() absorbs it then); kNoCycle when none is in
     * flight. Credit absorption mutates checkpointed state
     * (senderCredits_/creditReturns_) and flips quiescent(), which
     * the LLC reconfiguration FSM polls through Network::drained(),
     * so it is a first-class event, not bookkeeping.
     */
    Cycle
    nextCreditCycle() const
    {
        return creditReturns_.empty() ? kNoCycle
                                      : creditReturns_.frontReadyCycle();
    }

    /**
     * Earliest cycle a sender could transmit on this link: 0 (i.e.
     * "now") while credits are banked, else the oldest in-flight
     * credit's return cycle, else kNoCycle -- with every credit spent
     * and none in flight, sending becomes possible only after the
     * downstream buffer pops, which is the downstream component's own
     * advertised event.
     */
    Cycle
    nextSendableCycle() const
    {
        if (senderCredits_ > 0)
            return 0;
        return nextCreditCycle();
    }

    /** True when no flit or credit is in flight on the wire. */
    bool
    quiescent() const
    {
        return flits_.empty() && creditReturns_.empty();
    }

    /** Number of flits currently on the wire. */
    std::size_t flitsInFlight() const { return flits_.size(); }

    /** True while a credit is on its way back to the sender. */
    bool creditsInFlight() const { return !creditReturns_.empty(); }

    const LinkActivity &activity() const { return activity_; }
    LinkActivity &activity() { return activity_; }

    /**
     * Serialize in-flight flits, in-flight credits, the sender credit
     * counter and the traversal counter (latencies and geometry are
     * structural).
     */
    void
    saveCkpt(CkptWriter &w) const
    {
        w.u32(senderCredits_);
        flits_.saveCkpt(w);
        creditReturns_.saveCkpt(w);
        w.u64(activity_.flitTraversals);
    }

    /**
     * Restore state written by saveCkpt(). Credits, flits or credit
     * returns beyond the channel's credit count fail the reader.
     */
    void
    loadCkpt(CkptReader &r)
    {
        senderCredits_ = r.u32();
        if (senderCredits_ > flits_.capacity())
            r.fail("channel credits over the buffer depth");
        flits_.loadCkpt(r);
        creditReturns_.loadCkpt(r);
        activity_.flitTraversals = r.u64();
    }

  private:
    Cycle flitLatency_;
    Cycle creditLatency_;
    std::uint32_t senderCredits_;
    DelayQueue<Flit> flits_;
    DelayQueue<std::uint8_t> creditReturns_;
    LinkActivity activity_;
    LiveBit sender_;
    LiveBit receiver_;
};

} // namespace amsc

#endif // AMSC_NOC_CHANNEL_HH
