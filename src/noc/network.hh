/**
 * @file
 * Abstract GPU NoC interface.
 *
 * All topologies (full crossbar, concentrated crossbar, hierarchical
 * two-stage crossbar, ideal) expose the same contract to the rest of
 * the system: inject requests at SMs and replies at LLC slices, tick
 * once per cycle; slices poll and pop their delivered requests, and
 * delivered replies are pushed into the installed reply handler.
 *
 * The request and reply networks are physically separate (paper
 * section 3.1); implementations instantiate both directions.
 */

#ifndef AMSC_NOC_NETWORK_HH
#define AMSC_NOC_NETWORK_HH

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>

#include "common/ckpt.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "noc/message.hh"

namespace amsc
{

/** NoC topology selector. */
enum class NocTopology
{
    Ideal,        ///< fixed-latency, infinite-bandwidth (validation)
    FullXbar,     ///< single full crossbar (Fig 4)
    Concentrated, ///< concentrated crossbar (Fig 5)
    Hierarchical, ///< two-stage SM-router/MC-router crossbar (Fig 6)
};

/** Latency/throughput statistics of one network direction. */
struct NetworkStats
{
    std::uint64_t messagesInjected = 0;
    std::uint64_t messagesDelivered = 0;
    std::uint64_t flitsDelivered = 0;
    std::uint64_t totalLatency = 0; ///< inject->delivery, cycles
    std::uint64_t injectionStalls = 0;

    double
    avgLatency() const
    {
        return messagesDelivered == 0
            ? 0.0
            : static_cast<double>(totalLatency) /
                static_cast<double>(messagesDelivered);
    }
};

/** Common interface of all GPU NoC implementations. */
class Network
{
  public:
    /**
     * Sink for delivered replies: the reply, the SM whose queue it
     * arrived at, and the cycle. Every reply is handed over, and
     * accounted as delivered, at the end of tick() in the cycle it
     * becomes deliverable, in SM order and per SM in arrival order.
     * This is the only way replies leave the network: without a
     * handler they stay queued at their SMs. The arrival SM is
     * msg.dst on every correct route; a bypassed H-Xbar MC-router
     * forwards input i to output i, so in private mode a reply from a
     * slice outside the SM's cluster arrives at another SM.
     */
    using ReplyHandler =
        std::function<void(const NocMessage &, SmId, Cycle)>;

    virtual ~Network() = default;

    /**
     * Install @p fn as the sink for delivered replies. @p fn takes
     * (msg, arrival SM, now), or (msg, now) if it routes by msg.dst.
     */
    template <typename Fn>
    void
    setReplyHandler(Fn fn)
    {
        if constexpr (std::is_invocable_v<Fn &, const NocMessage &,
                                          SmId, Cycle>) {
            replyHandler_ = std::move(fn);
        } else {
            replyHandler_ = [fn = std::move(fn)](const NocMessage &msg,
                                                 SmId, Cycle now) mutable {
                fn(msg, now);
            };
        }
    }

    /** @return true if SM @p sm can inject another request. */
    virtual bool canInjectRequest(SmId sm) const = 0;

    /**
     * Inject a request message (msg.src = SM id, msg.dst = global
     * slice id).
     * @pre canInjectRequest(msg.src).
     */
    virtual void injectRequest(NocMessage msg, Cycle now) = 0;

    /** @return true if slice @p slice can inject another reply. */
    virtual bool canInjectReply(SliceId slice) const = 0;

    /**
     * Inject a reply message (msg.src = global slice id, msg.dst =
     * SM id).
     * @pre canInjectReply(msg.src).
     */
    virtual void injectReply(NocMessage msg, Cycle now) = 0;

    /** @return true if a request is deliverable at @p slice. */
    virtual bool hasRequestFor(SliceId slice) const = 0;

    /** Pop the oldest request delivered to @p slice. */
    virtual NocMessage popRequestFor(SliceId slice, Cycle now) = 0;

    /** Advance the network one cycle. */
    virtual void tick(Cycle now) = 0;

    /** True when no message or flit is anywhere in the network. */
    virtual bool drained() const = 0;

    /**
     * Earliest cycle at which tick() can change observable state,
     * assuming no further injections; kNoCycle when nothing can ever
     * happen without external input. Drives the `sim_mode=event`
     * jumps, so the contract is *never late*: advertising a cycle
     * after the first real state change diverges the simulation.
     * Advertising early is always safe, only slow -- but a topology
     * that advertises `now + 1` while anything is in flight turns
     * the event driver into the tick loop, so there is no default:
     * each topology states its own. Every shipped one is exact: the
     * ideal NoC advertises its delay-queue fronts, and the crossbars
     * take the min over their live components -- router head-of-line
     * flits, port sendable cycles, and the in-flight flit *and*
     * credit fronts of each live component's channels (credit
     * absorption mutates checkpointed state and flips drained(),
     * which the LLC reconfiguration FSM polls). Skipping idle
     * components leaves the min unchanged: a flit in flight always
     * has a live receiver and a credit in flight a live sender. See
     * docs/performance.md ("The event core", optimization 5) for the
     * full rules.
     */
    virtual Cycle nextEventCycle(Cycle now) const = 0;

    /**
     * Account @p n externally skipped idle cycles (per-cycle activity
     * counters such as router active/gated cycles). The caller
     * guarantees no network state can change during the skipped
     * range (nothing becomes deliverable before nextEventCycle());
     * messages may still be parked in delay queues, so an
     * implementation must only touch counters that tick()
     * unconditionally advances. The crossbars add @p n to every
     * router, live or not, exactly as @p n ticks would: a live
     * router's tick in the range moves nothing, and an idle one's
     * counts the same cycle.
     */
    virtual void advanceIdleCycles(Cycle n) { (void)n; }

    /**
     * Reconfigure for the private-LLC mode (H-Xbar bypasses and
     * power-gates MC-routers; other topologies ignore this).
     * @pre drained().
     */
    virtual void setPrivateMode(bool enable) { (void)enable; }

    /** @return true if the topology supports MC-router gating. */
    virtual bool supportsPowerGating() const { return false; }

    /** Activity snapshot for the power model. */
    virtual NocActivity activity() const = 0;

    /** Human-readable topology name. */
    virtual std::string name() const = 0;

    const NetworkStats &requestStats() const { return reqStats_; }
    const NetworkStats &replyStats() const { return repStats_; }

    /**
     * Serialize all dynamic network state (in-flight messages and
     * flits, credits, arbiter pointers, statistics). Structural state
     * (topology, channel latencies) is reconstructed from SimConfig.
     */
    virtual void saveCkpt(CkptWriter &w) const = 0;

    /**
     * Restore state written by saveCkpt() into an identically
     * configured network. Throws FormatError on geometry mismatch.
     */
    virtual void loadCkpt(CkptReader &r) = 0;

    /** Register summary statistics in @p set. */
    void
    registerStats(StatSet &set) const
    {
        set.addCounter("noc.req_injected", "request messages injected",
                       reqStats_.messagesInjected);
        set.addCounter("noc.req_delivered",
                       "request messages delivered",
                       reqStats_.messagesDelivered);
        set.addCounter("noc.rep_injected", "reply messages injected",
                       repStats_.messagesInjected);
        set.addCounter("noc.rep_delivered", "reply messages delivered",
                       repStats_.messagesDelivered);
        const NetworkStats *rq = &reqStats_;
        const NetworkStats *rp = &repStats_;
        set.add("noc.req_avg_latency", "request latency (cycles)",
                [rq]() { return rq->avgLatency(); });
        set.add("noc.rep_avg_latency", "reply latency (cycles)",
                [rp]() { return rp->avgLatency(); });
    }

  protected:
    /** Serialize the direction statistics (saveCkpt() helper). */
    void
    saveStatsCkpt(CkptWriter &w) const
    {
        w.pod(reqStats_);
        w.pod(repStats_);
    }

    /** Restore the direction statistics (loadCkpt() helper). */
    void
    loadStatsCkpt(CkptReader &r)
    {
        r.pod(reqStats_);
        r.pod(repStats_);
    }

    /** Account one delivered message in @p stats. */
    void
    accountDelivery(NetworkStats &stats, const NocMessage &msg,
                    Cycle now, std::uint32_t channel_width_bytes) const
    {
        ++stats.messagesDelivered;
        stats.flitsDelivered += msg.numFlits(channel_width_bytes);
        stats.totalLatency +=
            now >= msg.injectCycle ? now - msg.injectCycle : 0;
    }

    NetworkStats reqStats_;
    NetworkStats repStats_;
    ReplyHandler replyHandler_;
};

} // namespace amsc

#endif // AMSC_NOC_NETWORK_HH
