/**
 * @file
 * Shared machinery for crossbar-style networks.
 *
 * Owns the channels, routers, endpoint queues and ports and provides
 * the Network implementation of all three flit crossbars. Each SM and
 * each slice has one message queue per direction, kept in four flat
 * arrays indexed by endpoint id, so an injection, a poll or a pop is
 * one lookup. Ports (noc/port.hh) connect the queues to the first-
 * and last-hop channels: port p of a side covers endpoints
 * [p * w, (p + 1) * w), where the topology picks the width w -- one
 * for the full and hierarchical crossbars, the concentration for
 * C-Xbar. A topology constructor builds its routers and channels and
 * adds one port per endpoint-side channel, in endpoint order.
 *
 * Activity-driven ticking: a LiveSet (noc/live_set.hh) keeps one bit
 * per source port, router and sink port. Channels set the receiver's
 * bit on a flit and the sender's on a credit, injections set the
 * source port's, and a checkpoint restore sets them all. A bit is
 * cleared only right after the component's own tick (for a reply
 * sink, reply delivery) leaves it idle, so a clear bit proves its
 * tick is a no-op (a router's idle tick still counts one
 * active/gated cycle). tick(), deliverReplies() and nextEventCycle()
 * visit only live components, in the fixed order sources, routers,
 * sinks; a router woken by an earlier router in the same cycle ticks
 * in that cycle, as zero-latency links require.
 */

#ifndef AMSC_NOC_CROSSBAR_BASE_HH
#define AMSC_NOC_CROSSBAR_BASE_HH

#include <memory>
#include <vector>

#include "noc/channel.hh"
#include "noc/live_set.hh"
#include "noc/network.hh"
#include "noc/noc_params.hh"
#include "noc/port.hh"
#include "noc/router.hh"

namespace amsc
{

/** Base class for the crossbar topologies. */
class CrossbarBase : public Network
{
  public:
    /**
     * @param endpoints_per_port SMs or slices behind each port.
     */
    CrossbarBase(const NocParams &params,
                 std::uint32_t endpoints_per_port);

    bool canInjectRequest(SmId sm) const override;
    void injectRequest(NocMessage msg, Cycle now) override;
    bool canInjectReply(SliceId slice) const override;
    void injectReply(NocMessage msg, Cycle now) override;
    bool hasRequestFor(SliceId slice) const override;
    NocMessage popRequestFor(SliceId slice, Cycle now) override;
    void tick(Cycle now) override;
    bool drained() const override;

    /**
     * Exact event advertisement: the min over the live components'
     * own earliest state changes -- a source port's next credit
     * return and, while it holds a message, its next sendable cycle;
     * a router's input arrivals, output credit returns and movable
     * head-of-line flits; a sink port's next input arrival. Idle
     * components add nothing: a flit in flight always has a live
     * receiver and a credit in flight a live sender, so the minimum
     * equals the one over every component and channel. Messages
     * already reassembled at a sink are the consumer's event (the
     * LLC/SM advertises `now` while input is pending).
     */
    Cycle nextEventCycle(Cycle now) const override;
    void advanceIdleCycles(Cycle n) override;
    NocActivity activity() const override;
    void saveCkpt(CkptWriter &w) const override;
    void loadCkpt(CkptReader &r) override;

    const NocParams &nocParams() const { return params_; }

  protected:
    /** Allocate and register a channel. */
    FlitChannel *makeChannel(Cycle flit_latency, std::uint32_t credits,
                             double length_mm);

    /**
     * Allocate and register a router whose route table sends a head
     * flit for destination d (d < @p num_dsts) to @p port_of(d).
     */
    template <typename PortOf>
    Router *
    makeRouter(const RouterParams &rp, std::uint32_t num_dsts,
               PortOf port_of)
    {
        routers_.push_back(
            std::make_unique<Router>(rp, dstTable(num_dsts, port_of)));
        return routers_.back().get();
    }

    /** The table {@p f(0), ..., @p f(@p n - 1)}. */
    template <typename Fn>
    static std::vector<std::uint32_t>
    dstTable(std::uint32_t n, Fn f)
    {
        std::vector<std::uint32_t> t(n);
        for (std::uint32_t d = 0; d < n; ++d)
            t[d] = f(d);
        return t;
    }

    /** Add the next SMs' request source port, feeding @p out. */
    void addRequestSource(FlitChannel *out);
    /** Add the next slices' request sink port, fed by @p in. */
    void addRequestSink(FlitChannel *in);
    /** Add the next slices' reply source port, feeding @p out. */
    void addReplySource(FlitChannel *out);
    /** Add the next SMs' reply sink port, fed by @p in. */
    void addReplySink(FlitChannel *in);

    /**
     * Size the live set and wire every port, router and channel to it
     * in one pass. Each topology constructor calls it last, once all
     * components exist; panics if a channel is left without a sender
     * or receiver, or an endpoint without a port.
     */
    void wireLiveSet();

    NocParams params_;
    std::vector<std::unique_ptr<FlitChannel>> channels_;
    std::vector<std::unique_ptr<Router>> routers_;

  private:
    /** Endpoint range [first, first + count) of port @p p of @p n. */
    struct Range
    {
        std::uint32_t first;
        std::uint32_t count;
    };
    Range portRange(std::size_t p, std::size_t n) const;

    void addSource(std::vector<SourcePort> &ports,
                   std::vector<Ring<NocMessage>> &queues,
                   FlitChannel *out);
    void addSink(std::vector<SinkPort> &ports,
                 std::vector<Ring<NocMessage>> &queues, FlitChannel *in);

    /** Queue @p msg at a source endpoint and wake its port's bit. */
    void enqueue(Ring<NocMessage> &q, NocMessage msg, Cycle now,
                 std::size_t bit);
    /** Push all deliverable replies into the installed handler. */
    void deliverReplies(Cycle now);
    /** Account a delivered message in @p stats. */
    void accountDelivery(NetworkStats &stats, const NocMessage &msg,
                         Cycle now) const;

    template <typename Port>
    std::size_t tickLive(std::vector<Port> &ports, std::size_t base,
                         Cycle now);
    template <typename Port>
    std::size_t minLiveEvent(const std::vector<Port> &ports,
                             std::size_t base, Cycle &next) const;

    /** Endpoints behind each port (the last port may have fewer). */
    std::uint32_t perPort_;

    /** Per-SM requests waiting to enter the network. */
    std::vector<Ring<NocMessage>> reqSrcQ_;
    /** Per-slice requests delivered, for hasRequestFor(). */
    std::vector<Ring<NocMessage>> reqSinkQ_;
    /** Per-slice replies waiting to enter the network. */
    std::vector<Ring<NocMessage>> repSrcQ_;
    /** Per-SM replies delivered, for the reply handler. */
    std::vector<Ring<NocMessage>> repSinkQ_;

    std::vector<SourcePort> reqSrc_;
    std::vector<SinkPort> reqSink_;
    std::vector<SourcePort> repSrc_;
    std::vector<SinkPort> repSink_;

    /**
     * One bit per component, in tick order: sources (reqSrc_,
     * repSrc_), routers (routers_ order), sinks (reqSink_, repSink_).
     */
    LiveSet live_;
    /** Index of the first sink bit. */
    std::size_t sinkBase_ = 0;
};

} // namespace amsc

#endif // AMSC_NOC_CROSSBAR_BASE_HH
