/**
 * @file
 * Shared machinery for crossbar-style networks.
 *
 * Owns the channels, routers and endpoint adapters and provides the
 * Network implementation of all three flit crossbars. Sources are
 * either one injection adapter per endpoint (full and hierarchical
 * crossbar) or concentrators shared by several endpoints (concentrated
 * crossbar); sinks likewise are ejection adapters or distributors. The
 * concentrated crossbar overrides only the endpoint methods that map
 * an SM or slice onto its shared port.
 *
 * Activity-driven ticking: a LiveSet (noc/live_set.hh) keeps one bit
 * per source, router and sink. Channels set the receiver's bit on a
 * flit and the sender's on a credit, injections set the source's, and
 * a checkpoint restore sets them all. A bit is cleared only right
 * after the component's own tick (for a reply sink, reply delivery)
 * leaves it idle, so a clear bit proves its tick is a no-op (a
 * router's idle tick still counts one active/gated cycle). tick(),
 * deliverReplies() and nextEventCycle() visit only live components,
 * in the fixed order sources, routers, sinks; a router woken by an
 * earlier router in the same cycle ticks in that cycle, as
 * zero-latency links require.
 */

#ifndef AMSC_NOC_CROSSBAR_BASE_HH
#define AMSC_NOC_CROSSBAR_BASE_HH

#include <memory>
#include <vector>

#include "noc/channel.hh"
#include "noc/concentrator.hh"
#include "noc/endpoint.hh"
#include "noc/live_set.hh"
#include "noc/network.hh"
#include "noc/noc_params.hh"
#include "noc/router.hh"

namespace amsc
{

/** Base class for the crossbar topologies. */
class CrossbarBase : public Network
{
  public:
    explicit CrossbarBase(const NocParams &params);

    bool canInjectRequest(SmId sm) const override;
    void injectRequest(NocMessage msg, Cycle now) override;
    bool canInjectReply(SliceId slice) const override;
    void injectReply(NocMessage msg, Cycle now) override;
    bool hasRequestFor(SliceId slice) const override;
    NocMessage popRequestFor(SliceId slice, Cycle now) override;
    bool hasReplyFor(SmId sm) const override;
    NocMessage popReplyFor(SmId sm, Cycle now) override;
    void tick(Cycle now) override;
    bool drained() const override;

    /**
     * Exact event advertisement: the min over the live components'
     * own earliest state changes -- a source's next credit return and,
     * while it holds a message, its next sendable cycle; a router's
     * input arrivals, output credit returns and movable head-of-line
     * flits; a sink's next input arrival. Idle components add
     * nothing: a flit in flight always has a live receiver and a
     * credit in flight a live sender, so the minimum equals the one
     * over every component and channel. Messages already reassembled
     * at a sink are the consumer's event (the LLC/SM advertises `now`
     * while input is pending).
     */
    Cycle nextEventCycle(Cycle now) const override;
    void advanceIdleCycles(Cycle n) override;
    NocActivity activity() const override;
    void saveCkpt(CkptWriter &w) const override;
    void loadCkpt(CkptReader &r) override;

    const NocParams &nocParams() const { return params_; }

  protected:
    /** Push all deliverable replies into the installed handler. */
    void deliverReplies(Cycle now);
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

    /**
     * Size the live set and wire every adapter, router and channel to
     * it in one pass. Each topology constructor calls it last, once
     * all components exist; panics if a channel is left without a
     * sender or receiver.
     */
    void wireLiveSet();

    /** Account a delivered message in @p stats. */
    void accountDelivery(NetworkStats &stats, const NocMessage &msg,
                         Cycle now) const;

    NocParams params_;
    std::vector<std::unique_ptr<FlitChannel>> channels_;
    std::vector<std::unique_ptr<Router>> routers_;
    /** Per-SM request sources (empty for C-Xbar). */
    std::vector<std::unique_ptr<InjectionAdapter>> reqInj_;
    /** Per-slice request sinks (empty for C-Xbar). */
    std::vector<std::unique_ptr<EjectionAdapter>> reqEj_;
    /** Per-slice reply sources (empty for C-Xbar). */
    std::vector<std::unique_ptr<InjectionAdapter>> repInj_;
    /** Per-SM reply sinks (empty for C-Xbar). */
    std::vector<std::unique_ptr<EjectionAdapter>> repEj_;
    /** Shared request sources, one per SM group (C-Xbar only). */
    std::vector<std::unique_ptr<ConcentratorAdapter>> reqConc_;
    /** Shared request sinks, one per slice group (C-Xbar only). */
    std::vector<std::unique_ptr<DistributorAdapter>> reqDist_;
    /** Shared reply sources, one per slice group (C-Xbar only). */
    std::vector<std::unique_ptr<ConcentratorAdapter>> repConc_;
    /** Shared reply sinks, one per SM group (C-Xbar only). */
    std::vector<std::unique_ptr<DistributorAdapter>> repDist_;

  private:
    template <typename T>
    std::size_t tickLive(std::vector<std::unique_ptr<T>> &v,
                         std::size_t base, Cycle now);
    template <typename T>
    std::size_t minLiveEvent(const std::vector<std::unique_ptr<T>> &v,
                             std::size_t base, Cycle &next) const;

    /**
     * One bit per component, in tick order: sources (reqInj_,
     * repInj_, reqConc_, repConc_), routers (routers_ order), sinks
     * (reqEj_, repEj_, reqDist_, repDist_).
     */
    LiveSet live_;
    /** Index of the first sink bit. */
    std::size_t sinkBase_ = 0;
};

} // namespace amsc

#endif // AMSC_NOC_CROSSBAR_BASE_HH
