/**
 * @file
 * Input-queued wormhole router with credit flow control.
 *
 * Models the paper's 4-stage router pipeline (route computation,
 * VC allocation, switch allocation, switch traversal): a flit written
 * into an input buffer becomes eligible for switch allocation after
 * `pipelineLatency` cycles and traverses the switch in the grant
 * cycle. Allocation is a single-iteration separable (iSLIP-style)
 * allocator with per-output round-robin grant pointers that advance
 * only on grant.
 *
 * Wormhole semantics: a head flit locks its output port for the
 * packet; body flits follow on the same route; the tail flit releases
 * the lock. With one VC per port (Table 1) an input port serves one
 * packet at a time.
 *
 * Reconfigurable bypass (paper Fig 10): when `bypass` is enabled on a
 * square router, input i forwards directly to output i with a one
 * cycle latch delay, skipping buffering*, allocation and the switch;
 * the router is considered power-gated and traffic is accounted as
 * bypass traversals. (*Structurally flits still pass through the
 * input FIFO object, but no buffer energy is charged.)
 *
 * Route computation is a table lookup: the topology constructor fills
 * a dst -> output-port table, one entry per destination endpoint. The
 * input buffers are rings reserved to `vcDepthFlits`, which credit
 * flow control never exceeds, so a busy router allocates nothing.
 */

#ifndef AMSC_NOC_ROUTER_HH
#define AMSC_NOC_ROUTER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/ckpt.hh"
#include "common/ring.hh"
#include "common/types.hh"
#include "noc/arbiter.hh"
#include "noc/channel.hh"
#include "noc/live_set.hh"
#include "noc/message.hh"

namespace amsc
{

/** Router structural parameters. */
struct RouterParams
{
    std::string name = "router";
    std::uint32_t numInPorts = 0;
    std::uint32_t numOutPorts = 0;
    /** Virtual channels per input port (Table 1: 1). */
    std::uint32_t numVcs = 1;
    /** Input buffer depth in flits per VC (Table 1: 8). */
    std::uint32_t vcDepthFlits = 8;
    /** Cycles between buffer write and SA eligibility (4-stage: 3). */
    std::uint32_t pipelineLatency = 3;
    /** Channel width (power model bookkeeping). */
    std::uint32_t channelWidthBytes = 32;
    /** True for MC-routers that support bypass + power gating. */
    bool gateable = false;
};

/** Input-queued wormhole router. */
class Router
{
  public:
    /**
     * @param routes output port of a head flit, indexed by its
     *               message's dst; a dst past the end is a routing
     *               error (panic).
     */
    Router(const RouterParams &params, std::vector<std::uint32_t> routes);

    /** Attach the upstream channel feeding input @p port. */
    void connectInput(std::uint32_t port, FlitChannel *channel);

    /** Attach the downstream channel driven by output @p port. */
    void connectOutput(std::uint32_t port, FlitChannel *channel);

    /** Advance one cycle. */
    void tick(Cycle now);

    /**
     * Enable/disable the bypass path.
     *
     * @pre router is square (numInPorts == numOutPorts) and gateable.
     * @pre drained() -- the reconfiguration protocol drains first.
     */
    void setBypass(bool enable);

    bool bypassed() const { return bypass_; }

    /** True when all input buffers are empty. */
    bool drained() const;

    /**
     * Wire @p self as the live bit of this router: every input
     * channel sets it on a flit sent, every output channel on a
     * credit returned.
     */
    void wireLive(LiveBit self);

    /**
     * True when tick() is a no-op apart from the per-cycle
     * active/gated counter (skipIdleCycles(1)) until a channel wakes
     * the router: no buffered flit, no flit in flight on an input, no
     * credit in flight on an output.
     */
    bool idle() const;

    /**
     * Earliest cycle a tick() could change state; kNoCycle when
     * nothing can happen without an external event first. Covers the
     * router's own channels: input flit arrivals (acceptArrivals())
     * and output credit returns (tickSender()). Buffered flits are
     * exact per input: a head-of-line flit moves at max(pipeline
     * eligibility, downstream sendable cycle). Inputs whose movement
     * is gated on someone else's event are skipped soundly:
     *  - a head flit facing a locked output (the lock releases only
     *    when the holder's tail traverses -- that input's own event --
     *    and the request phase sees the lock before the grant phase
     *    clears it, so same-cycle unlock-and-move cannot happen);
     *  - an output with zero banked credits and none in flight
     *    (credits reappear only after a downstream buffer pop).
     */
    Cycle nextEventCycle() const;

    /**
     * Account @p n skipped idle ticks: tick() unconditionally counts
     * one active (or gated, under bypass) cycle, so an event-mode
     * jump over drained cycles must add the same amount.
     */
    void
    skipIdleCycles(Cycle n)
    {
        if (bypass_)
            activity_.gatedCycles += n;
        else
            activity_.activeCycles += n;
    }

    /** Buffer depth seen by upstream credit counters. */
    std::uint32_t
    inputBufferDepth() const
    {
        return params_.vcDepthFlits * params_.numVcs;
    }

    const RouterParams &params() const { return params_; }
    const RouterActivity &activity() const { return activity_; }

    /**
     * Serialize input buffers, wormhole locks, arbiter pointers, the
     * bypass flag and activity counters (geometry is structural).
     */
    void saveCkpt(CkptWriter &w) const;

    /** Restore state written by saveCkpt(). */
    void loadCkpt(CkptReader &r);

  private:
    /** A buffered flit and the cycle it becomes SA-eligible. */
    struct BufferedFlit
    {
        Cycle eligibleAt;
        Flit flit;
    };

    struct InputPort
    {
        FlitChannel *in = nullptr;
        /** Flit FIFO; single VC per Table 1. */
        Ring<BufferedFlit> buffer;
        /** Output locked by the in-flight packet (wormhole). */
        std::uint32_t currentOut = kInvalidId;
    };

    struct OutputPort
    {
        FlitChannel *out = nullptr;
        RoundRobinArbiter arb;
        /** Input index holding the wormhole lock, or kInvalidId. */
        std::uint32_t lockedBy = kInvalidId;
    };

    /** Output port of a head flit carrying @p msg; kInvalidId if none. */
    std::uint32_t
    routeOf(const NocMessage &msg) const
    {
        return msg.dst < routes_.size() ? routes_[msg.dst] : kInvalidId;
    }

    void acceptArrivals(Cycle now);
    void tickBypass(Cycle now);
    void tickAllocate(Cycle now);

    RouterParams params_;
    /** dst -> output port. */
    std::vector<std::uint32_t> routes_;
    std::vector<InputPort> inputs_;
    std::vector<OutputPort> outputs_;
    bool bypass_ = false;
    RouterActivity activity_;
    /**
     * Flits across all input buffers. Gates the allocation scan: with
     * zero buffered flits, request/grant phases are provable no-ops
     * (the arbiter pointer only moves on grant), so tick() can skip
     * straight to the per-cycle activity accounting.
     */
    std::uint32_t bufferedFlits_ = 0;
    // Per-tick scratch: output requested by each input (kInvalidId =
    // none) and a per-output any-request flag gating the grant scan.
    std::vector<std::uint32_t> requestedOut_;
    std::vector<std::uint8_t> outputRequested_;
};

} // namespace amsc

#endif // AMSC_NOC_ROUTER_HH
