/**
 * @file
 * Concentrated crossbar NoC (paper Fig 5).
 *
 * A concentration factor c groups c SMs behind one injection port
 * (through a round-robin concentrator) and c LLC slices behind one
 * ejection port (through a distributor), shrinking the central router
 * radix by c in each dimension -- and the bisection bandwidth by c at
 * equal channel width. Shared-port contention is modeled in the
 * adapters, which is why C-Xbar\@8 underperforms H-Xbar at the same
 * bisection bandwidth in Figure 7a. The adapters live in CrossbarBase's
 * concentrator/distributor vectors, so ticking, event advertisement and
 * checkpointing are the base's; this class maps endpoints onto ports.
 */

#ifndef AMSC_NOC_CONCENTRATED_XBAR_HH
#define AMSC_NOC_CONCENTRATED_XBAR_HH

#include "noc/crossbar_base.hh"

namespace amsc
{

/** Concentrated crossbar GPU NoC. */
class ConcentratedXbarNetwork : public CrossbarBase
{
  public:
    explicit ConcentratedXbarNetwork(const NocParams &params);

    // Endpoint plumbing goes through concentrators/distributors.
    bool canInjectRequest(SmId sm) const override;
    void injectRequest(NocMessage msg, Cycle now) override;
    bool canInjectReply(SliceId slice) const override;
    void injectReply(NocMessage msg, Cycle now) override;
    bool hasRequestFor(SliceId slice) const override;
    NocMessage popRequestFor(SliceId slice, Cycle now) override;
    bool hasReplyFor(SmId sm) const override;
    NocMessage popReplyFor(SmId sm, Cycle now) override;

    std::string name() const override;

  private:
    std::uint32_t conc_;
    std::uint32_t reqPorts_;
    std::uint32_t repPorts_;
};

} // namespace amsc

#endif // AMSC_NOC_CONCENTRATED_XBAR_HH
