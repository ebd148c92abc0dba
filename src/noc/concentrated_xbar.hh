/**
 * @file
 * Concentrated crossbar NoC (paper Fig 5).
 *
 * A concentration factor c puts c SMs behind one injection port and c
 * LLC slices behind one ejection port, shrinking the central router
 * radix by c in each dimension -- and the bisection bandwidth by c at
 * equal channel width. The ports are CrossbarBase's, c endpoints wide:
 * a source port round-robins whole packets from its c queues, and a
 * sink port blocks all c queues behind a full one. That shared-port
 * contention is why C-Xbar\@8 underperforms H-Xbar at the same
 * bisection bandwidth in Figure 7a. This class only builds the two
 * routers and their channels.
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

    std::string name() const override;
};

} // namespace amsc

#endif // AMSC_NOC_CONCENTRATED_XBAR_HH
