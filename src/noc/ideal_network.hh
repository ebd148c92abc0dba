/**
 * @file
 * Ideal fixed-latency, infinite-bandwidth network.
 *
 * Used by unit tests and by experiments that isolate cache/DRAM
 * effects from NoC contention (`noc = ideal`). Not part of the paper's design space.
 */

#ifndef AMSC_NOC_IDEAL_NETWORK_HH
#define AMSC_NOC_IDEAL_NETWORK_HH

#include <vector>

#include "common/delay_queue.hh"
#include "noc/network.hh"
#include "noc/noc_params.hh"

namespace amsc
{

/** Contention-free network with a fixed end-to-end latency. */
class IdealNetwork : public Network
{
  public:
    explicit IdealNetwork(const NocParams &params);

    bool canInjectRequest(SmId sm) const override;
    void injectRequest(NocMessage msg, Cycle now) override;
    bool canInjectReply(SliceId slice) const override;
    void injectReply(NocMessage msg, Cycle now) override;
    bool hasRequestFor(SliceId slice) const override;
    NocMessage popRequestFor(SliceId slice, Cycle now) override;
    void tick(Cycle now) override;
    bool drained() const override;
    Cycle nextEventCycle(Cycle now) const override;
    NocActivity activity() const override;
    std::string name() const override { return "Ideal"; }
    void saveCkpt(CkptWriter &w) const override;
    void loadCkpt(CkptReader &r) override;

  private:
    NocParams params_;
    Cycle now_ = 0;
    std::vector<DelayQueue<NocMessage>> toSlice_;
    std::vector<DelayQueue<NocMessage>> toSm_;
};

} // namespace amsc

#endif // AMSC_NOC_IDEAL_NETWORK_HH
