/**
 * @file
 * Round-robin arbiter used by switch allocation and source ports.
 *
 * The pointer advances one past the winner only when a grant is
 * issued, which gives the strong fairness property iSLIP relies on
 * (paper Table 1: "VC/Switch allocator - Islip").
 */

#ifndef AMSC_NOC_ARBITER_HH
#define AMSC_NOC_ARBITER_HH

#include <cstdint>

#include "common/ckpt.hh"

namespace amsc
{

/** Work-conserving round-robin arbiter over a fixed number of inputs. */
class RoundRobinArbiter
{
  public:
    explicit RoundRobinArbiter(std::uint32_t num_inputs = 0)
        : numInputs_(num_inputs)
    {}

    /** Reconfigure the arbiter width; resets the pointer. */
    void
    resize(std::uint32_t num_inputs)
    {
        numInputs_ = num_inputs;
        pointer_ = 0;
    }

    std::uint32_t numInputs() const { return numInputs_; }

    /**
     * Grant the first requesting input at or after the pointer.
     *
     * @param requested `bool(std::uint32_t input)`: does @p input
     *                  request this cycle? Called in round-robin order
     *                  until one does.
     * @return winning input index, or numInputs() if none requested.
     */
    template <typename Requested>
    std::uint32_t
    grant(Requested &&requested)
    {
        std::uint32_t cand = pointer_;
        for (std::uint32_t i = 0; i < numInputs_; ++i) {
            if (requested(cand)) {
                pointer_ = cand + 1 == numInputs_ ? 0 : cand + 1;
                return cand;
            }
            if (++cand == numInputs_)
                cand = 0;
        }
        return numInputs_;
    }

    /** Current pointer position (for tests). */
    std::uint32_t pointer() const { return pointer_; }

    /** Serialize the grant pointer (width is structural). */
    void saveCkpt(CkptWriter &w) const { w.u32(pointer_); }

    /** Restore the grant pointer written by saveCkpt(). */
    void
    loadCkpt(CkptReader &r)
    {
        pointer_ = r.u32();
        if (numInputs_ != 0 && pointer_ >= numInputs_)
            r.fail("arbiter pointer out of range");
    }

  private:
    std::uint32_t numInputs_;
    std::uint32_t pointer_ = 0;
};

} // namespace amsc

#endif // AMSC_NOC_ARBITER_HH
