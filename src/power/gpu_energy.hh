/**
 * @file
 * GPUWattch-class whole-system energy model.
 *
 * The paper uses GPUWattch for GPU power and reports *total system
 * energy* (GPU + DRAM) savings of 6.1% on average (up to 27.2%) when
 * the adaptive LLC runs in private mode (section 6.2). This model
 * captures the two effects that drive that result:
 *
 *   1. event energy: per-instruction, per-L1/LLC/DRAM-access dynamic
 *      energies (DRAM traffic *rises* under the private LLC's
 *      write-through policy, which the model charges);
 *   2. time-dependent energy: constant leakage + clock power whose
 *      contribution scales with runtime, so faster execution saves
 *      energy.
 *
 * NoC energy is imported from the DSENT-class model.
 */

#ifndef AMSC_POWER_GPU_ENERGY_HH
#define AMSC_POWER_GPU_ENERGY_HH

#include <cstdint>

#include "common/ckpt.hh"

namespace amsc
{

/** Event counts feeding the energy model. */
struct GpuActivity
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t l1Accesses = 0;
    std::uint64_t llcAccesses = 0;
    std::uint64_t dramAccesses = 0;
    /** NoC energy over the same interval, uJ (from NocPowerModel). */
    double nocEnergyUj = 0.0;
};

/*
 * The double member disqualifies GpuActivity from raw pod()
 * serialization (no unique object representation); encode field-wise.
 * These lists are also RunResult's journal encoding and what
 * identicalResults() compares; the LP64 size pin catches a new field.
 */
#ifdef __LP64__
static_assert(sizeof(GpuActivity) == 48,
              "add the new GpuActivity field to both ckptValue() lists");
#endif
inline void
ckptValue(CkptWriter &w, const GpuActivity &a)
{
    ckptFields(w, a.cycles, a.instructions, a.l1Accesses,
               a.llcAccesses, a.dramAccesses, a.nocEnergyUj);
}

inline void
ckptValue(CkptReader &r, GpuActivity &a)
{
    ckptFields(r, a.cycles, a.instructions, a.l1Accesses,
               a.llcAccesses, a.dramAccesses, a.nocEnergyUj);
}

/**
 * Energy coefficients (ISCA-2019-era discrete GPU, 16 nm-ish SMs).
 *
 * Instructions in this simulator are *warp-level* (32 threads), so
 * per-instruction and per-access energies are warp-granular.
 */
struct GpuEnergyParams
{
    double freqGhz = 1.4;
    /** Dynamic energy per warp instruction (32 lanes + frontend), nJ. */
    double instrNj = 2.5;
    /** Dynamic energy per (coalesced) L1 access, nJ. */
    double l1AccessNj = 0.20;
    /** Dynamic energy per LLC slice access, nJ. */
    double llcAccessNj = 0.15;
    /** Dynamic energy per 128 B DRAM access (GDDR5), nJ. */
    double dramAccessNj = 10.0;
    /** GPU constant power (leakage + clocks + idle lanes), W. */
    double gpuStaticW = 90.0;
    /** DRAM background power, W. */
    double dramStaticW = 12.0;
};

/** System energy breakdown, uJ. */
struct GpuEnergyResult
{
    double coreDynamicUj = 0.0;
    double l1DynamicUj = 0.0;
    double llcDynamicUj = 0.0;
    double dramDynamicUj = 0.0;
    double nocUj = 0.0;
    double staticUj = 0.0;

    double
    totalUj() const
    {
        return coreDynamicUj + l1DynamicUj + llcDynamicUj +
            dramDynamicUj + nocUj + staticUj;
    }
};

/** Whole-system (GPU + DRAM) energy evaluator. */
class GpuEnergyModel
{
  public:
    explicit GpuEnergyModel(
        const GpuEnergyParams &params = GpuEnergyParams{})
        : params_(params)
    {}

    /** Evaluate total system energy for @p activity. */
    GpuEnergyResult evaluate(const GpuActivity &activity) const;

    const GpuEnergyParams &params() const { return params_; }

  private:
    GpuEnergyParams params_;
};

} // namespace amsc

#endif // AMSC_POWER_GPU_ENERGY_HH
