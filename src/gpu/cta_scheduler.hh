/**
 * @file
 * CTA (thread block) scheduling policies (paper sections 5 and 6.4).
 *
 * The policy decides which SM runs which CTA, which in turn shapes
 * *inter-cluster* data locality:
 *
 *  - TwoLevelRR (default): consecutive CTAs round-robin across
 *    clusters, then across the SMs of a cluster. Adjacent CTAs --
 *    which tend to share data -- land in different clusters,
 *    maximizing inter-cluster sharing.
 *  - BCS (block CTA scheduling, Lee et al. HPCA 2014): pairs of
 *    adjacent CTAs go to the same SM to improve L1 locality.
 *  - DCS (distributed CTA scheduling, MCM-GPU ISCA 2017): the CTA
 *    space is divided into contiguous chunks, one per cluster, which
 *    *reduces* inter-cluster sharing (paper: smaller adaptive-LLC
 *    benefit, 23.9%).
 */

#ifndef AMSC_GPU_CTA_SCHEDULER_HH
#define AMSC_GPU_CTA_SCHEDULER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace amsc
{

/** CTA scheduling policy selector. */
enum class CtaPolicy
{
    TwoLevelRR,
    Bcs,
    Dcs,
};

/** Parse a policy name ("rr" | "bcs" | "dcs"). */
CtaPolicy parseCtaPolicy(const std::string &name);

/**
 * Static CTA-to-SM assignment.
 *
 * @param policy        scheduling policy.
 * @param num_ctas      CTAs in the kernel.
 * @param num_sms       SMs available to this application.
 * @param sms_per_cluster cluster width (cluster-major SM numbering).
 * @param sm_ids        the global SM ids to schedule onto, in
 *                      cluster-major order (identity for
 *                      single-program runs; a subset in multi-program
 *                      mode).
 * @return per-SM ordered list of CTA ids (indexed like @p sm_ids).
 */
std::vector<std::vector<CtaId>>
assignCtas(CtaPolicy policy, std::uint32_t num_ctas,
           std::uint32_t num_sms, std::uint32_t sms_per_cluster,
           const std::vector<SmId> &sm_ids);

} // namespace amsc

#endif // AMSC_GPU_CTA_SCHEDULER_HH
