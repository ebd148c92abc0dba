/**
 * @file
 * The 17-benchmark workload suite (paper Table 2).
 *
 * Each benchmark is a synthetic stand-in calibrated to the paper's
 * reported properties: shared-data footprint (Table 2), kernel count
 * (Table 2, capped at 4 for simulation scale -- streams are divided
 * across kernels so total work is unchanged), workload class and
 * inter-cluster sharing profile (Fig 3). See docs/DESIGN.md for the
 * substitution rationale.
 */

#ifndef AMSC_WORKLOADS_SUITE_HH
#define AMSC_WORKLOADS_SUITE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gpu/trace.hh"
#include "workloads/trace_gen.hh"

namespace amsc
{

class TraceWriter;
class TraceReader;

/** Paper workload classification (Fig 2). */
enum class WorkloadClass
{
    SharedFriendly,
    PrivateFriendly,
    Neutral,
};

/** Class display name. */
std::string workloadClassName(WorkloadClass c);

/** One benchmark of Table 2. */
struct WorkloadSpec
{
    std::string abbr;     ///< paper abbreviation (LUD, AN, ...)
    std::string fullName; ///< paper benchmark name
    WorkloadClass klass = WorkloadClass::Neutral;
    double sharedMb = 0.0;        ///< Table 2 shared footprint
    std::uint32_t paperKernels = 1; ///< Table 2 kernel count
    std::uint32_t simKernels = 1;   ///< kernels actually simulated
    std::uint32_t numCtas = 320;
    std::uint32_t warpsPerCta = 8;
    TraceParams trace{};
};

/** Registry of the Table-2 benchmarks. */
class WorkloadSuite
{
  public:
    /** All 17 benchmarks, paper order. */
    static const std::vector<WorkloadSpec> &all();

    /** Look up by abbreviation; ConfigError if unknown. */
    static const WorkloadSpec &byName(const std::string &abbr);

    /** Benchmarks of one class, paper order. */
    static std::vector<WorkloadSpec> byClass(WorkloadClass c);

    /**
     * Materialize the kernel sequence of @p spec.
     *
     * @param seed run seed (mixed into generator seeds).
     * @param app  application id: offsets the address space so
     *             co-running programs do not alias.
     */
    static std::vector<KernelInfo>
    buildKernels(const WorkloadSpec &spec, std::uint64_t seed,
                 AppId app = 0);

    /**
     * All two-program combinations of a shared-friendly and a
     * private-friendly benchmark (paper Fig 15: 30 pairs).
     */
    static std::vector<std::pair<WorkloadSpec, WorkloadSpec>>
    multiprogramPairs();

    // ---- trace capture / replay (src/trace) ------------------------

    /**
     * buildKernels() with every warp stream captured into @p writer
     * (see wrapKernelsForRecording): the run behaves identically to
     * the unrecorded one while producing a replayable trace.
     */
    static std::vector<KernelInfo>
    buildRecordedKernels(const WorkloadSpec &spec, std::uint64_t seed,
                         const std::shared_ptr<TraceWriter> &writer,
                         AppId app = 0);

    /**
     * Kernel sequence replaying @p reader's trace; substitutes for
     * any makeSyntheticKernel-built workload.
     */
    static std::vector<KernelInfo>
    buildReplayKernels(const std::shared_ptr<const TraceReader> &reader);
};

} // namespace amsc

#endif // AMSC_WORKLOADS_SUITE_HH
