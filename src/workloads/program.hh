/**
 * @file
 * Phase-structured workload programs.
 *
 * A WorkloadProgram is the unit GpuSystem executes per application:
 * a source of kernels (phases) produced either statically -- the
 * Table-2 suite, synthetic and replay paths are trivial single-chain
 * programs, bit-identical to the former fixed kernel list -- or
 * dynamically by a request driver that appends work at runtime
 * (workloads/llm_inference.hh). Kernel management asks the program
 * for work whenever the application is idle; a program with no work
 * ready advertises the exact cycle more can appear (the next request
 * arrival), which the event core uses as a jump clamp, so open-loop
 * serving runs stay bit-identical between sim_mode=tick and
 * sim_mode=event.
 *
 * Contract:
 *  - nextKernel(now) may mutate program state (pop queues, form
 *    batches). The returned pointer must stay valid until that
 *    kernel's onKernelDone() -- and, across checkpoint/restore,
 *    currentKernel() must resolve to an equivalent kernel so warp
 *    generators can be recreated.
 *  - nextEventCycle(now) is pure and only meaningful while
 *    nextKernel() returns null and finished() is false: the earliest
 *    cycle at which new work can appear, or kNoCycle.
 *  - saveCkpt()/loadCkpt() serialize the full driver state (queues,
 *    RNG, in-flight batch) so serving runs stay crash-safe; the
 *    program object itself is re-created from the workload
 *    description before restore, exactly like kernel factories.
 */

#ifndef AMSC_WORKLOADS_PROGRAM_HH
#define AMSC_WORKLOADS_PROGRAM_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/ckpt.hh"
#include "common/types.hh"
#include "gpu/trace.hh"

namespace amsc
{

/**
 * Aggregated open-loop serving metrics of one request-driver program
 * (null for static programs). Latencies are per completed request in
 * cycles; GpuSystem::collect() merges the per-app snapshots into the
 * RunResult request-latency percentiles.
 */
struct ServingStats
{
    std::uint64_t requestsArrived = 0;
    std::uint64_t requestsCompleted = 0;
    /** completion - arrival cycle, one entry per completed request. */
    std::vector<std::uint64_t> latencies;
    std::uint64_t batchesLaunched = 0;
    /** Sum of batch sizes over all launched batches. */
    std::uint64_t batchOccupancySum = 0;
    /** Queue depth sampled at each batch launch (before dequeue). */
    std::uint64_t queueDepthSum = 0;
};

/** Request lifecycle event (obs/recorder.hh timeline instants). */
struct ServingEvent
{
    enum class Kind
    {
        Arrival,     ///< request entered the queue
        BatchLaunch, ///< batch dequeued, phase chain started
        Completion,  ///< last phase of the request's batch retired
    };
    Kind kind = Kind::Arrival;
    Cycle cycle = 0;
    std::uint64_t requestId = 0;
    std::uint32_t tenant = 0;
    /** Requests in the affected batch (BatchLaunch/Completion). */
    std::uint32_t batchSize = 0;
    /** Queue depth after the event was applied. */
    std::uint64_t queueDepth = 0;
};

/** Pull-only observer of request lifecycle events (must only read). */
using ServingObserver = std::function<void(const ServingEvent &)>;

/** A per-application source of kernels (phases). */
class WorkloadProgram
{
  public:
    virtual ~WorkloadProgram() = default;

    /**
     * Next kernel to launch at @p now, or nullptr when none is ready
     * (all work drained, or the driver is waiting on an arrival).
     * Called only while the application is idle.
     */
    virtual const KernelInfo *nextKernel(Cycle now) = 0;

    /**
     * Kernel most recently produced by nextKernel() (the launched or
     * last-launched phase); nullptr before the first launch. Restore
     * recreates warp generators through it.
     */
    virtual const KernelInfo *currentKernel() const = 0;

    /** The kernel returned by the last nextKernel() completed. */
    virtual void onKernelDone(Cycle now) { (void)now; }

    /** True when nextKernel() can never return work again. */
    virtual bool finished() const = 0;

    /**
     * Earliest cycle > @p now at which nextKernel() may newly return
     * work while it currently returns null; kNoCycle when no timed
     * work is pending (static programs are never waiting).
     */
    virtual Cycle nextEventCycle(Cycle now) const
    {
        (void)now;
        return kNoCycle;
    }

    /** Serialize the program's dynamic state. */
    virtual void saveCkpt(CkptWriter &w) const = 0;
    /** Restore state written by saveCkpt(). */
    virtual void loadCkpt(CkptReader &r) = 0;

    /** Open-loop serving metrics; null for static programs. */
    virtual const ServingStats *servingStats() const { return nullptr; }

    /** Subscribe to request lifecycle events (no-op by default). */
    virtual void setServingObserver(ServingObserver obs) { (void)obs; }
};

/**
 * The static program: a fixed kernel chain run back to back --
 * exactly the semantics (and launch ordering) of the former
 * GpuSystem kernel list.
 */
class StaticProgram : public WorkloadProgram
{
  public:
    explicit StaticProgram(std::vector<KernelInfo> kernels)
        : kernels_(std::move(kernels))
    {}

    const KernelInfo *
    nextKernel(Cycle now) override
    {
        (void)now;
        if (next_ >= kernels_.size())
            return nullptr;
        return &kernels_[next_++];
    }

    const KernelInfo *
    currentKernel() const override
    {
        return next_ == 0 ? nullptr : &kernels_[next_ - 1];
    }

    bool finished() const override { return next_ >= kernels_.size(); }

    void
    saveCkpt(CkptWriter &w) const override
    {
        // Chain shape rides along purely as a restore-time guard: the
        // kernels (factories) are re-supplied through setWorkload().
        w.varint(kernels_.size());
        w.varint(next_);
    }

    void
    loadCkpt(CkptReader &r) override
    {
        if (r.varint() != kernels_.size())
            r.fail("kernel sequence mismatch: apply the recorded "
                   "setWorkload() calls before restore");
        next_ = static_cast<std::size_t>(r.varint());
        if (next_ > kernels_.size())
            r.fail("kernel index out of range");
    }

  private:
    std::vector<KernelInfo> kernels_;
    std::size_t next_ = 0;
};

} // namespace amsc

#endif // AMSC_WORKLOADS_PROGRAM_HH
