/**
 * @file
 * Top-level simulated GPU: SMs + NoC + adaptive LLC + DRAM.
 *
 * GpuSystem wires the subsystems per the paper's baseline (Table 1,
 * Fig 6), owns the cycle loop, manages kernel launches per
 * application (including the multi-program SM partitioning of Fig 9)
 * and assembles the run metrics the scenarios emit and report.
 *
 * The cycle core is event-assisted: replies are pushed from the NoC
 * straight into the SMs (no per-SM polling), kernel management runs
 * only on kernel-state transitions, and instruction retirement feeds
 * a running counter. All of it is bit-exact with the naive per-cycle
 * loop (tests/test_perf_invariance.cc, docs/performance.md). Two
 * drivers run the loop: sim_mode=tick ticks every cycle and is the
 * reference; sim_mode=event jumps the clock over no-op cycles and is
 * bit-identical to it (tests/test_event_core.cc).
 */

#ifndef AMSC_SIM_GPU_SYSTEM_HH
#define AMSC_SIM_GPU_SYSTEM_HH

#include <array>
#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "gpu/sm.hh"
#include "gpu/trace.hh"
#include "llc/llc_system.hh"
#include "mem/memory_system.hh"
#include "noc/network.hh"
#include "power/gpu_energy.hh"
#include "sim/sim_config.hh"
#include "workloads/program.hh"

namespace amsc
{

/** Result of one simulation run. */
struct RunResult
{
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    double ipc = 0.0;
    /** Per-application IPC (multi-program runs). */
    std::vector<double> appIpc;
    /** Per-application instruction counts. */
    std::vector<std::uint64_t> appInstructions;
    bool finishedWork = false; ///< all kernels completed

    double llcReadMissRate = 0.0;
    /** LLC response rate: replies injected per cycle (Fig 12). */
    double llcResponseRate = 0.0;
    std::uint64_t llcAccesses = 0;
    /** LLC fills dropped by the bypass policy (llc_bypass). */
    std::uint64_t llcBypasses = 0;
    std::uint64_t dramAccesses = 0;
    /** Aggregate DRAM row-buffer hit rate across all MCs. */
    double dramRowHitRate = 0.0;
    /** All-bank refreshes performed across all MCs. */
    std::uint64_t dramRefreshes = 0;
    /**
     * Asks refused by a full MC queue (LLC backpressure). A slice
     * retries every cycle and probes for both its miss and its
     * write-back queue, so this counts refused asks, not distinct
     * stall cycles.
     */
    std::uint64_t dramQueueRejects = 0;
    /** Write-drain mode entries (mem_sched=write_drain, else 0). */
    std::uint64_t dramWriteDrains = 0;
    double avgRequestLatency = 0.0;
    double avgReplyLatency = 0.0;

    /** Final LLC mode of app 0 and controller stats. */
    LlcMode finalMode = LlcMode::Shared;
    LlcSystemStats llcCtrl{};

    /** Fig-3 sharing buckets: 1 / 2 / 3-4 / 5-8 clusters. */
    std::array<double, 4> sharingBuckets{};

    /** NoC activity snapshot (power model input). */
    NocActivity nocActivity{};
    /** System activity (energy model input, NoC energy not filled). */
    GpuActivity gpuActivity{};

    // ---- open-loop serving metrics (request-driver programs) ------
    /** True when any app ran under a request-driver program; the
     *  serving emitter columns appear only for such runs. */
    bool servingActive = false;
    std::uint64_t requestsCompleted = 0;
    /** Request latency percentiles, cycles (nearest-rank). */
    double reqLatencyP50 = 0.0;
    double reqLatencyP99 = 0.0;
    /** Mean requests per launched batch. */
    double batchOccupancy = 0.0;
    /** Mean queue depth sampled at batch launches. */
    double queueDepthMean = 0.0;
};

/**
 * Encode @p r field by field in the byte codec (doubles as raw bit
 * patterns): the journal's record body and the one field list of
 * RunResult.
 */
void saveRunResult(CkptWriter &w, const RunResult &r);

/** Mirror of saveRunResult(); throws FormatError on malformed input. */
void loadRunResult(CkptReader &r, RunResult &out);

/**
 * Bitwise equality of two run results: their saveRunResult()
 * encodings are equal, controller statistics and NoC/GPU activity
 * snapshots included. This is the determinism contract of the
 * optimized cycle core and of SweepRunner: "identical" means
 * *identical*, not "close".
 */
bool identicalResults(const RunResult &a, const RunResult &b);

/** The simulated GPU. */
class GpuSystem
{
  public:
    explicit GpuSystem(const SimConfig &config);
    ~GpuSystem();

    GpuSystem(const GpuSystem &) = delete;
    GpuSystem &operator=(const GpuSystem &) = delete;

    /**
     * Assign the kernel sequence of application @p app. Kernels run
     * back to back; each boundary flushes the L1s (software
     * coherence) and notifies the adaptive controller (Rule #3).
     * Wraps the list into a StaticProgram -- bit-identical to the
     * former fixed-list path.
     */
    void setWorkload(AppId app, std::vector<KernelInfo> kernels);

    /**
     * Assign the workload program of application @p app (nullptr =
     * no work). Kernel management pulls phases from the program
     * whenever the app is idle; a waiting program's next-arrival
     * cycle clamps the event-mode jumps, so dynamic (request-driven)
     * programs stay bit-identical between tick and event drivers.
     */
    void setProgram(AppId app, std::unique_ptr<WorkloadProgram> prog);

    /** Program of application @p app; nullptr if none assigned. */
    WorkloadProgram *
    program(AppId app)
    {
        return app < programs_.size() ? programs_[app].get() : nullptr;
    }

    /**
     * Run until all applications finish their kernels, maxCycles
     * elapse, or maxInstructions retire.
     */
    RunResult run();

    /** Advance exactly @p n cycles (incremental use in tests). */
    void step(Cycle n);

    /** Assemble metrics for the work so far. */
    RunResult collect() const;

    // ---- component access (tests, post hooks) ---------------------
    const SimConfig &config() const { return config_; }
    Network &network() { return *net_; }
    LlcSystem &llc() { return *llc_; }
    const LlcSystem &llc() const { return *llc_; }
    MemorySystem &memory() { return *mem_; }
    Sm &sm(SmId id) { return *sms_[id]; }
    std::uint32_t numSms() const
    {
        return static_cast<std::uint32_t>(sms_.size());
    }
    Cycle now() const { return now_; }

    /** SMs (cluster-major) belonging to application @p app. */
    const std::vector<SmId> &smsOfApp(AppId app) const
    {
        return appSms_[app];
    }

    /** Application owning SM @p sm. */
    AppId appOf(SmId sm) const { return smApp_[sm]; }

    /** Total instructions retired so far (running counter, O(1)). */
    std::uint64_t totalInstructions() const { return instrRetired_; }

    /**
     * Earliest cycle >= now() at which any component's tick() is
     * not a no-op beyond the compensated per-cycle counters: the
     * global minimum over the LLC (slices + controller FSM), DRAM,
     * NoC and every SM. This is the sim_mode=event jump target; it
     * is exposed publicly so the event-contract tests can assert
     * that no component mutates observable state at a cycle the
     * minimum skipped (tests/test_event_core.cc).
     */
    Cycle eventNextCycle() const;

    /**
     * Multi-cycle clock jumps taken so far by the sim_mode=event
     * driver (always 0 under tick) and the total number of no-op
     * ticks they elided. Wall-clock diagnostics only: neither
     * value enters RunResult or the checkpoint payload, so they never
     * perturb bit-exactness -- but a flit NoC whose nextEventCycle()
     * degenerates to `now + 1` shows up as zero jumps on an
     * idle-heavy run, which tests/test_event_core.cc pins.
     */
    std::uint64_t eventJumps() const { return jumpCount_; }
    Cycle jumpedCycles() const { return jumpedCycles_; }

    /** Periodic pull-only observer (obs/recorder.hh). */
    using CycleObserver = std::function<void(Cycle now)>;

    /**
     * Call @p obs every @p period cycles (after the tick completes),
     * for counter sampling and stats-window streaming. Pass a null
     * observer (or period 0) to disable. The observer must only read;
     * with it disabled the hot-path cost is a single compare against
     * kNoCycle. Samples land exactly on the period grid under both
     * drivers: event-mode jumps stop one cycle short of each grid
     * point and tick onto it.
     */
    void setCycleObserver(Cycle period, CycleObserver obs);

    /** Register all statistics into @p set. */
    void registerStats(StatSet &set) const;

    /**
     * Serialize the complete simulation state -- clocks, kernel
     * bookkeeping, every SM (warps, generators, L1, MSHRs), NoC,
     * DRAM and the adaptive LLC -- into the framed container of
     * sim/checkpoint.hh. Throws SimError if the workload is not
     * checkpointable (trace recording) and IoError on stream
     * failure. Restoring the bytes and running to completion is
     * bit-identical to the unbroken run.
     */
    void checkpoint(std::ostream &os) const;

    /**
     * Restore state written by checkpoint(). The receiving system
     * must be constructed with an identical SimConfig (up to the
     * identity-excluded keys; sim/checkpoint.hh) and the identical
     * setWorkload() calls must have been applied first -- warp
     * generators are recreated through the workload's factories.
     * Throws FormatError (with byte offset) on any mismatch or
     * corruption; the system is not usable after a failed restore.
     */
    void restore(std::istream &is);

  private:
    /** Serialize the checkpoint payload (unframed). */
    void savePayload(CkptWriter &w) const;

    /** Atomically (over)write config_.checkpointPath. */
    void writeCheckpointFile() const;

    /** Kernel currently (or last) launched for @p app; nullptr if
     *  none was launched yet. */
    const KernelInfo *activeKernelOf(AppId app) const;

    void tickOnce();
    void manageKernels();
    void launchKernel(AppId app, const KernelInfo &kernel);
    bool allWorkDone() const;

    /**
     * sim_mode=event core: jump now_ to the earliest component
     * event, compensating every per-cycle counter for the skipped
     * no-op ticks and landing on (one cycle before) each observer,
     * checkpoint and instruction-budget grid point the tick loop
     * would honor, so both modes emit byte-identical streams.
     */
    void jumpToNextEvent();

    SimConfig config_;
    std::unique_ptr<AddressMapping> mapping_;
    std::unique_ptr<Network> net_;
    std::unique_ptr<MemorySystem> mem_;
    std::unique_ptr<LlcSystem> llc_;
    std::vector<std::unique_ptr<Sm>> sms_;
    std::vector<AppId> smApp_;
    /** Per-app SM lists (cluster-major), built once at construction. */
    std::vector<std::vector<SmId>> appSms_;

    /** Workload programs per application (nullptr = no work). */
    std::vector<std::unique_ptr<WorkloadProgram>> programs_;
    /** A kernel of the app is launched on its SMs. */
    std::vector<bool> appRunning_;
    /** App no longer counts toward unfinishedApps_. */
    std::vector<bool> appRetired_;
    /** App has launched at least one kernel (boundary-flush gate). */
    std::vector<bool> launchedEver_;
    /** Earliest pending program arrival; kNoCycle = none waiting. */
    Cycle programWakeAt_ = kNoCycle;

    Cycle now_ = 0;
    /** run() has performed its initial kernel launches (serialized:
     *  a restored run must not relaunch before the first tick). */
    bool started_ = false;
    /** Next periodic-checkpoint grid point; kNoCycle = off. */
    Cycle nextCkptAt_ = kNoCycle;
    /** Diagnostic jump counters (see eventJumps()); not serialized. */
    std::uint64_t jumpCount_ = 0;
    Cycle jumpedCycles_ = 0;
    /** Kernel state changed; manageKernels() must run this cycle. */
    bool manageDirty_ = true;
    /** Apps that still have kernels to launch or finish. */
    std::uint32_t unfinishedApps_ = 0;
    /** Running whole-GPU retirement counter (fed by the SMs). */
    std::uint64_t instrRetired_ = 0;

    /** Next cycle-observer firing; kNoCycle = observer disabled. */
    Cycle nextObsAt_ = kNoCycle;
    Cycle obsPeriod_ = 0;
    CycleObserver cycleObs_;
};

} // namespace amsc

#endif // AMSC_SIM_GPU_SYSTEM_HH
