/**
 * @file
 * The adaptive memory-side LLC (paper section 4).
 *
 * LlcSystem owns the 64 slices, the shared/private slice mapper, the
 * online profiler, the Fig-3 sharing tracker and the adaptive
 * controller state machine implementing the paper's reconfiguration
 * rules:
 *
 *   Rule #1 (S->P): switch to private if the predicted private miss
 *       rate is within `missTolerance` of the measured shared rate
 *       (insensitive application; private enables MC-router gating).
 *   Rule #2 (S->P): switch to private if the bandwidth model predicts
 *       higher supplied bandwidth under private caching.
 *   Rule #3 (P->S): revert to shared at each 1 M-cycle epoch boundary
 *       and at every kernel launch.
 *
 * A shared->private transition stalls the SMs, waits for all in-flight
 * packets to drain, writes dirty LLC lines back, power-gates the
 * MC-routers (if the NoC supports it) and flips the mapper; a
 * private->shared transition drains, invalidates (private contents
 * are clean under write-through), powers the routers back on and
 * flips the mapper. All transition cycles are accounted as overhead.
 */

#ifndef AMSC_LLC_LLC_SYSTEM_HH
#define AMSC_LLC_LLC_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "llc/llc_slice.hh"
#include "llc/profiler.hh"
#include "llc/sharing_tracker.hh"
#include "llc/slice_mapper.hh"
#include "mem/memory_system.hh"
#include "noc/network.hh"

namespace amsc
{

/** Per-application LLC management policy. */
enum class LlcPolicy
{
    ForceShared,  ///< baseline: always shared
    ForcePrivate, ///< always private (static private organization)
    Adaptive,     ///< the paper's mechanism
};

/** Parse a policy name ("shared" | "private" | "adaptive"). */
LlcPolicy parseLlcPolicy(const std::string &name);

/** Policy display name. */
std::string llcPolicyName(LlcPolicy p);

/** Adaptive LLC parameters. */
struct LlcParams
{
    /** Policy per application (size = number of apps, >= 1). */
    std::vector<LlcPolicy> appPolicies{LlcPolicy::Adaptive};
    /** Slice template (id/mc filled per slice). */
    LlcSliceParams slice{};
    /** Profiling window length (paper: 50 K cycles). */
    Cycle profileLen = 50000;
    /** Epoch length (paper: 1 M cycles). */
    Cycle epochLen = 1000000;
    /** Rule #1 miss-rate tolerance (paper: 2%). */
    double missTolerance = 0.02;
    /**
     * Rule #2 hysteresis: the predicted private bandwidth must exceed
     * the shared bandwidth by this factor before a transition is
     * worth its reconfiguration cost and estimator noise.
     */
    double bwMargin = 1.15;
    /** Power-gate / power-on latency (paper: tens of cycles). */
    Cycle gateDelay = 30;
    /** Profiler configuration. */
    ProfilerParams profiler{};
    /** Enable the Fig-3 sharing tracker. */
    bool trackSharing = false;
};

/** Controller statistics. */
struct LlcSystemStats
{
    std::uint64_t profileWindows = 0;
    std::uint64_t decisionsPrivate = 0;
    std::uint64_t decisionsShared = 0;
    std::uint64_t rule1Fires = 0;
    std::uint64_t rule2Fires = 0;
    /** Decisions forced to shared because atomics were observed. */
    std::uint64_t atomicVetoes = 0;
    std::uint64_t transitionsToPrivate = 0;
    std::uint64_t transitionsToShared = 0;
    std::uint64_t reconfigStallCycles = 0;
    std::uint64_t cyclesPrivate = 0;
    std::uint64_t cyclesShared = 0;
};

/**
 * One controller event for timeline observers (obs/recorder.hh).
 *
 * Phase events announce every FSM state entry; Decision events carry
 * the end-of-window Rule #1/#2 evaluation together with the profile
 * snapshot (the ATD private-miss-rate estimate and the LSP/bandwidth
 * model outputs) that drove it; Reprofile events mark the Rule #3
 * private-to-shared triggers. Emitted only when an observer is
 * installed -- the stream is read-only and never alters control flow.
 */
struct LlcCtrlEvent
{
    enum class Kind : std::uint8_t
    {
        Phase,     ///< FSM entered a new state
        Decision,  ///< end-of-window Rule #1/#2 evaluation
        Reprofile, ///< Rule #3 trigger (epoch/kernel/atomic)
    };

    Kind kind = Kind::Phase;
    Cycle at = 0;
    /** Phase: state just entered (static-storage name). */
    const char *phase = "";
    /** Decision: firing rule (0 = stay shared, 1, 2); Reprofile: 3. */
    int rule = 0;
    /** Decision outcome: switch to private. */
    bool toPrivate = false;
    /** Forced shared by observed global atomics. */
    bool atomicVeto = false;
    /** Reprofile trigger ("epoch-end" | "kernel-launch" | "atomic"). */
    const char *reason = "";
    /** Decision: the estimates behind rule/toPrivate. */
    ProfileSnapshot snap{};
};

/** The adaptive memory-side last-level cache. */
class LlcSystem
{
  public:
    /** Stalls/unstalls all SMs (wired by the GPU system). */
    using StallFn = std::function<void(bool)>;
    /** Controller event observer (timeline sinks). */
    using EventObserver = std::function<void(const LlcCtrlEvent &)>;
    /** True when NoC + DRAM hold no in-flight work. */
    using QuiescentFn = std::function<bool()>;
    /** Maps an SM to its application id. */
    using AppOfFn = std::function<AppId(SmId)>;
    /** Maps an SM to its cluster id. */
    using ClusterOfFn = std::function<ClusterId(SmId)>;

    LlcSystem(const LlcParams &params, const AddressMapping &mapping,
              Network *net, MemorySystem *mem, AppOfFn app_of,
              ClusterOfFn cluster_of);

    /** Wire the reconfiguration hooks. */
    void setHooks(StallFn stall, QuiescentFn quiescent);

    /**
     * Install the controller event observer (nullptr clears). The
     * observer must not touch the simulation: it receives Phase,
     * Decision and Reprofile records (LlcCtrlEvent) as they happen.
     */
    void setEventObserver(EventObserver obs);

    /** Display name of the controller's current FSM state. */
    const char *phaseName() const;

    /**
     * Slice selection for a new request; also feeds the LSP counters
     * while a profiling window is open. Called by SMs via the system.
     */
    SliceId sliceFor(Addr line_addr, ClusterId cluster, AppId app);

    /** Advance one cycle (slices + controller FSM). */
    void tick(Cycle now);

    /** Route a DRAM read completion to its slice. */
    void onDramReply(Addr line_addr, std::uint64_t token, Cycle now);

    /**
     * Kernel-boundary notification (Rule #3 + software coherence:
     * the private LLC is flushed together with the L1s).
     */
    void onKernelLaunch(Cycle now);

    /** Current mode of application @p app. */
    LlcMode mode(AppId app = 0) const { return mapper_.mode(app); }

    /** True when all slices are drained. */
    bool drained() const;

    /**
     * Earliest cycle >= @p now whose tick() is not a no-op beyond
     * the per-cycle mode counters advanceIdleCycles() compensates:
     * the minimum over every slice's next event and the controller
     * FSM's next action (profile window marks and deadlines, epoch
     * ends, gate/ungate countdowns, pending reprofiles and atomic
     * vetoes, and `now` in a quiescence-poll state whose condition
     * already holds). The poll states return kNoCycle while their
     * condition is false: the components being waited on then
     * advertise finite events themselves, and the global minimum is
     * recomputed after every live tick.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Account @p n externally skipped idle cycles in the per-cycle
     * mode counters (tick() increments one of them every cycle).
     * Only legal when no slice or FSM event (nextEventCycle()) lies
     * inside the skipped range.
     */
    void
    advanceIdleCycles(Cycle n)
    {
        if (mapper_.mode(adaptiveApp()) == LlcMode::Private)
            stats_.cyclesPrivate += n;
        else
            stats_.cyclesShared += n;
    }

    // ---- aggregate metrics ---------------------------------------
    std::uint64_t totalAtomics() const;
    std::uint64_t totalBypasses() const;
    std::uint64_t totalReads() const;
    std::uint64_t totalAccesses() const;
    std::uint64_t totalResponses() const;
    double aggregateReadMissRate() const;

    LlcSlice &slice(SliceId s) { return *slices_[s]; }
    const LlcSlice &slice(SliceId s) const { return *slices_[s]; }
    std::uint32_t numSlices() const
    {
        return static_cast<std::uint32_t>(slices_.size());
    }
    SliceMapper &mapper() { return mapper_; }
    const LlcProfiler &profiler() const { return profiler_; }
    SharingTracker &sharingTracker() { return tracker_; }
    const SharingTracker &sharingTracker() const { return tracker_; }
    const LlcSystemStats &stats() const { return stats_; }
    const LlcParams &params() const { return params_; }
    /** Most recent profile snapshot (after a decision). */
    const ProfileSnapshot &lastSnapshot() const { return lastSnap_; }

    /** Register controller + slice statistics in @p set. */
    void registerStats(StatSet &set) const;

    /**
     * Serialize the controller FSM, mapper, profiler, tracker and
     * every slice. The NoC private-mode/bypass state rides in the
     * Network checkpoint.
     */
    void saveCkpt(CkptWriter &w) const;

    /** Restore state written by saveCkpt(). */
    void loadCkpt(CkptReader &r);

  private:
    /** Controller FSM states. */
    enum class CtrlState
    {
        Disabled,      ///< no adaptive app: static modes only
        Profiling,     ///< shared mode, window open
        SharedRun,     ///< shared mode until epoch end
        DrainToPrivate,///< stalled, waiting for quiescence
        Writeback,     ///< dirty write-back pass
        GateWait,      ///< power-gating the MC-routers
        PrivateRun,    ///< private mode until epoch end / kernel
        DrainToShared, ///< stalled, waiting for quiescence
        UngateWait,    ///< powering the MC-routers back on
    };

    /** True if any app uses the adaptive policy. */
    bool adaptiveEnabled() const;

    /** Controller-FSM part of nextEventCycle(). */
    Cycle nextCtrlEventCycle(Cycle now) const;

    /** Display name of @p s (timeline phase vocabulary). */
    static const char *ctrlStateName(CtrlState s);

    /** Enter @p s and notify the event observer. */
    void setState(CtrlState s, Cycle now);

    /** Emit a Rule #3 Reprofile event (no-op without observer). */
    void notifyReprofile(Cycle now, const char *reason,
                         bool atomic_veto);

    /** The (single) adaptive application id. */
    AppId adaptiveApp() const { return 0; }

    void startEpoch(Cycle now);
    void decide(Cycle now);
    void enterPrivate(Cycle now);
    void enterShared(Cycle now);
    void applyNetworkMode();

    LlcParams params_;
    SliceMapper mapper_;
    Network *net_;
    MemorySystem *mem_;
    AppOfFn appOf_;
    ClusterOfFn clusterOf_;
    LlcProfiler profiler_;
    SharingTracker tracker_;
    std::vector<std::unique_ptr<LlcSlice>> slices_;

    StallFn stall_;
    QuiescentFn quiescent_;
    EventObserver eventObs_;

    CtrlState state_ = CtrlState::Disabled;
    Cycle stateDeadline_ = 0;
    Cycle windowMid_ = 0;
    bool midMarked_ = false;
    Cycle epochEnd_ = 0;
    Cycle stallStart_ = 0;
    bool reprofileRequested_ = false;
    bool profilingActive_ = false;
    /** Atomics seen before the current window / private phase. */
    std::uint64_t atomicsBaseline_ = 0;
    ProfileSnapshot lastSnap_{};
    LlcSystemStats stats_;
};

} // namespace amsc

#endif // AMSC_LLC_LLC_SYSTEM_HH
