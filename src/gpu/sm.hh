/**
 * @file
 * Streaming multiprocessor (SM) timing model.
 *
 * Models what matters to the paper's mechanism: warps alternating
 * compute and memory phases, two greedy-then-oldest (GTO) warp
 * schedulers issuing one instruction per cycle each, a write-through
 * no-allocate L1 data cache with MSHR merging, bounded outstanding
 * misses, and CTA-granular work assignment. Compute is abstracted as
 * single-cycle instructions; memory behaviour is produced by the
 * workload's WarpTraceGen.
 *
 * The SM interacts with the rest of the GPU through:
 *   - a Network pointer for request injection,
 *   - a slice-mapping callback (the adaptive LLC decides whether the
 *     target slice follows the address hash or the cluster id),
 *   - onReply() invoked by the system for each delivered reply.
 */

#ifndef AMSC_GPU_SM_HH
#define AMSC_GPU_SM_HH

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <functional>
#include <memory>
#include <vector>

#include "cache/cache_model.hh"
#include "cache/mshr.hh"
#include "common/delay_queue.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "gpu/trace.hh"
#include "noc/network.hh"

namespace amsc
{

/** SM structural parameters (Table 1 defaults). */
struct SmParams
{
    SmId id = 0;
    ClusterId cluster = 0;
    /** Warp schedulers per SM (Table 1: 2, GTO). */
    std::uint32_t numSchedulers = 2;
    /** Concurrent CTAs resident on the SM. */
    std::uint32_t maxResidentCtas = 4;
    /** Resident warp contexts (Table 1: 2048 threads = 64 warps). */
    std::uint32_t maxResidentWarps = 64;
    /** L1 data cache geometry (Table 1: 48 KB, 6-way, 128 B). */
    CacheParams l1{};
    /** L1 hit latency in cycles. */
    std::uint32_t l1Latency = 28;
    /** L1 MSHR entries. */
    std::uint32_t l1Mshrs = 32;
    /** Merged targets per MSHR entry. */
    std::uint32_t l1MshrTargets = 8;
    /** Packet sizing for generated traffic. */
    PacketFormat packet{};
};

/** Aggregate SM statistics. */
struct SmStats
{
    std::uint64_t instructions = 0;
    std::uint64_t computeInstrs = 0;
    std::uint64_t memInstrs = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t atomics = 0;
    std::uint64_t issueStallCycles = 0;
    std::uint64_t mshrStalls = 0;
    std::uint64_t injectStalls = 0;
    std::uint64_t ctasCompleted = 0;
};

/** One streaming multiprocessor. */
class Sm
{
  public:
    /** Maps a line address to the target global LLC slice. */
    using SliceFn = std::function<SliceId(Addr line_addr)>;

    Sm(const SmParams &params, Network *net, SliceFn slice_for);

    /**
     * Launch (part of) a kernel on this SM.
     *
     * @param kernel kernel descriptor (owned by caller, must outlive
     *               execution).
     * @param ctas   CTA ids this SM must run, in execution order.
     */
    void launchKernel(const KernelInfo *kernel,
                      std::vector<CtaId> ctas, Cycle now);

    /** Advance one cycle. */
    void tick(Cycle now);

    /** Deliver one read reply (token = line address). */
    void onReply(const NocMessage &msg, Cycle now);

    /** True when all assigned CTAs have completed. */
    bool done() const;

    /**
     * Invoked once per launched kernel when the SM finishes its last
     * CTA (event-driven kernel management in GpuSystem).
     */
    void setDoneCallback(std::function<void()> cb)
    {
        doneCb_ = std::move(cb);
    }

    /**
     * Mirror every instruction retirement into @p counter (running
     * whole-GPU total; avoids the per-cycle all-SM stats scan).
     */
    void setRetiredCounter(std::uint64_t *counter)
    {
        retiredCounter_ = counter;
    }

    /**
     * Earliest cycle >= @p now whose tick() is not a no-op beyond
     * the per-cycle counters advanceIdleCycles() compensates: `now`
     * while a scheduler could issue, the first hit-queue completion
     * while issue-starved or stalled, kNoCycle when nothing can
     * happen without external input (a reply or an unstall).
     */
    Cycle
    nextEventCycle(Cycle now) const
    {
        if (!stalled_ && issueCandidates_ > 0)
            return now;
        if (!hitQueue_.empty()) {
            const Cycle e = hitQueue_.frontReadyCycle();
            return e > now ? e : now;
        }
        return kNoCycle;
    }

    /**
     * Account @p n externally skipped idle cycles (sim_mode=event):
     * tick() counts each as an issue stall while unfinished warps
     * exist but none is in an issueable state and the SM is not
     * reconfiguration-stalled (a stalled tick returns uncounted).
     */
    void
    advanceIdleCycles(Cycle n)
    {
        if (!stalled_ && issueCandidates_ == 0 && !done())
            stats_.issueStallCycles += n;
    }

    /** Stall/unstall instruction issue (LLC reconfiguration). */
    void setStalled(bool stalled) { stalled_ = stalled; }

    /** True when no L1 miss or atomic is outstanding. */
    bool
    quiescentMemory() const
    {
        return mshrs_.numActiveEntries() == 0 &&
            atomicPending_.empty();
    }

    /** Invalidate the L1 (software coherence at kernel boundaries). */
    void flushL1() { l1_.invalidateAll(); }

    const SmStats &stats() const { return stats_; }
    const CacheModel &l1() const { return l1_; }
    SmId id() const { return params_.id; }
    ClusterId cluster() const { return params_.cluster; }
    const SmParams &params() const { return params_; }

    /** Register per-SM statistics in @p set. */
    void registerStats(StatSet &set) const;

    /**
     * Serialize the L1, MSHRs, every warp context (including its
     * generator position) and the scheduler state.
     */
    void saveCkpt(CkptWriter &w) const;

    /**
     * Restore state written by saveCkpt(). @p kernel must be the
     * KernelInfo that was live at save time (or nullptr if none was):
     * warp generators are recreated through its factory before their
     * positions are restored.
     */
    void loadCkpt(CkptReader &r, const KernelInfo *kernel);

  private:
    /** Warp execution state. */
    enum class WarpState : std::uint8_t
    {
        Inactive,
        Compute,
        IssueMem,
        WaitMem,
        Done,
    };

    struct Warp
    {
        WarpState state = WarpState::Inactive;
        std::unique_ptr<WarpTraceGen> gen;
        WarpInstr cur{};
        std::uint32_t computeLeft = 0;
        std::uint32_t nextAccess = 0;
        std::uint32_t outstanding = 0;
        std::uint64_t age = 0;
        CtaId cta = 0;
        /** Warp index within the CTA (gen recreation on restore). */
        std::uint32_t warpInCta = 0;
    };

    /** @return true if state @p s competes for issue slots. */
    static bool countsIssue(WarpState s)
    {
        return s == WarpState::Compute || s == WarpState::IssueMem;
    }

    /** Transition @p w to @p s, maintaining issueCandidates_. */
    void setWarpState(Warp &w, WarpState s)
    {
        issueCandidates_ +=
            static_cast<int>(countsIssue(s)) -
            static_cast<int>(countsIssue(w.state));
        w.state = s;
    }

    /** Try to activate pending CTAs into free warp slots. */
    void activateCtas(Cycle now);

    /** Load the next instruction batch into warp @p w. */
    void advanceWarp(Warp &w, Cycle now);

    /** Called when one line access of a warp completes. */
    void completeAccess(std::uint32_t slot, Cycle now);

    /** Retire the current memory instruction of warp @p w if done. */
    void maybeRetireMem(std::uint32_t slot, Cycle now);

    /** @return true if warp @p w can issue this cycle. */
    bool issueable(const Warp &w) const;

    /** Issue one instruction from warp slot @p slot. */
    void issueFrom(std::uint32_t slot, Cycle now);

    /** Handle one CTA's warp finishing. */
    void onWarpDone(Warp &w, Cycle now);

    SmParams params_;
    Network *net_;
    SliceFn sliceFor_;
    CacheModel l1_;
    MshrFile<std::uint32_t> mshrs_; ///< targets are warp slots

    std::vector<Warp> warps_;
    std::vector<std::uint32_t> freeSlots_;
    const KernelInfo *kernel_ = nullptr;
    std::deque<CtaId> pendingCtas_;
    /** Outstanding warps per active CTA id. */
    std::vector<std::pair<CtaId, std::uint32_t>> activeCtaWarps_;

    /**
     * L1 hit completions in flight (payload = warp slot). One load
     * uses the L1 port per cycle and each hit waits out l1Latency, so
     * l1Latency + 1 slots bound it.
     */
    DelayQueue<std::uint32_t> hitQueue_;
    /** Outstanding atomics: line -> warp slot (no merging: each
     *  read-modify-write gets its own reply). */
    std::unordered_multimap<Addr, std::uint32_t> atomicPending_;

    /** Per-scheduler GTO state: current greedy warp slot. */
    std::vector<std::uint32_t> gtoCurrent_;
    /** Memory issue port: one L1 access per cycle. */
    bool memPortBusyThisCycle_ = false;

    bool stalled_ = false;
    std::uint64_t warpAgeCounter_ = 0;
    /** Warps in Compute/IssueMem state (scheduler fast-path gate). */
    std::uint32_t issueCandidates_ = 0;
    std::function<void()> doneCb_;
    std::uint64_t *retiredCounter_ = nullptr;
    SmStats stats_;
};

} // namespace amsc

#endif // AMSC_GPU_SM_HH
