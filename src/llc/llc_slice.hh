/**
 * @file
 * One memory-side LLC slice (Table 1: 96 KB, 16-way, LRU, 8 per MC).
 *
 * Timing model: the slice accepts at most one request per cycle from
 * its network ejection queue (the tag pipeline), serves hits after a
 * fixed tag/data latency, and tracks misses in MSHRs that merge
 * same-line requests. Misses go to the slice's memory controller;
 * fills generate one reply per merged target. Replies inject into the
 * reply network at one message per cycle -- this 1-reply/cycle port is
 * the per-slice bandwidth whose saturation on hot shared lines is the
 * paper's central bottleneck.
 *
 * The write policy is dynamic (paper section 4.1): write-back while
 * the owning application runs a shared LLC, write-through when it
 * runs a private LLC (software coherence). Both are no-write-allocate.
 */

#ifndef AMSC_LLC_LLC_SLICE_HH
#define AMSC_LLC_LLC_SLICE_HH

#include <cstdint>
#include <functional>
#include <optional>

#include "cache/mshr.hh"
#include "cache/tag_array.hh"
#include "common/delay_queue.hh"
#include "common/ring.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/memory_system.hh"
#include "noc/network.hh"

namespace amsc
{

/** LLC slice structural parameters. */
struct LlcSliceParams
{
    SliceId id = 0;
    McId mc = 0;
    std::uint32_t numSets = 48;
    std::uint32_t assoc = 16;
    ReplPolicy repl = ReplPolicy::Lru;
    /** Fill-bypass policy (docs/DESIGN.md). */
    BypassPolicy bypass = BypassPolicy::None;
    /** DRRIP leader sets per constituency. */
    std::uint32_t duelSets = 4;
    /**
     * Per-application bypass eligibility (1 = may bypass); empty =
     * every app follows the bypass policy. Lets multi-program runs
     * enable the streaming bypass for one co-runner only.
     */
    std::vector<std::uint8_t> bypassApp{};
    /** Tag + data access latency for hits (slice-local part). */
    std::uint32_t hitLatency = 30;
    /** Latency from tag miss to the DRAM queue. */
    std::uint32_t missLatency = 10;
    std::uint32_t mshrs = 64;
    std::uint32_t mshrTargets = 16;
    PacketFormat packet{};
    std::uint64_t seed = 1;
};

/** Per-slice statistics. */
struct LlcSliceStats
{
    std::uint64_t reads = 0;
    std::uint64_t readHits = 0;
    /** Subset of readHits served by merging into an in-flight miss. */
    std::uint64_t readMergedHits = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writes = 0;
    std::uint64_t writeHits = 0;
    /** Global atomic operations executed at this slice (ROP). */
    std::uint64_t atomics = 0;
    std::uint64_t responses = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t stallCycles = 0;
    /** Fills dropped by the bypass policy (no-allocate). */
    std::uint64_t bypasses = 0;

    std::uint64_t accesses() const { return reads + writes; }
    double
    readMissRate() const
    {
        return reads == 0 ? 0.0
                          : static_cast<double>(readMisses) /
                static_cast<double>(reads);
    }
};

/**
 * Observer invoked for every request processed by a slice (profiler
 * and sharing-tracker hook).
 */
using SliceAccessObserver = std::function<void(
    SliceId slice, Addr line_addr, SmId src, bool read_hit, bool is_read,
    Cycle now)>;

/** One memory-side LLC slice. */
class LlcSlice
{
  public:
    /** Maps an SM to its application (write-policy selection). */
    using AppOfFn = std::function<AppId(SmId)>;
    /** True if @p app currently runs the LLC write-through. */
    using WriteThroughFn = std::function<bool(AppId)>;

    LlcSlice(const LlcSliceParams &params, Network *net,
             MemorySystem *mem, AppOfFn app_of,
             WriteThroughFn write_through);

    /** Attach the profiler/tracker observer (may be empty). */
    void setObserver(SliceAccessObserver obs) { observer_ = std::move(obs); }

    /** Advance one cycle. */
    void tick(Cycle now);

    /** DRAM read completion for @p line_addr (routed by the system). */
    void onDramReply(Addr line_addr, Cycle now);

    /**
     * Queue a full write-back pass of all dirty lines (reconfiguration
     * shared -> private). Completion is visible via drained().
     */
    void startWritebackAll(Cycle now);

    /** Drop all lines (private -> shared transition, kernel flush). */
    void invalidateAll();

    /** True when no request, miss, reply or writeback is in flight. */
    bool drained() const;

    /**
     * Earliest cycle >= @p now whose tick() is not a no-op. A
     * stalled request (its retry touches tag recency), a pending
     * write-back and a waiting network request (both probe
     * reject-counting canAccept paths) pin the slice to `now`;
     * otherwise the delay queues' front ready cycles are exact.
     * kNoCycle when fully drained with nothing queued in the NoC.
     */
    Cycle nextEventCycle(Cycle now) const;

    const LlcSliceStats &stats() const { return stats_; }
    void clearStats() { stats_ = LlcSliceStats{}; }
    SliceId id() const { return params_.id; }
    const LlcSliceParams &params() const { return params_; }
    const TagArray &tags() const { return tags_; }

    /** Register per-slice statistics in @p set. */
    void registerStats(StatSet &set) const;

    /**
     * Serialize tags, MSHRs, the stalled request, the miss/reply/
     * write-back queues and statistics.
     */
    void saveCkpt(CkptWriter &w) const;

    /** Restore state written by saveCkpt(). */
    void loadCkpt(CkptReader &r);

  private:
    /**
     * Pending read target: requesting SM (+ atomic flag). Trivially
     * constructible, so the MSHR target table is not initialized.
     */
    struct ReadTarget
    {
        SmId sm;
        bool atomic;
    };

    friend void ckptValue(CkptWriter &w, const ReadTarget &t);
    friend void ckptValue(CkptReader &r, ReadTarget &t);

    /** Handle one incoming request; @return false to retry later. */
    bool process(const NocMessage &msg, Cycle now);

    /** Queue a read reply towards @p sm. */
    void queueReply(Addr line_addr, SmId sm, Cycle now, Cycle latency,
                    bool atomic = false);

    /**
     * Install a fill, possibly generating a write-back. @p src is the
     * SM whose primary miss fetched the line (bypass-policy context);
     * fills from bypass-eligible sources may be dropped instead.
     */
    void fillLine(Addr line_addr, Cycle now, SmId src);

    /** True if @p src's application may bypass fills at all. */
    bool bypassEligible(SmId src) const;

    LlcSliceParams params_;
    Network *net_;
    MemorySystem *mem_;
    AppOfFn appOf_;
    WriteThroughFn writeThrough_;
    SliceAccessObserver observer_;

    TagArray tags_;
    MshrFile<ReadTarget> mshrs_;

    /*
     * The miss, reply and write-back queues have no structural bound
     * (DRAM and reply-network backpressure let them back up), so they
     * start empty and double when full: they stop allocating at their
     * high-water mark without pinning a worst-case reservation.
     */

    /** Request that could not complete (resource stall). */
    std::optional<NocMessage> stalledReq_;
    /** Misses waiting out the miss latency before the DRAM queue. */
    DelayQueue<std::pair<Addr, bool>> missQueue_;
    /** Replies waiting out the hit/fill latency before injection. */
    DelayQueue<NocMessage> replyQueue_;
    /** Write-backs (dirty evictions + flush passes) towards DRAM. */
    Ring<Addr> writebackQueue_;

    LlcSliceStats stats_;
};

/*
 * ReadTarget has tail padding after the bool, so raw pod()
 * serialization would leak indeterminate bytes into checkpoints;
 * encode field-wise.
 */
inline void
ckptValue(CkptWriter &w, const LlcSlice::ReadTarget &t)
{
    ckptFields(w, t.sm, t.atomic);
}

inline void
ckptValue(CkptReader &r, LlcSlice::ReadTarget &t)
{
    ckptFields(r, t.sm, t.atomic);
}

} // namespace amsc

#endif // AMSC_LLC_LLC_SLICE_HH
