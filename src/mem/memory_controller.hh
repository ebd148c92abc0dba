/**
 * @file
 * DRAM memory controller for one memory partition.
 *
 * Requests wait in a bounded queue. Each cycle the controller asks
 * its scheduling policy (mem/mem_scheduler.hh; Table 1 default:
 * FR-FCFS) for at most one request to issue, then computes a legal
 * command schedule for it:
 *
 *  - bank-local constraints (tRC/tRAS/tRP/tRCD/tCCD, and tWR gating
 *    precharge) live in DramBank;
 *  - controller-scope constraints are folded in as lower bounds:
 *    tRRD and the tFAW four-activate window over all banks, tWTR
 *    write-to-read turnaround on the shared data bus, tCCD_L/tCCD_S
 *    bank-group column spacing (when bankGroups > 1), and all-bank
 *    refresh every tREFI that closes rows and blocks the banks for
 *    tRFC;
 *  - data transfers serialize on the per-MC data bus; reads occupy
 *    it tCL after the column command, writes tCWL after.
 *
 * Refresh is charged only while the controller has work queued or in
 * flight: an idle-period refresh would delay nothing the model
 * observes, and skipping it keeps the event-mode jumps bit-exact
 * (tests/test_event_core.cc).
 *
 * Read completions are announced through a callback; writes complete
 * silently (the LLC is the point of write acknowledgment). An
 * optional command observer receives every ACT/RD/WR/REF with its
 * schedule, feeding the timing-legality property tests
 * (tests/test_mem_policy.cc).
 */

#ifndef AMSC_MEM_MEMORY_CONTROLLER_HH
#define AMSC_MEM_MEMORY_CONTROLLER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/dram_bank.hh"
#include "mem/dram_timing.hh"
#include "mem/mem_scheduler.hh"

namespace amsc
{

/** Statistics of one memory controller. */
struct McStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t busBusyCycles = 0;
    /** Requests refused by canAccept() (LLC backpressure cycles). */
    std::uint64_t queueFullRejects = 0;
    std::uint64_t totalReadLatency = 0;
    /** All-bank refreshes performed. */
    std::uint64_t refreshes = 0;
    /** Times the write-drain scheduler entered drain mode. */
    std::uint64_t writeDrainEntries = 0;

    double
    rowHitRate() const
    {
        const std::uint64_t t = rowHits + rowMisses;
        return t == 0 ? 0.0
                      : static_cast<double>(rowHits) /
                static_cast<double>(t);
    }
    double
    avgReadLatency() const
    {
        return reads == 0 ? 0.0
                          : static_cast<double>(totalReadLatency) /
                static_cast<double>(reads);
    }
};

/** One scheduled DRAM command (test/debug observer record). */
struct McCommand
{
    enum class Kind : std::uint8_t
    {
        Activate,
        Read,
        Write,
        Refresh,
    };

    Kind kind = Kind::Activate;
    std::uint32_t bank = 0;
    std::uint64_t row = 0;
    /** ACT / column-command / refresh-start cycle. */
    Cycle at = 0;
    /** Data-burst interval on the shared bus (column commands only). */
    Cycle dataStart = 0;
    Cycle dataEnd = 0;
};

/** Memory controller for one memory partition. */
class MemoryController
{
  public:
    /** Callback type for read completions. */
    using ReadCallback =
        std::function<void(const DramRequest &, Cycle)>;
    /** Callback type for the command-schedule observer. */
    using CommandObserver = std::function<void(const McCommand &)>;

    /**
     * @param mc_id   partition id (stats/debug only).
     * @param params  structural and timing parameters.
     * @param sched   scheduling policy (Table 1 default: FR-FCFS).
     */
    MemoryController(McId mc_id, const DramParams &params,
                     MemSched sched = MemSched::FrFcfs);

    /** Set the read-completion callback (sim glue). */
    void setReadCallback(ReadCallback cb) { readCb_ = std::move(cb); }

    /** Set the per-command observer (tests; nullptr to clear). */
    void
    setCommandObserver(CommandObserver cb)
    {
        cmdObserver_ = std::move(cb);
    }

    /** @return true if another request can be enqueued. */
    bool canAccept() const { return queue_.size() < params_.queueCapacity; }

    /** Record a request refused because the queue was full. */
    void noteQueueFullReject() { ++stats_.queueFullRejects; }

    /**
     * Enqueue a request.
     * @pre canAccept().
     */
    void enqueue(DramRequest req, Cycle now);

    /**
     * Advance one cycle: fire due completions, perform a pending
     * refresh, and issue at most one request per the scheduler.
     */
    void tick(Cycle now);

    /** @return number of requests waiting or in flight. */
    std::size_t
    pendingRequests() const
    {
        return queue_.size() + inFlight_.size();
    }

    /** True when no request is queued or in flight. */
    bool drained() const { return pendingRequests() == 0; }

    /**
     * Earliest cycle >= @p now whose tick() is not a no-op. A
     * non-empty queue pins the controller to `now` (the scheduler
     * re-evaluates, and mutates its drain state, every cycle); with
     * only in-flight requests the earliest completion -- bounded by
     * the next due refresh -- is exact; kNoCycle when drained.
     */
    Cycle
    nextEventCycle(Cycle now) const
    {
        if (!queue_.empty())
            return now;
        if (inFlight_.empty())
            return kNoCycle;
        const Cycle refi = params_.timings.tREFI;
        if (refi != 0 && now >= nextRefreshAt_)
            return now;
        Cycle e = kNoCycle;
        for (const InFlight &f : inFlight_) {
            if (f.completeAt < e)
                e = f.completeAt;
        }
        if (refi != 0 && nextRefreshAt_ < e)
            e = nextRefreshAt_;
        return e > now ? e : now;
    }

    const McStats &stats() const { return stats_; }
    void clearStats() { stats_ = McStats{}; }
    McId id() const { return id_; }
    const DramParams &params() const { return params_; }
    MemSched sched() const { return schedKind_; }
    const DramBank &bank(std::uint32_t b) const { return banks_[b]; }

    /** Register statistics in @p set. */
    void registerStats(StatSet &set) const;

    /**
     * Serialize queue, in-flight completions, bank state machines,
     * controller-scope timing windows, scheduler state and stats.
     */
    void saveCkpt(CkptWriter &w) const;

    /** Restore state written by saveCkpt(). */
    void loadCkpt(CkptReader &r);

  private:
    struct InFlight
    {
        DramRequest req;
        Cycle completeAt;
    };

    /** Commit @p req: bank schedule, bus transfer, in-flight entry. */
    void issue(const DramRequest &req, Cycle now);

    /** Earliest legal ACT cycle given tRRD and the tFAW window. */
    Cycle actEarliest() const;

    /** Record one ACT at @p at in the activation window. */
    void recordActivate(Cycle at);

    /**
     * Refresh due and not yet performed? While true, no request may
     * issue (refresh would otherwise starve under row-hit streaks).
     */
    bool refreshPending(Cycle now) const;

    void observe(const McCommand &cmd) const
    {
        if (cmdObserver_)
            cmdObserver_(cmd);
    }

    McId id_;
    DramParams params_;
    MemSched schedKind_;
    std::unique_ptr<MemSchedulerPolicy> sched_;
    std::vector<DramBank> banks_;
    std::vector<DramRequest> queue_;
    std::vector<InFlight> inFlight_;
    /** Data bus is occupied until this cycle. */
    Cycle busFreeAt_ = 0;

    // ---- controller-scope timing state ----------------------------
    /** ACT issue cycles, most recent 4 (tFAW ring; pos_ = oldest). */
    Cycle actWindow_[4] = {0, 0, 0, 0};
    std::size_t actWindowPos_ = 0;
    /** Total ACTs issued (guards the cold-start window). */
    std::uint64_t actCount_ = 0;
    /** End of the most recent write data burst (tWTR gate). */
    Cycle lastWdataEnd_ = 0;
    bool anyWrite_ = false;
    /** Most recent column command, any group (tCCD_S gate). */
    Cycle lastColAt_ = 0;
    /** Most recent column command per bank group (tCCD_L gate). */
    std::vector<Cycle> groupColAt_;
    std::vector<std::uint8_t> groupColValid_;
    bool anyCol_ = false;
    /** Next refresh due at this cycle (tREFI; 0 disables). */
    Cycle nextRefreshAt_ = 0;

    ReadCallback readCb_;
    CommandObserver cmdObserver_;
    McStats stats_;
};

} // namespace amsc

#endif // AMSC_MEM_MEMORY_CONTROLLER_HH
