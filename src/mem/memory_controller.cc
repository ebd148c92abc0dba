#include "mem/memory_controller.hh"

#include <algorithm>
#include <cassert>

#include "common/log.hh"

namespace amsc
{

MemoryController::MemoryController(McId mc_id, const DramParams &params,
                                   MemSched sched)
    : id_(mc_id), params_(params), schedKind_(sched),
      sched_(MemSchedulerPolicy::create(sched, params.queueCapacity)),
      nextRefreshAt_(params.timings.tREFI)
{
    banks_.reserve(params_.banksPerMc);
    for (std::uint32_t b = 0; b < params_.banksPerMc; ++b)
        banks_.emplace_back(params_.timings);
    queue_.reserve(params_.queueCapacity);
    groupColAt_.assign(params_.bankGroups, 0);
    groupColValid_.assign(params_.bankGroups, 0);
}

void
MemoryController::enqueue(DramRequest req, Cycle now)
{
    if (!canAccept())
        panic("MC%u enqueue beyond capacity", id_);
    if (req.bank >= params_.banksPerMc)
        panic("MC%u request for bank %u of %u", id_, req.bank,
              params_.banksPerMc);
    req.enqueueCycle = now;
    queue_.push_back(req);
}

Cycle
MemoryController::actEarliest() const
{
    Cycle earliest = 0;
    if (actCount_ > 0) {
        // tRRD from the most recent ACT to any bank of this device.
        const std::size_t newest = (actWindowPos_ + 3) % 4;
        earliest = actWindow_[newest] + params_.timings.tRRD;
    }
    if (params_.timings.tFAW != 0 && actCount_ >= 4) {
        // Four-activate window: this (5th-from-oldest) ACT must not
        // start before the oldest of the last 4 plus tFAW.
        const Cycle faw = actWindow_[actWindowPos_] +
            params_.timings.tFAW;
        earliest = std::max(earliest, faw);
    }
    return earliest;
}

void
MemoryController::recordActivate(Cycle at)
{
    actWindow_[actWindowPos_] = at;
    actWindowPos_ = (actWindowPos_ + 1) % 4;
    ++actCount_;
}

bool
MemoryController::refreshPending(Cycle now) const
{
    return params_.timings.tREFI != 0 && now >= nextRefreshAt_ &&
        pendingRequests() > 0;
}

void
MemoryController::tick(Cycle now)
{
    // 1. Fire completed reads (writes complete silently).
    for (std::size_t i = 0; i < inFlight_.size();) {
        if (inFlight_[i].completeAt <= now) {
            const InFlight done = inFlight_[i];
            inFlight_[i] = inFlight_.back();
            inFlight_.pop_back();
            if (!done.req.isWrite) {
                stats_.totalReadLatency +=
                    done.completeAt - done.req.enqueueCycle;
                if (readCb_)
                    readCb_(done.req, now);
            }
        } else {
            ++i;
        }
    }

    // 2. All-bank refresh: once due, block new issues until every
    //    bank's column pipeline is idle, then close all rows and hold
    //    the banks for tRFC. Only charged while work is pending --
    //    idle-period refreshes would delay nothing and skipping them
    //    keeps event-mode jumps bit-exact (see file header).
    if (refreshPending(now)) {
        // The implicit all-bank precharge must itself be legal:
        // tRAS since each open row's activate, write recovery done.
        bool all_ready = true;
        for (const DramBank &b : banks_) {
            if (!b.refreshReady(now)) {
                all_ready = false;
                break;
            }
        }
        if (all_ready) {
            for (DramBank &b : banks_)
                b.refresh(now);
            ++stats_.refreshes;
            McCommand cmd;
            cmd.kind = McCommand::Kind::Refresh;
            cmd.at = now;
            observe(cmd);
            nextRefreshAt_ = now + params_.timings.tREFI;
        }
        return; // nothing issues while a refresh is pending/starting
    }

    // 3. Scheduler pick: at most one request per cycle.
    if (queue_.empty())
        return;
    const std::size_t pick =
        sched_->pick(McPickView{queue_, banks_, now});
    stats_.writeDrainEntries = sched_->drainEntries();
    if (pick == MemSchedulerPolicy::kNoPick)
        return; // nothing issueable this cycle
    assert(pick < queue_.size());

    const DramRequest req = queue_[pick];
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
    issue(req, now);
}

void
MemoryController::issue(const DramRequest &req, Cycle now)
{
    const DramTimings &t = params_.timings;

    BankIssueConstraints c;
    c.actEarliest = actEarliest();
    if (!req.isWrite && anyWrite_) {
        // Write-to-read bus turnaround: the read column command must
        // trail the last write data by tWTR.
        c.colEarliest = lastWdataEnd_ + t.tWTR;
    }
    if (params_.bankGroups > 1 && anyCol_) {
        // Any two column commands are tCCD_S apart; two to the SAME
        // group are tCCD_L apart -- even with other groups' commands
        // in between, so the same-group bound tracks per group.
        const std::uint32_t group = params_.groupOf(req.bank);
        c.colEarliest =
            std::max(c.colEarliest, lastColAt_ + t.tCCD_S);
        if (groupColValid_[group]) {
            c.colEarliest = std::max(
                c.colEarliest, groupColAt_[group] + t.tCCD_L);
        }
    }

    bool rowhit = false;
    Cycle act_at = kNoCycle;
    const Cycle col_at = banks_[req.bank].service(
        req.row, req.isWrite, now, rowhit, c, act_at);
    if (act_at != kNoCycle) {
        recordActivate(act_at);
        McCommand cmd;
        cmd.kind = McCommand::Kind::Activate;
        cmd.bank = req.bank;
        cmd.row = req.row;
        cmd.at = act_at;
        observe(cmd);
    }
    if (rowhit)
        ++stats_.rowHits;
    else
        ++stats_.rowMisses;

    // Data transfer: reads deliver data tCL after the column command,
    // writes receive theirs tCWL after; the burst then occupies the
    // shared data bus.
    const std::uint32_t burst = params_.burstCycles();
    Cycle data_start = col_at + (req.isWrite ? t.tCWL : t.tCL);
    data_start = std::max(data_start, busFreeAt_);
    busFreeAt_ = data_start + burst;
    stats_.busBusyCycles += burst;

    if (req.isWrite) {
        lastWdataEnd_ = data_start + burst;
        anyWrite_ = true;
        // Write recovery gates the *precharge* of this bank.
        banks_[req.bank].noteWriteRecovery(data_start + burst);
    }
    if (params_.bankGroups > 1) {
        const std::uint32_t group = params_.groupOf(req.bank);
        lastColAt_ = col_at;
        groupColAt_[group] = col_at;
        groupColValid_[group] = 1;
        anyCol_ = true;
    }

    if (cmdObserver_) {
        McCommand cmd;
        cmd.kind = req.isWrite ? McCommand::Kind::Write
                               : McCommand::Kind::Read;
        cmd.bank = req.bank;
        cmd.row = req.row;
        cmd.at = col_at;
        cmd.dataStart = data_start;
        cmd.dataEnd = data_start + burst;
        observe(cmd);
    }

    InFlight f;
    f.req = req;
    f.completeAt = data_start + burst;
    inFlight_.push_back(f);

    if (req.isWrite)
        ++stats_.writes;
    else
        ++stats_.reads;
}

void
MemoryController::registerStats(StatSet &set) const
{
    const std::string p = "mc" + std::to_string(id_);
    set.addCounter(p + ".reads", "read requests serviced",
                   stats_.reads);
    set.addCounter(p + ".writes", "write requests serviced",
                   stats_.writes);
    set.addCounter(p + ".row_hits", "row-buffer hits", stats_.rowHits);
    set.addCounter(p + ".row_misses", "row-buffer misses",
                   stats_.rowMisses);
    set.addCounter(p + ".bus_busy_cycles", "data-bus busy cycles",
                   stats_.busBusyCycles);
    set.addCounter(p + ".refreshes", "all-bank refreshes performed",
                   stats_.refreshes);
    set.addCounter(p + ".queue_full_rejects",
                   "requests refused by a full queue (backpressure)",
                   stats_.queueFullRejects);
    set.addCounter(p + ".write_drain_entries",
                   "write-drain mode entries (mem_sched=write_drain)",
                   stats_.writeDrainEntries);
    const McStats *s = &stats_;
    set.add(p + ".row_hit_rate", "row-buffer hit rate",
            [s]() { return s->rowHitRate(); });
    set.add(p + ".avg_read_latency", "average read latency (cycles)",
            [s]() { return s->avgReadLatency(); });
}

void
MemoryController::saveCkpt(CkptWriter &w) const
{
    ckptValue(w, queue_);
    w.varint(inFlight_.size());
    for (const InFlight &f : inFlight_) {
        ckptValue(w, f.req);
        w.u64(f.completeAt);
    }
    for (const DramBank &b : banks_)
        b.saveCkpt(w);
    w.u64(busFreeAt_);
    for (const Cycle act : actWindow_)
        w.u64(act);
    w.varint(actWindowPos_);
    w.u64(actCount_);
    w.u64(lastWdataEnd_);
    w.b(anyWrite_);
    w.u64(lastColAt_);
    w.podVec(groupColAt_);
    w.podVec(groupColValid_);
    w.b(anyCol_);
    w.u64(nextRefreshAt_);
    sched_->saveCkpt(w);
    w.pod(stats_);
}

void
MemoryController::loadCkpt(CkptReader &r)
{
    ckptValue(r, queue_);
    if (queue_.size() > params_.queueCapacity)
        r.fail("memory controller queue overflow");
    inFlight_.clear();
    const std::uint64_t n = r.varint();
    for (std::uint64_t i = 0; i < n; ++i) {
        InFlight f{};
        ckptValue(r, f.req);
        f.completeAt = r.u64();
        inFlight_.push_back(f);
    }
    for (DramBank &b : banks_)
        b.loadCkpt(r);
    busFreeAt_ = r.u64();
    for (Cycle &act : actWindow_)
        act = r.u64();
    actWindowPos_ = static_cast<std::size_t>(r.varint());
    if (actWindowPos_ >= 4)
        r.fail("tFAW window position out of range");
    actCount_ = r.u64();
    lastWdataEnd_ = r.u64();
    anyWrite_ = r.b();
    lastColAt_ = r.u64();
    const std::size_t groups = groupColAt_.size();
    r.podVec(groupColAt_);
    r.podVec(groupColValid_);
    if (groupColAt_.size() != groups ||
        groupColValid_.size() != groups)
        r.fail("bank-group geometry mismatch");
    anyCol_ = r.b();
    nextRefreshAt_ = r.u64();
    sched_->loadCkpt(r);
    r.pod(stats_);
}

} // namespace amsc
