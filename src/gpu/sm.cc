#include "gpu/sm.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/log.hh"

namespace amsc
{

Sm::Sm(const SmParams &params, Network *net, SliceFn slice_for)
    : params_(params), net_(net), sliceFor_(std::move(slice_for)),
      l1_(params.l1), mshrs_(params.l1Mshrs, params.l1MshrTargets),
      hitQueue_(params.l1Latency + 1)
{
    warps_.resize(params_.maxResidentWarps);
    for (std::uint32_t i = 0; i < params_.maxResidentWarps; ++i)
        freeSlots_.push_back(params_.maxResidentWarps - 1 - i);
    gtoCurrent_.assign(params_.numSchedulers, kInvalidId);
}

void
Sm::launchKernel(const KernelInfo *kernel, std::vector<CtaId> ctas,
                 Cycle now)
{
    if (!done())
        panic("SM%u: kernel launched while busy", params_.id);
    kernel_ = kernel;
    pendingCtas_.assign(ctas.begin(), ctas.end());
    if (kernel_ != nullptr &&
        kernel_->warpsPerCta > params_.maxResidentWarps) {
        throw ConfigError(strfmt("SM%u: CTA needs %u warps, SM holds %u",
                                 params_.id, kernel_->warpsPerCta,
                                 params_.maxResidentWarps));
    }
    activateCtas(now);
}

void
Sm::activateCtas(Cycle now)
{
    while (!pendingCtas_.empty() &&
           activeCtaWarps_.size() < params_.maxResidentCtas &&
           freeSlots_.size() >= kernel_->warpsPerCta) {
        const CtaId cta = pendingCtas_.front();
        pendingCtas_.pop_front();
        activeCtaWarps_.emplace_back(cta, kernel_->warpsPerCta);
        for (std::uint32_t w = 0; w < kernel_->warpsPerCta; ++w) {
            const std::uint32_t slot = freeSlots_.back();
            freeSlots_.pop_back();
            Warp &warp = warps_[slot];
            warp = Warp{};
            warp.gen = kernel_->makeGen(cta, w);
            warp.cta = cta;
            warp.warpInCta = w;
            warp.age = ++warpAgeCounter_;
            setWarpState(warp, WarpState::Compute);
            advanceWarp(warp, now);
        }
    }
}

void
Sm::advanceWarp(Warp &w, Cycle now)
{
    WarpInstr instr;
    if (!w.gen->nextInstr(instr, now)) {
        onWarpDone(w, now);
        return;
    }
    if (instr.computeCycles == 0 && instr.numAccesses == 0)
        panic("SM%u: empty warp instruction batch", params_.id);
    w.cur = instr;
    w.computeLeft = instr.computeCycles;
    w.nextAccess = 0;
    w.outstanding = 0;
    setWarpState(w, w.computeLeft > 0 ? WarpState::Compute
                                      : WarpState::IssueMem);
}

void
Sm::onWarpDone(Warp &w, Cycle now)
{
    setWarpState(w, WarpState::Done);
    // By value: the scan below resets w's own slot to Warp{}.
    const CtaId cta = w.cta;
    for (auto it = activeCtaWarps_.begin();
         it != activeCtaWarps_.end(); ++it) {
        if (it->first == cta) {
            if (--it->second == 0) {
                // CTA complete: free all its warp slots.
                for (std::uint32_t s = 0; s < warps_.size(); ++s) {
                    if (warps_[s].state == WarpState::Done &&
                        warps_[s].cta == cta) {
                        warps_[s] = Warp{};
                        freeSlots_.push_back(s);
                    }
                }
                activeCtaWarps_.erase(it);
                ++stats_.ctasCompleted;
                activateCtas(now);
                if (done() && doneCb_)
                    doneCb_();
            }
            return;
        }
    }
    panic("SM%u: warp of unknown CTA finished", params_.id);
}

bool
Sm::done() const
{
    return pendingCtas_.empty() && activeCtaWarps_.empty();
}

bool
Sm::issueable(const Warp &w) const
{
    switch (w.state) {
      case WarpState::Compute:
        return true;
      case WarpState::IssueMem:
        return !memPortBusyThisCycle_;
      default:
        return false;
    }
}

void
Sm::completeAccess(std::uint32_t slot, Cycle now)
{
    Warp &w = warps_[slot];
    if (w.outstanding == 0)
        panic("SM%u: spurious access completion", params_.id);
    --w.outstanding;
    maybeRetireMem(slot, now);
}

void
Sm::maybeRetireMem(std::uint32_t slot, Cycle now)
{
    Warp &w = warps_[slot];
    if (w.state != WarpState::WaitMem &&
        w.state != WarpState::IssueMem)
        return;
    if (w.nextAccess == w.cur.numAccesses && w.outstanding == 0) {
        ++stats_.instructions;
        ++stats_.memInstrs;
        if (retiredCounter_ != nullptr)
            ++*retiredCounter_;
        advanceWarp(w, now);
    }
}

void
Sm::issueFrom(std::uint32_t slot, Cycle now)
{
    Warp &w = warps_[slot];
    if (w.state == WarpState::Compute) {
        --w.computeLeft;
        ++stats_.instructions;
        ++stats_.computeInstrs;
        if (retiredCounter_ != nullptr)
            ++*retiredCounter_;
        if (w.computeLeft == 0) {
            if (w.cur.numAccesses > 0)
                setWarpState(w, WarpState::IssueMem);
            else
                advanceWarp(w, now); // pure compute batch
        }
        return;
    }

    // Memory issue: one line access through the L1 port.
    const Addr line = w.cur.addrs[w.nextAccess];
    if (w.cur.isAtomic) {
        // Global atomics bypass the L1 and execute at the LLC's ROP
        // unit (paper section 4.1); the warp waits for the result.
        if (!net_->canInjectRequest(params_.id)) {
            ++stats_.injectStalls;
            return;
        }
        memPortBusyThisCycle_ = true;
        NocMessage msg;
        msg.kind = MsgKind::AtomicReq;
        msg.lineAddr = line;
        msg.src = params_.id;
        msg.dst = sliceFor_(line);
        msg.sizeBytes = params_.packet.sizeOf(MsgKind::AtomicReq);
        msg.token = line | (std::uint64_t{1} << 63);
        net_->injectRequest(msg, now);
        ++stats_.atomics;
        atomicPending_.emplace(line, slot);
        ++w.outstanding;
        ++w.nextAccess;
        if (w.nextAccess == w.cur.numAccesses)
            setWarpState(w, WarpState::WaitMem);
        return;
    }
    if (w.cur.isWrite) {
        // Write-through, no-allocate: the store needs an injection
        // slot; it completes immediately from the warp's view.
        if (!net_->canInjectRequest(params_.id)) {
            ++stats_.injectStalls;
            return;
        }
        memPortBusyThisCycle_ = true;
        l1_.lookup(line, true, params_.cluster, now);
        NocMessage msg;
        msg.kind = MsgKind::WriteReq;
        msg.lineAddr = line;
        msg.src = params_.id;
        msg.dst = sliceFor_(line);
        msg.sizeBytes = params_.packet.sizeOf(MsgKind::WriteReq);
        msg.token = line;
        net_->injectRequest(msg, now);
        ++stats_.stores;
        ++w.nextAccess;
        // Stores are fire-and-forget: the batch retires as soon as
        // its last access is injected.
        maybeRetireMem(slot, now);
        return;
    }

    // Load path.
    const bool in_l1 = l1_.contains(line);
    const bool merged = mshrs_.contains(line);
    if (!in_l1 && !merged) {
        // Primary miss: need an MSHR and an injection slot.
        if (!mshrs_.hasFreeEntry()) {
            ++stats_.mshrStalls;
            return;
        }
        if (!net_->canInjectRequest(params_.id)) {
            ++stats_.injectStalls;
            return;
        }
    }
    memPortBusyThisCycle_ = true;
    ++stats_.loads;
    const LookupResult res =
        l1_.lookup(line, false, params_.cluster, now);
    if (res.hit) {
        ++w.outstanding;
        hitQueue_.push(slot, now, params_.l1Latency);
    } else {
        const MshrAllocResult ar = mshrs_.allocate(line, slot);
        switch (ar) {
          case MshrAllocResult::NewEntry: {
            NocMessage msg;
            msg.kind = MsgKind::ReadReq;
            msg.lineAddr = line;
            msg.src = params_.id;
            msg.dst = sliceFor_(line);
            msg.sizeBytes = params_.packet.sizeOf(MsgKind::ReadReq);
            msg.token = line;
            net_->injectRequest(msg, now);
            break;
          }
          case MshrAllocResult::Merged:
            break;
          case MshrAllocResult::NoFreeEntry:
          case MshrAllocResult::NoFreeTarget:
            // Structural stall; the L1 port was consumed but the
            // access retries next cycle.
            ++stats_.mshrStalls;
            --stats_.loads;
            return;
        }
        ++w.outstanding;
    }
    ++w.nextAccess;
    if (w.nextAccess == w.cur.numAccesses)
        setWarpState(w, WarpState::WaitMem);
    maybeRetireMem(slot, now);
}

void
Sm::tick(Cycle now)
{
    memPortBusyThisCycle_ = false;

    // 1. L1 hit completions.
    while (hitQueue_.ready(now))
        completeAccess(hitQueue_.pop(now), now);

    if (stalled_)
        return;

    // Fast path: with no warp in an issueable state the scheduler
    // scan below cannot pick anything; account the stall and leave.
    if (issueCandidates_ == 0) {
        if (!done())
            ++stats_.issueStallCycles;
        return;
    }

    // 2. Schedulers: GTO issue, warps partitioned by slot parity.
    bool issued_any = false;
    for (std::uint32_t s = 0; s < params_.numSchedulers; ++s) {
        std::uint32_t pick = kInvalidId;
        // Greedy: stick with the current warp while it can issue.
        const std::uint32_t cur = gtoCurrent_[s];
        if (cur != kInvalidId && warps_[cur].state != WarpState::Done &&
            warps_[cur].state != WarpState::Inactive &&
            cur % params_.numSchedulers == s && issueable(warps_[cur])) {
            pick = cur;
        } else {
            // Oldest ready warp in this scheduler's partition.
            std::uint64_t best_age = 0;
            for (std::uint32_t w = s; w < warps_.size();
                 w += params_.numSchedulers) {
                if (warps_[w].state == WarpState::Inactive ||
                    warps_[w].state == WarpState::Done)
                    continue;
                if (!issueable(warps_[w]))
                    continue;
                if (pick == kInvalidId || warps_[w].age < best_age) {
                    pick = w;
                    best_age = warps_[w].age;
                }
            }
        }
        if (pick == kInvalidId)
            continue;
        gtoCurrent_[s] = pick;
        issueFrom(pick, now);
        issued_any = true;
    }
    if (!issued_any && !done())
        ++stats_.issueStallCycles;
}

void
Sm::onReply(const NocMessage &msg, Cycle now)
{
    if (msg.kind != MsgKind::ReadReply)
        panic("SM%u: unexpected reply kind", params_.id);
    const Addr line = msg.lineAddr;
    if ((msg.token >> 63) != 0) {
        // Atomic completion: exactly one pending RMW finishes.
        const auto it = atomicPending_.find(line);
        if (it == atomicPending_.end())
            panic("SM%u: atomic reply without request", params_.id);
        const std::uint32_t slot = it->second;
        atomicPending_.erase(it);
        completeAccess(slot, now);
        return;
    }
    l1_.fill(line, false, params_.cluster, now);
    for (const std::uint32_t slot : mshrs_.complete(line))
        completeAccess(slot, now);
}

void
Sm::registerStats(StatSet &set) const
{
    const std::string p = "sm" + std::to_string(params_.id);
    set.addCounter(p + ".instructions", "instructions retired",
                   stats_.instructions);
    set.addCounter(p + ".mem_instrs", "memory instructions",
                   stats_.memInstrs);
    set.addCounter(p + ".loads", "load accesses", stats_.loads);
    set.addCounter(p + ".stores", "store accesses", stats_.stores);
    set.addCounter(p + ".stall_cycles", "cycles with no issue",
                   stats_.issueStallCycles);
    set.addCounter(p + ".ctas", "CTAs completed",
                   stats_.ctasCompleted);
}

void
Sm::saveCkpt(CkptWriter &w) const
{
    l1_.saveCkpt(w);
    mshrs_.saveCkpt(w);
    w.varint(warps_.size());
    for (const Warp &warp : warps_) {
        w.u8(static_cast<std::uint8_t>(warp.state));
        ckptValue(w, warp.cur);
        w.u32(warp.computeLeft);
        w.u32(warp.nextAccess);
        w.u32(warp.outstanding);
        w.u64(warp.age);
        w.u32(warp.cta);
        w.u32(warp.warpInCta);
        w.b(warp.gen != nullptr);
        if (warp.gen)
            warp.gen->saveCkpt(w);
    }
    w.podVec(freeSlots_);
    ckptValue(w, pendingCtas_);
    ckptValue(w, activeCtaWarps_);
    hitQueue_.saveCkpt(w);

    // atomicPending_ is serialized key-sorted (deterministic bytes);
    // each key's slot group is written in equal_range order because
    // onReply() completes the find()-first entry, making the per-key
    // order observable.
    std::vector<Addr> keys;
    keys.reserve(atomicPending_.size());
    for (const auto &e : atomicPending_)
        keys.push_back(e.first);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    w.varint(keys.size());
    for (const Addr line : keys) {
        const auto [lo, hi] = atomicPending_.equal_range(line);
        std::vector<std::uint32_t> slots;
        for (auto it = lo; it != hi; ++it)
            slots.push_back(it->second);
        w.u64(line);
        w.varint(slots.size());
        for (const std::uint32_t s : slots)
            w.u32(s);
    }

    w.podVec(gtoCurrent_);
    w.b(stalled_);
    w.u64(warpAgeCounter_);
    w.pod(stats_);
}

void
Sm::loadCkpt(CkptReader &r, const KernelInfo *kernel)
{
    l1_.loadCkpt(r);
    mshrs_.loadCkpt(r);
    if (r.varint() != warps_.size())
        r.fail("SM warp-slot count mismatch");
    kernel_ = kernel;
    issueCandidates_ = 0;
    for (Warp &warp : warps_) {
        const std::uint8_t st = r.u8();
        if (st > static_cast<std::uint8_t>(WarpState::Done))
            r.fail("bad warp state");
        warp.state = static_cast<WarpState>(st);
        ckptValue(r, warp.cur);
        warp.computeLeft = r.u32();
        warp.nextAccess = r.u32();
        warp.outstanding = r.u32();
        warp.age = r.u64();
        warp.cta = r.u32();
        warp.warpInCta = r.u32();
        if (r.b()) {
            if (kernel == nullptr || !kernel->makeGen)
                r.fail("warp generator without a live kernel");
            warp.gen = kernel->makeGen(warp.cta, warp.warpInCta);
            warp.gen->loadCkpt(r);
        } else {
            warp.gen.reset();
        }
        if (countsIssue(warp.state))
            ++issueCandidates_;
    }
    r.podVec(freeSlots_);
    ckptValue(r, pendingCtas_);
    ckptValue(r, activeCtaWarps_);
    hitQueue_.loadCkpt(r);

    atomicPending_.clear();
    const std::uint64_t nkeys = r.varint();
    for (std::uint64_t k = 0; k < nkeys; ++k) {
        const Addr line = r.u64();
        const std::uint64_t n = r.varint();
        std::vector<std::uint32_t> slots(n);
        for (std::uint32_t &s : slots)
            s = r.u32();
        if (slots.empty())
            continue;
        // libstdc++ keeps equal keys adjacent and links each new node
        // right after the first existing equal one, so inserting
        // y1, yn, yn-1, ..., y2 reproduces traversal order y1..yn.
        atomicPending_.emplace(line, slots[0]);
        for (std::size_t i = slots.size(); i > 1; --i)
            atomicPending_.emplace(line, slots[i - 1]);
    }

    r.podVec(gtoCurrent_);
    stalled_ = r.b();
    warpAgeCounter_ = r.u64();
    r.pod(stats_);
    memPortBusyThisCycle_ = false;
}

} // namespace amsc
