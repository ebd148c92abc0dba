#include "llc/llc_slice.hh"

#include "common/log.hh"

namespace amsc
{

LlcSlice::LlcSlice(const LlcSliceParams &params, Network *net,
                   MemorySystem *mem, AppOfFn app_of,
                   WriteThroughFn write_through)
    : params_(params), net_(net), mem_(mem),
      appOf_(std::move(app_of)),
      writeThrough_(std::move(write_through)),
      tags_(params.numSets, params.assoc, params.repl, params.seed,
            params.bypass, params.duelSets),
      mshrs_(params.mshrs, params.mshrTargets)
{
}

void
LlcSlice::queueReply(Addr line_addr, SmId sm, Cycle now, Cycle latency,
                     bool atomic)
{
    NocMessage msg;
    msg.kind = MsgKind::ReadReply;
    msg.lineAddr = line_addr;
    msg.src = params_.id;
    msg.dst = sm;
    msg.sizeBytes = params_.packet.sizeOf(MsgKind::ReadReply);
    msg.token = atomic ? (line_addr | (std::uint64_t{1} << 63))
                       : line_addr;
    replyQueue_.push(msg, now, latency);
}

bool
LlcSlice::process(const NocMessage &msg, Cycle now)
{
    const Addr line = msg.lineAddr;

    if (msg.kind == MsgKind::ReadReq ||
        msg.kind == MsgKind::AtomicReq) {
        const bool is_atomic = msg.kind == MsgKind::AtomicReq;
        // A miss needs MSHR space (entry or merge target).
        const bool merged = mshrs_.contains(line);
        if (tags_.probe(line) == nullptr && !mshrs_.canAllocate(line))
            return false;

        if (is_atomic)
            ++stats_.atomics;
        ++stats_.reads;
        CacheLine *hit = tags_.access(line, now, msg.src);
        // MSHR merges count as hits: like a tag hit, they are served
        // by data already on its way and generate no DRAM traffic
        // (hit-under-miss). Miss rate thus predicts DRAM fetches,
        // which is what the section 4.4 bandwidth model consumes.
        const bool effective_hit = hit != nullptr || merged;
        if (observer_)
            observer_(params_.id, line, msg.src, effective_hit, true,
                      now);
        if (hit != nullptr) {
            ++stats_.readHits;
            hit->accessorMask |= 1u << (msg.src % 32);
            if (is_atomic) {
                // Read-modify-write at the ROP: the line is updated
                // in place (dirty under write-back, forwarded under
                // write-through). The miss queue is unbounded; the
                // forward waits there until mem_->canAccept, the
                // slice's real DRAM backpressure.
                if (writeThrough_(appOf_(msg.src)))
                    missQueue_.push({line, true}, now,
                                    params_.missLatency);
                else
                    hit->dirty = true;
            }
            queueReply(line, msg.src, now, params_.hitLatency,
                       is_atomic);
        } else {
            const MshrAllocResult ar = mshrs_.allocate(
                line, ReadTarget{msg.src, is_atomic});
            switch (ar) {
              case MshrAllocResult::NewEntry:
                ++stats_.readMisses;
                missQueue_.push({line, false}, now,
                                params_.missLatency);
                break;
              case MshrAllocResult::Merged:
                ++stats_.readHits;
                ++stats_.readMergedHits;
                break;
              default:
                panic("LLC%u: MSHR alloc failed after check",
                      params_.id);
            }
        }
        return true;
    }

    if (msg.kind == MsgKind::WriteReq) {
        // No-write-allocate; policy depends on the owning app's mode.
        // A write never stalls here: forwards wait in the unbounded
        // miss queue until mem_->canAccept.
        const bool wt = writeThrough_(appOf_(msg.src));
        const bool forward = wt || tags_.probe(line) == nullptr;
        CacheLine *line_p = tags_.access(line, now, msg.src);

        ++stats_.writes;
        if (observer_)
            observer_(params_.id, line, msg.src, line_p != nullptr,
                      false, now);
        if (line_p != nullptr) {
            ++stats_.writeHits;
            if (!wt)
                line_p->dirty = true; // write-back absorbs the write
        }
        if (forward)
            missQueue_.push({line, true}, now, params_.missLatency);
        return true;
    }

    panic("LLC%u: unexpected message kind", params_.id);
}

void
LlcSlice::tick(Cycle now)
{
    // 1. Drain due replies into the reply network (1 per cycle).
    if (replyQueue_.ready(now) && net_->canInjectReply(params_.id)) {
        net_->injectReply(replyQueue_.pop(now), now);
        ++stats_.responses;
    }

    // 2. Issue one due miss / forwarded write to DRAM.
    if (missQueue_.ready(now)) {
        const auto &[line, is_write] = missQueue_.front();
        if (mem_->canAccept(line)) {
            mem_->access(line, is_write,
                         static_cast<std::uint64_t>(params_.id), now);
            if (is_write)
                ++stats_.dramWrites;
            else
                ++stats_.dramReads;
            missQueue_.pop(now);
        }
    }

    // 3. Issue one pending write-back to DRAM.
    if (!writebackQueue_.empty() &&
        mem_->canAccept(writebackQueue_.front())) {
        mem_->access(writebackQueue_.front(), true,
                     static_cast<std::uint64_t>(params_.id), now);
        ++stats_.dramWrites;
        ++stats_.writebacks;
        writebackQueue_.pop_front();
    }

    // 4. Accept one request from the network (tag pipeline width 1).
    if (stalledReq_.has_value()) {
        ++stats_.stallCycles;
        if (process(*stalledReq_, now))
            stalledReq_.reset();
        return;
    }
    if (net_->hasRequestFor(params_.id)) {
        NocMessage msg = net_->popRequestFor(params_.id, now);
        if (!process(msg, now))
            stalledReq_ = msg;
    }
}

Cycle
LlcSlice::nextEventCycle(Cycle now) const
{
    // Live paths that run (and may mutate state) every single cycle:
    // the stalled-request retry, the write-back issue probe and the
    // network pop. A ready miss-queue front also re-probes (and its
    // refusal is counted) per cycle, but its ready cycle is exact
    // and by construction >= the last ticked cycle, so returning it
    // clamps to `now` below.
    if (stalledReq_.has_value() || !writebackQueue_.empty() ||
        net_->hasRequestFor(params_.id))
        return now;
    Cycle e = kNoCycle;
    if (!replyQueue_.empty())
        e = std::min(e, replyQueue_.frontReadyCycle());
    if (!missQueue_.empty())
        e = std::min(e, missQueue_.frontReadyCycle());
    if (e == kNoCycle)
        return kNoCycle;
    return e > now ? e : now;
}

void
LlcSlice::onDramReply(Addr line_addr, Cycle now)
{
    if (!mshrs_.contains(line_addr)) {
        // A write-back or forwarded write completion carries no MSHR;
        // reads always do.
        return;
    }
    const auto targets = mshrs_.complete(line_addr);
    fillLine(line_addr, now,
             targets.empty() ? kInvalidId : targets.front().sm);
    Cycle lat = 1;
    bool rmw_forwarded = false;
    for (const ReadTarget &t : targets) {
        if (t.atomic) {
            CacheLine *line = tags_.probe(line_addr);
            if (line != nullptr && !writeThrough_(appOf_(t.sm)))
                line->dirty = true;
            else if (line == nullptr && !rmw_forwarded) {
                // Fill was bypassed: the RMW result still has to
                // reach DRAM (same path as a flush write-back). One
                // write-back covers all merged atomics, exactly as
                // one dirty line would have.
                writebackQueue_.push_back(line_addr);
                rmw_forwarded = true;
            }
        }
        // Fills stream one reply per cycle through the data array.
        queueReply(line_addr, t.sm, now, lat, t.atomic);
        ++lat;
    }
}

bool
LlcSlice::bypassEligible(SmId src) const
{
    if (params_.bypass == BypassPolicy::None || src == kInvalidId)
        return false;
    if (params_.bypassApp.empty())
        return true;
    const AppId app = appOf_(src);
    return app < params_.bypassApp.size() &&
        params_.bypassApp[app] != 0;
}

void
LlcSlice::fillLine(Addr line_addr, Cycle now, SmId src)
{
    if (tags_.probe(line_addr) != nullptr)
        return;
    if (bypassEligible(src) &&
        tags_.shouldBypassFill(line_addr, src, now)) {
        // No-allocate: the merged readers are still served from the
        // in-flight data; the line just stays uncached.
        ++stats_.bypasses;
        return;
    }
    Eviction ev;
    tags_.insert(line_addr, now, ev, src);
    if (ev.valid && ev.dirty)
        writebackQueue_.push_back(ev.lineAddr);
}

void
LlcSlice::startWritebackAll(Cycle now)
{
    (void)now;
    for (const Addr a : tags_.collectDirtyLines())
        writebackQueue_.push_back(a);
}

void
LlcSlice::invalidateAll()
{
    tags_.invalidateAll();
}

bool
LlcSlice::drained() const
{
    return !stalledReq_.has_value() && missQueue_.empty() &&
        replyQueue_.empty() && writebackQueue_.empty() &&
        mshrs_.numActiveEntries() == 0;
}

void
LlcSlice::registerStats(StatSet &set) const
{
    const std::string p = "llc" + std::to_string(params_.id);
    set.addCounter(p + ".reads", "read requests", stats_.reads);
    set.addCounter(p + ".read_hits", "read hits", stats_.readHits);
    set.addCounter(p + ".read_misses", "read misses",
                   stats_.readMisses);
    set.addCounter(p + ".writes", "write requests", stats_.writes);
    set.addCounter(p + ".responses", "replies injected",
                   stats_.responses);
    set.addCounter(p + ".bypasses", "fills dropped by bypass",
                   stats_.bypasses);
    const LlcSliceStats *s = &stats_;
    set.add(p + ".read_miss_rate", "read miss rate",
            [s]() { return s->readMissRate(); });
}

void
LlcSlice::saveCkpt(CkptWriter &w) const
{
    tags_.saveCkpt(w);
    mshrs_.saveCkpt(w);
    w.b(stalledReq_.has_value());
    if (stalledReq_)
        ckptValue(w, *stalledReq_);
    missQueue_.saveCkpt(w);
    replyQueue_.saveCkpt(w);
    w.varint(writebackQueue_.size());
    for (std::size_t i = 0; i < writebackQueue_.size(); ++i)
        w.u64(writebackQueue_[i]);
    w.pod(stats_);
}

void
LlcSlice::loadCkpt(CkptReader &r)
{
    tags_.loadCkpt(r);
    mshrs_.loadCkpt(r);
    if (r.b()) {
        NocMessage msg{};
        ckptValue(r, msg);
        stalledReq_ = msg;
    } else {
        stalledReq_.reset();
    }
    missQueue_.loadCkpt(r);
    replyQueue_.loadCkpt(r);
    writebackQueue_.clear();
    const std::uint64_t n = r.varint();
    for (std::uint64_t i = 0; i < n; ++i)
        writebackQueue_.push_back(r.u64());
    r.pod(stats_);
}

} // namespace amsc
