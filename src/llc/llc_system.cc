#include "llc/llc_system.hh"

#include <cmath>

#include "common/error.hh"
#include "common/log.hh"

namespace amsc
{

LlcPolicy
parseLlcPolicy(const std::string &name)
{
    if (name == "shared")
        return LlcPolicy::ForceShared;
    if (name == "private")
        return LlcPolicy::ForcePrivate;
    if (name == "adaptive")
        return LlcPolicy::Adaptive;
    throw ConfigError(
        strfmt("unknown LLC policy '%s' (shared|private|adaptive)",
               name.c_str()));
}

std::string
llcPolicyName(LlcPolicy p)
{
    switch (p) {
      case LlcPolicy::ForceShared:
        return "shared";
      case LlcPolicy::ForcePrivate:
        return "private";
      case LlcPolicy::Adaptive:
        return "adaptive";
    }
    return "?";
}

LlcSystem::LlcSystem(const LlcParams &params,
                     const AddressMapping &mapping, Network *net,
                     MemorySystem *mem, AppOfFn app_of,
                     ClusterOfFn cluster_of)
    : params_(params),
      mapper_(mapping,
              static_cast<std::uint32_t>(params.appPolicies.size())),
      net_(net), mem_(mem), appOf_(std::move(app_of)),
      clusterOf_(std::move(cluster_of)), profiler_(params.profiler),
      tracker_(1000)
{
    tracker_.setEnabled(params_.trackSharing);

    const auto &mp = mapping.params();
    const std::uint32_t num_slices = mp.numMcs * mp.slicesPerMc;
    if (num_slices != params_.profiler.numSlices)
        panic("LLC: profiler slice count %u != %u",
              params_.profiler.numSlices, num_slices);

    auto write_through = [this](AppId app) {
        return mapper_.mode(app) == LlcMode::Private;
    };
    for (SliceId s = 0; s < num_slices; ++s) {
        LlcSliceParams sp = params_.slice;
        sp.id = s;
        sp.mc = s / mp.slicesPerMc;
        sp.seed = params_.slice.seed + s;
        slices_.push_back(std::make_unique<LlcSlice>(
            sp, net_, mem_, appOf_, write_through));
        slices_.back()->setObserver(
            [this](SliceId slice, Addr line, SmId src, bool hit,
                   bool is_read, Cycle now) {
                const ClusterId cl = clusterOf_(src);
                if (profilingActive_)
                    profiler_.onSliceAccess(slice, line, cl, hit,
                                            is_read, now);
                tracker_.onAccess(line, cl, now);
            });
    }

    // Static per-app modes; the adaptive policy (single-app only)
    // starts shared and profiles.
    std::uint32_t adaptive_count = 0;
    for (AppId a = 0; a < params_.appPolicies.size(); ++a) {
        switch (params_.appPolicies[a]) {
          case LlcPolicy::ForceShared:
            mapper_.setMode(a, LlcMode::Shared);
            break;
          case LlcPolicy::ForcePrivate:
            mapper_.setMode(a, LlcMode::Private);
            break;
          case LlcPolicy::Adaptive:
            ++adaptive_count;
            mapper_.setMode(a, LlcMode::Shared);
            break;
        }
    }
    if (adaptive_count > 0 &&
        (adaptive_count > 1 || params_.appPolicies.size() > 1))
        throw ConfigError(
            "adaptive LLC policy supports a single application; use "
            "forced per-app modes for multi-program runs");

    applyNetworkMode();
    if (adaptive_count == 1)
        startEpoch(0);
    else
        state_ = CtrlState::Disabled;
}

void
LlcSystem::setHooks(StallFn stall, QuiescentFn quiescent)
{
    stall_ = std::move(stall);
    quiescent_ = std::move(quiescent);
}

void
LlcSystem::setEventObserver(EventObserver obs)
{
    eventObs_ = std::move(obs);
}

const char *
LlcSystem::ctrlStateName(CtrlState s)
{
    switch (s) {
      case CtrlState::Disabled:
        return "Disabled";
      case CtrlState::Profiling:
        return "Profiling";
      case CtrlState::SharedRun:
        return "SharedRun";
      case CtrlState::DrainToPrivate:
        return "DrainToPrivate";
      case CtrlState::Writeback:
        return "Writeback";
      case CtrlState::GateWait:
        return "GateWait";
      case CtrlState::PrivateRun:
        return "PrivateRun";
      case CtrlState::DrainToShared:
        return "DrainToShared";
      case CtrlState::UngateWait:
        return "UngateWait";
    }
    return "?";
}

const char *
LlcSystem::phaseName() const
{
    return ctrlStateName(state_);
}

void
LlcSystem::setState(CtrlState s, Cycle now)
{
    state_ = s;
    if (eventObs_) {
        LlcCtrlEvent e;
        e.kind = LlcCtrlEvent::Kind::Phase;
        e.at = now;
        e.phase = ctrlStateName(s);
        eventObs_(e);
    }
}

void
LlcSystem::notifyReprofile(Cycle now, const char *reason,
                           bool atomic_veto)
{
    if (!eventObs_)
        return;
    LlcCtrlEvent e;
    e.kind = LlcCtrlEvent::Kind::Reprofile;
    e.at = now;
    e.rule = 3;
    e.atomicVeto = atomic_veto;
    e.reason = reason;
    eventObs_(e);
}

bool
LlcSystem::adaptiveEnabled() const
{
    for (const LlcPolicy p : params_.appPolicies) {
        if (p == LlcPolicy::Adaptive)
            return true;
    }
    return false;
}

SliceId
LlcSystem::sliceFor(Addr line_addr, ClusterId cluster, AppId app)
{
    const auto &mp = mapper_.mapping().params();
    if (profilingActive_) {
        const McId mc = mapper_.mapping().decode(line_addr).mc;
        profiler_.onRequestIssued(cluster, mc);
    }
    (void)mp;
    return mapper_.sliceFor(line_addr, cluster, app);
}

void
LlcSystem::applyNetworkMode()
{
    bool all_private = true;
    for (AppId a = 0; a < mapper_.numApps(); ++a)
        all_private = all_private &&
            mapper_.mode(a) == LlcMode::Private;
    if (net_->supportsPowerGating())
        net_->setPrivateMode(all_private);
}

void
LlcSystem::startEpoch(Cycle now)
{
    epochEnd_ = now + params_.epochLen;
    stateDeadline_ = now + params_.profileLen;
    windowMid_ = now + params_.profileLen / 2;
    midMarked_ = false;
    reprofileRequested_ = false;
    profilingActive_ = true;
    atomicsBaseline_ = totalAtomics();
    profiler_.beginWindow();
    setState(CtrlState::Profiling, now);
}

void
LlcSystem::decide(Cycle now)
{
    lastSnap_ = profiler_.snapshot();
    profilingActive_ = false;
    ++stats_.profileWindows;

    // Global atomics are handled by the ROP at a fixed slice; the
    // paper opts for the shared organization whenever the workload
    // uses them (section 4.1).
    const bool atomics_seen = totalAtomics() > atomicsBaseline_;
    // Rule #1's similar-miss-rate signal is meaningless while the
    // LLC is still warming (a cold cache makes every organization
    // look identical), so it only fires on steady windows. Rule #2
    // is guarded by the bandwidth hysteresis margin instead, which
    // absorbs both warm-up noise and estimator noise.
    const bool rule1 = !atomics_seen && !lastSnap_.warming &&
        std::abs(lastSnap_.privateMissRate - lastSnap_.sharedMissRate)
            <= params_.missTolerance;
    const bool rule2 = !atomics_seen &&
        lastSnap_.privateBw > lastSnap_.sharedBw * params_.bwMargin;
    if (atomics_seen)
        ++stats_.atomicVetoes;
    if (rule1)
        ++stats_.rule1Fires;
    else if (rule2)
        ++stats_.rule2Fires;

    if (eventObs_) {
        LlcCtrlEvent e;
        e.kind = LlcCtrlEvent::Kind::Decision;
        e.at = now;
        e.rule = rule1 ? 1 : (rule2 ? 2 : 0);
        e.toPrivate = rule1 || rule2;
        e.atomicVeto = atomics_seen;
        e.snap = lastSnap_;
        eventObs_(e);
    }

    if (rule1 || rule2) {
        ++stats_.decisionsPrivate;
        enterPrivate(now);
    } else {
        ++stats_.decisionsShared;
        setState(CtrlState::SharedRun, now);
    }
}

void
LlcSystem::enterPrivate(Cycle now)
{
    stall_(true);
    stallStart_ = now;
    setState(CtrlState::DrainToPrivate, now);
}

void
LlcSystem::enterShared(Cycle now)
{
    stall_(true);
    stallStart_ = now;
    setState(CtrlState::DrainToShared, now);
}

void
LlcSystem::tick(Cycle now)
{
    for (auto &s : slices_)
        s->tick(now);

    if (mapper_.mode(adaptiveApp()) == LlcMode::Private)
        ++stats_.cyclesPrivate;
    else
        ++stats_.cyclesShared;

    switch (state_) {
      case CtrlState::Disabled:
        break;

      case CtrlState::Profiling:
        if (reprofileRequested_) {
            startEpoch(now);
            break;
        }
        if (!midMarked_ && now >= windowMid_) {
            profiler_.markMidWindow();
            midMarked_ = true;
        }
        if (now >= stateDeadline_)
            decide(now);
        break;

      case CtrlState::SharedRun:
        if (reprofileRequested_ || now >= epochEnd_)
            startEpoch(now);
        break;

      case CtrlState::DrainToPrivate:
        if (quiescent_() && drained()) {
            for (auto &s : slices_)
                s->startWritebackAll(now);
            setState(CtrlState::Writeback, now);
        }
        break;

      case CtrlState::Writeback:
        if (drained() && mem_->drained()) {
            setState(CtrlState::GateWait, now);
            stateDeadline_ = now + params_.gateDelay;
        }
        break;

      case CtrlState::GateWait:
        if (now >= stateDeadline_) {
            mapper_.setMode(adaptiveApp(), LlcMode::Private);
            applyNetworkMode();
            stall_(false);
            stats_.reconfigStallCycles += now - stallStart_;
            ++stats_.transitionsToPrivate;
            setState(CtrlState::PrivateRun, now);
        }
        break;

      case CtrlState::PrivateRun:
        // A newly-arriving global atomic forces the shared
        // organization (paper section 4.1).
        if (totalAtomics() > atomicsBaseline_) {
            ++stats_.atomicVetoes;
            reprofileRequested_ = true;
            notifyReprofile(now, "atomic", true);
        }
        if (reprofileRequested_ || now >= epochEnd_) {
            if (!reprofileRequested_)
                notifyReprofile(now, "epoch-end", false);
            enterShared(now);
        }
        break;

      case CtrlState::DrainToShared:
        if (quiescent_() && drained()) {
            // Private contents are clean (write-through): invalidate.
            for (auto &s : slices_)
                s->invalidateAll();
            setState(CtrlState::UngateWait, now);
            stateDeadline_ = now + params_.gateDelay;
        }
        break;

      case CtrlState::UngateWait:
        if (now >= stateDeadline_) {
            mapper_.setMode(adaptiveApp(), LlcMode::Shared);
            applyNetworkMode();
            stall_(false);
            stats_.reconfigStallCycles += now - stallStart_;
            ++stats_.transitionsToShared;
            startEpoch(now);
        }
        break;
    }
}

Cycle
LlcSystem::nextCtrlEventCycle(Cycle now) const
{
    switch (state_) {
      case CtrlState::Disabled:
        return kNoCycle;

      case CtrlState::Profiling: {
        if (reprofileRequested_)
            return now;
        const Cycle e = midMarked_
            ? stateDeadline_
            : std::min(windowMid_, stateDeadline_);
        return e > now ? e : now;
      }

      case CtrlState::SharedRun:
        if (reprofileRequested_)
            return now;
        return epochEnd_ > now ? epochEnd_ : now;

      case CtrlState::DrainToPrivate:
      case CtrlState::DrainToShared:
        return (quiescent_() && drained()) ? now : kNoCycle;

      case CtrlState::Writeback:
        return (drained() && mem_->drained()) ? now : kNoCycle;

      case CtrlState::GateWait:
      case CtrlState::UngateWait:
        return stateDeadline_ > now ? stateDeadline_ : now;

      case CtrlState::PrivateRun:
        if (reprofileRequested_ ||
            totalAtomics() > atomicsBaseline_)
            return now;
        return epochEnd_ > now ? epochEnd_ : now;
    }
    return kNoCycle;
}

Cycle
LlcSystem::nextEventCycle(Cycle now) const
{
    Cycle e = nextCtrlEventCycle(now);
    if (e <= now)
        return now;
    for (const auto &s : slices_) {
        const Cycle se = s->nextEventCycle(now);
        if (se <= now)
            return now;
        e = std::min(e, se);
    }
    return e;
}

void
LlcSystem::onDramReply(Addr line_addr, std::uint64_t token, Cycle now)
{
    const SliceId s = static_cast<SliceId>(token);
    if (s >= slices_.size())
        panic("DRAM reply for unknown slice token %llu",
              static_cast<unsigned long long>(token));
    slices_[s]->onDramReply(line_addr, now);
}

void
LlcSystem::onKernelLaunch(Cycle now)
{
    // Software coherence: flushing the L1s at a kernel boundary also
    // flushes a private LLC (clean under write-through).
    bool any_private = false;
    for (AppId a = 0; a < mapper_.numApps(); ++a)
        any_private =
            any_private || mapper_.mode(a) == LlcMode::Private;
    if (any_private) {
        for (auto &s : slices_)
            s->invalidateAll();
    }
    if (adaptiveEnabled()) {
        reprofileRequested_ = true; // Rule #3
        notifyReprofile(now, "kernel-launch", false);
    }
}

bool
LlcSystem::drained() const
{
    for (const auto &s : slices_) {
        if (!s->drained())
            return false;
    }
    return true;
}

std::uint64_t
LlcSystem::totalAtomics() const
{
    std::uint64_t n = 0;
    for (const auto &s : slices_)
        n += s->stats().atomics;
    return n;
}

std::uint64_t
LlcSystem::totalBypasses() const
{
    std::uint64_t n = 0;
    for (const auto &s : slices_)
        n += s->stats().bypasses;
    return n;
}

std::uint64_t
LlcSystem::totalReads() const
{
    std::uint64_t n = 0;
    for (const auto &s : slices_)
        n += s->stats().reads;
    return n;
}

std::uint64_t
LlcSystem::totalAccesses() const
{
    std::uint64_t n = 0;
    for (const auto &s : slices_)
        n += s->stats().accesses();
    return n;
}

std::uint64_t
LlcSystem::totalResponses() const
{
    std::uint64_t n = 0;
    for (const auto &s : slices_)
        n += s->stats().responses;
    return n;
}

double
LlcSystem::aggregateReadMissRate() const
{
    std::uint64_t reads = 0;
    std::uint64_t misses = 0;
    for (const auto &s : slices_) {
        reads += s->stats().reads;
        misses += s->stats().readMisses;
    }
    return reads == 0
        ? 0.0
        : static_cast<double>(misses) / static_cast<double>(reads);
}

void
LlcSystem::registerStats(StatSet &set) const
{
    set.addCounter("llc.profile_windows", "profiling windows",
                   stats_.profileWindows);
    set.addCounter("llc.decisions_private", "private decisions",
                   stats_.decisionsPrivate);
    set.addCounter("llc.decisions_shared", "shared decisions",
                   stats_.decisionsShared);
    set.addCounter("llc.rule1_fires", "Rule #1 transitions",
                   stats_.rule1Fires);
    set.addCounter("llc.rule2_fires", "Rule #2 transitions",
                   stats_.rule2Fires);
    set.addCounter("llc.atomic_vetoes",
                   "shared decisions forced by global atomics",
                   stats_.atomicVetoes);
    set.addCounter("llc.reconfig_stall_cycles",
                   "cycles stalled for reconfiguration",
                   stats_.reconfigStallCycles);
    set.addCounter("llc.cycles_private", "cycles in private mode",
                   stats_.cyclesPrivate);
    set.addCounter("llc.cycles_shared", "cycles in shared mode",
                   stats_.cyclesShared);
    const LlcSystem *self = this;
    set.add("llc.read_miss_rate", "aggregate LLC read miss rate",
            [self]() { return self->aggregateReadMissRate(); });
    for (const auto &s : slices_)
        s->registerStats(set);
}

void
LlcSystem::saveCkpt(CkptWriter &w) const
{
    mapper_.saveCkpt(w);
    profiler_.saveCkpt(w);
    tracker_.saveCkpt(w);
    for (const auto &s : slices_)
        s->saveCkpt(w);
    w.u8(static_cast<std::uint8_t>(state_));
    w.u64(stateDeadline_);
    w.u64(windowMid_);
    w.b(midMarked_);
    w.u64(epochEnd_);
    w.u64(stallStart_);
    w.b(reprofileRequested_);
    w.b(profilingActive_);
    w.u64(atomicsBaseline_);
    ckptValue(w, lastSnap_);
    w.pod(stats_);
}

void
LlcSystem::loadCkpt(CkptReader &r)
{
    mapper_.loadCkpt(r);
    profiler_.loadCkpt(r);
    tracker_.loadCkpt(r);
    for (auto &s : slices_)
        s->loadCkpt(r);
    const std::uint8_t st = r.u8();
    if (st > static_cast<std::uint8_t>(CtrlState::UngateWait))
        r.fail("bad LLC controller state");
    state_ = static_cast<CtrlState>(st);
    stateDeadline_ = r.u64();
    windowMid_ = r.u64();
    midMarked_ = r.b();
    epochEnd_ = r.u64();
    stallStart_ = r.u64();
    reprofileRequested_ = r.b();
    profilingActive_ = r.b();
    atomicsBaseline_ = r.u64();
    ckptValue(r, lastSnap_);
    r.pod(stats_);
}

} // namespace amsc
