#include "sim/gpu_system.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/atomic_io.hh"
#include "common/log.hh"
#include "gpu/cta_scheduler.hh"
#include "noc/network_factory.hh"
#include "sim/checkpoint.hh"

namespace amsc
{

void
saveRunResult(CkptWriter &w, const RunResult &r)
{
#ifdef __LP64__
    // Field-drift guard: a new RunResult field must join this list
    // and loadRunResult()'s, or the journal drops it and
    // identicalResults() stops comparing it. Other ABIs may pad
    // differently, so the size is pinned on LP64 only.
    static_assert(sizeof(RunResult) == 440,
                  "serialize the new RunResult field here and in "
                  "loadRunResult()");
#endif
    w.u64(r.cycles);
    w.varint(r.instructions);
    w.d(r.ipc);
    ckptValue(w, r.appIpc);
    ckptValue(w, r.appInstructions);
    w.b(r.finishedWork);
    w.d(r.llcReadMissRate);
    w.d(r.llcResponseRate);
    w.varint(r.llcAccesses);
    w.varint(r.llcBypasses);
    w.varint(r.dramAccesses);
    w.d(r.dramRowHitRate);
    w.varint(r.dramRefreshes);
    w.varint(r.dramQueueRejects);
    w.varint(r.dramWriteDrains);
    w.d(r.avgRequestLatency);
    w.d(r.avgReplyLatency);
    ckptValue(w, r.finalMode);
    w.pod(r.llcCtrl);
    ckptValue(w, r.sharingBuckets);
    ckptValue(w, r.nocActivity.routers);
    ckptValue(w, r.nocActivity.links);
    ckptValue(w, r.gpuActivity);
    w.b(r.servingActive);
    w.varint(r.requestsCompleted);
    w.d(r.reqLatencyP50);
    w.d(r.reqLatencyP99);
    w.d(r.batchOccupancy);
    w.d(r.queueDepthMean);
}

void
loadRunResult(CkptReader &r, RunResult &out)
{
    out.cycles = r.u64();
    out.instructions = r.varint();
    out.ipc = r.d();
    ckptValue(r, out.appIpc);
    ckptValue(r, out.appInstructions);
    out.finishedWork = r.b();
    out.llcReadMissRate = r.d();
    out.llcResponseRate = r.d();
    out.llcAccesses = r.varint();
    out.llcBypasses = r.varint();
    out.dramAccesses = r.varint();
    out.dramRowHitRate = r.d();
    out.dramRefreshes = r.varint();
    out.dramQueueRejects = r.varint();
    out.dramWriteDrains = r.varint();
    out.avgRequestLatency = r.d();
    out.avgReplyLatency = r.d();
    ckptValue(r, out.finalMode);
    r.pod(out.llcCtrl);
    ckptValue(r, out.sharingBuckets);
    ckptValue(r, out.nocActivity.routers);
    ckptValue(r, out.nocActivity.links);
    ckptValue(r, out.gpuActivity);
    out.servingActive = r.b();
    out.requestsCompleted = r.varint();
    out.reqLatencyP50 = r.d();
    out.reqLatencyP99 = r.d();
    out.batchOccupancy = r.d();
    out.queueDepthMean = r.d();
}

bool
identicalResults(const RunResult &a, const RunResult &b)
{
    CkptWriter x, y;
    saveRunResult(x, a);
    saveRunResult(y, b);
    return x.buffer() == y.buffer();
}

GpuSystem::GpuSystem(const SimConfig &config) : config_(config)
{
    config_.validate();

    mapping_ =
        std::make_unique<AddressMapping>(config_.buildMappingParams());
    net_ = makeNetwork(config_.buildNocParams());
    mem_ = std::make_unique<MemorySystem>(
        config_.numMcs, config_.buildDramParams(), *mapping_,
        config_.memSched);

    // SM -> application partitioning: single app owns everything;
    // multi-program splits each cluster evenly (paper Fig 9).
    const std::uint32_t apps = config_.numApps();
    smApp_.assign(config_.numSms, 0);
    if (apps > 1) {
        const std::uint32_t spc = config_.smsPerCluster();
        for (SmId sm = 0; sm < config_.numSms; ++sm) {
            const std::uint32_t local = sm % spc;
            smApp_[sm] = static_cast<AppId>(
                local * apps / spc);
        }
    }
    appSms_.resize(apps);
    for (SmId sm = 0; sm < config_.numSms; ++sm)
        appSms_[smApp_[sm]].push_back(sm);

    llc_ = std::make_unique<LlcSystem>(
        config_.buildLlcParams(), *mapping_, net_.get(), mem_.get(),
        [this](SmId sm) { return smApp_[sm]; },
        [this](SmId sm) { return sm / config_.smsPerCluster(); });

    llc_->setHooks(
        [this](bool stalled) {
            for (auto &sm : sms_)
                sm->setStalled(stalled);
        },
        [this]() { return net_->drained() && mem_->drained(); });

    mem_->setReadCallback(
        [this](Addr line, std::uint64_t token, Cycle now) {
            llc_->onDramReply(line, token, now);
        });

    sms_.reserve(config_.numSms);
    for (SmId id = 0; id < config_.numSms; ++id) {
        const ClusterId cluster = id / config_.smsPerCluster();
        const AppId app = smApp_[id];
        sms_.push_back(std::make_unique<Sm>(
            config_.buildSmParams(id), net_.get(),
            [this, cluster, app](Addr line) {
                return llc_->sliceFor(line, cluster, app);
            }));
        sms_.back()->setDoneCallback([this]() {
            manageDirty_ = true;
        });
        sms_.back()->setRetiredCounter(&instrRetired_);
    }

    // Replies go straight from the NoC into the owning SM the cycle
    // they become deliverable (no per-SM polling in tickOnce).
    net_->setReplyHandler([this](const NocMessage &msg, Cycle now) {
        sms_[msg.dst]->onReply(msg, now);
    });

    programs_.resize(apps);
    appRunning_.assign(apps, false);
    appRetired_.assign(apps, true);
    launchedEver_.assign(apps, false);
}

GpuSystem::~GpuSystem() = default;

void
GpuSystem::setWorkload(AppId app, std::vector<KernelInfo> kernels)
{
    setProgram(app,
               kernels.empty()
                   ? nullptr
                   : std::make_unique<StaticProgram>(
                         std::move(kernels)));
}

void
GpuSystem::setProgram(AppId app,
                      std::unique_ptr<WorkloadProgram> prog)
{
    if (app >= programs_.size())
        panic("setProgram: app %u out of range", app);
    programs_[app] = std::move(prog);
    launchedEver_[app] = false;
    unfinishedApps_ = 0;
    for (AppId a = 0; a < programs_.size(); ++a) {
        const bool unfinished = programs_[a] &&
            (appRunning_[a] || !programs_[a]->finished());
        if (unfinished)
            ++unfinishedApps_;
        appRetired_[a] = !unfinished;
    }
    manageDirty_ = true;
}

void
GpuSystem::launchKernel(AppId app, const KernelInfo &kernel)
{
    const std::vector<SmId> &app_sms = appSms_[app];
    // The app's SM list is cluster-major; its per-cluster width is
    // its share of each cluster (all of it for single-program runs).
    const std::uint32_t app_spc = std::max<std::uint32_t>(
        1,
        static_cast<std::uint32_t>(app_sms.size()) /
            config_.numClusters);
    const auto assignment = assignCtas(
        config_.ctaPolicy, kernel.numCtas,
        static_cast<std::uint32_t>(app_sms.size()), app_spc, app_sms);
    for (std::size_t i = 0; i < app_sms.size(); ++i)
        sms_[app_sms[i]]->launchKernel(&kernel, assignment[i], now_);
    appRunning_[app] = true;
    launchedEver_[app] = true;
    // A kernel that assigns no work (or whose streams are all empty)
    // produces no SM completion event; re-arm kernel management so
    // the next cycle advances past it, as the per-cycle scan did.
    bool any_busy = false;
    for (const SmId sm : app_sms)
        any_busy = any_busy || !sms_[sm]->done();
    if (!any_busy)
        manageDirty_ = true;
}

void
GpuSystem::manageKernels()
{
    programWakeAt_ = kNoCycle;
    for (AppId app = 0; app < programs_.size(); ++app) {
        WorkloadProgram *prog = programs_[app].get();
        if (!prog || appRetired_[app])
            continue;

        if (appRunning_[app]) {
            // Check whether the running kernel finished on all SMs.
            bool done = true;
            for (const SmId sm : appSms_[app]) {
                if (!sms_[sm]->done()) {
                    done = false;
                    break;
                }
            }
            if (!done)
                continue;
            appRunning_[app] = false;
            prog->onKernelDone(now_);
        }

        const KernelInfo *kernel = prog->nextKernel(now_);
        if (kernel) {
            if (launchedEver_[app]) {
                // Kernel boundary: software coherence flushes the
                // L1s and (if private) the LLC; the controller
                // re-profiles. The very first launch of an app skips
                // it, exactly like the former fixed-list path.
                for (const SmId sm : appSms_[app])
                    sms_[sm]->flushL1();
                llc_->onKernelLaunch(now_);
            }
            launchKernel(app, *kernel);
        } else if (prog->finished()) {
            appRetired_[app] = true;
            --unfinishedApps_;
        } else {
            // Idle but not finished: the program is waiting on a
            // future arrival. Arm the wake clamp so both cycle-core
            // drivers re-run kernel management at exactly that cycle.
            programWakeAt_ =
                std::min(programWakeAt_, prog->nextEventCycle(now_));
        }
    }
}

bool
GpuSystem::allWorkDone() const
{
    for (AppId app = 0; app < programs_.size(); ++app) {
        if (!programs_[app])
            continue;
        if (appRunning_[app] || !programs_[app]->finished())
            return false;
    }
    return true;
}

void
GpuSystem::setCycleObserver(Cycle period, CycleObserver obs)
{
    cycleObs_ = std::move(obs);
    obsPeriod_ = period;
    nextObsAt_ =
        (cycleObs_ && obsPeriod_ > 0) ? now_ + obsPeriod_ : kNoCycle;
}

void
GpuSystem::tickOnce()
{
    // A program arrival due this cycle re-runs kernel management in
    // this very tick; with no driver waiting the cost is one compare
    // against kNoCycle (the observer idiom below).
    if (now_ >= programWakeAt_) {
        programWakeAt_ = kNoCycle;
        manageDirty_ = true;
    }
    llc_->tick(now_);
    mem_->tick(now_);
    net_->tick(now_); // pushes delivered replies into the SMs
    for (auto &sm : sms_)
        sm->tick(now_);
    if (manageDirty_) {
        manageDirty_ = false;
        manageKernels();
    }
    ++now_;
    // Disabled observers cost exactly this compare (nextObsAt_ =
    // kNoCycle). Every grid point is reached by a live tick (event
    // jumps stop one cycle short of it), so samples land on the grid.
    if (now_ >= nextObsAt_) {
        cycleObs_(now_);
        nextObsAt_ += obsPeriod_;
    }
}

void
GpuSystem::step(Cycle n)
{
    for (Cycle i = 0; i < n; ++i)
        tickOnce();
}

Cycle
GpuSystem::eventNextCycle() const
{
    // SMs first: while any scheduler can issue the minimum is `now`,
    // and the early exit keeps the busy-phase overhead near one
    // inlined compare per call.
    Cycle e = kNoCycle;
    for (const auto &sm : sms_) {
        const Cycle se = sm->nextEventCycle(now_);
        if (se <= now_)
            return now_;
        e = std::min(e, se);
    }
    const Cycle me = mem_->nextEventCycle(now_);
    if (me <= now_)
        return now_;
    e = std::min(e, me);
    const Cycle ne = net_->nextEventCycle(now_);
    if (ne <= now_)
        return now_;
    e = std::min(e, ne);
    const Cycle le = llc_->nextEventCycle(now_);
    if (le <= now_)
        return now_;
    return std::min(e, le);
}

void
GpuSystem::jumpToNextEvent()
{
    // The next tick is never skippable while kernel management is
    // pending, and the loop exits on the next tick once all work is
    // done (the empty-workload run must still tick exactly once).
    if (manageDirty_ || unfinishedApps_ == 0)
        return;
    Cycle to = std::min(eventNextCycle(), config_.maxCycles);
    // A waiting request driver's next arrival is an exact event: the
    // tick at the wake cycle runs live (tickOnce re-arms kernel
    // management at its top), so landing *on* it matches tick mode.
    to = std::min(to, programWakeAt_);
    // Land one cycle short of each grid point the tick loop honors:
    // the live tick there brings now_ onto the grid with identical
    // state, so the observer fires, the checkpoint is written and
    // the instruction-budget check breaks on exactly the tick-mode
    // cycles. (Both grids hold nextAt > now_ outside a tick.)
    if (nextObsAt_ != kNoCycle)
        to = std::min(to, nextObsAt_ - 1);
    if (nextCkptAt_ != kNoCycle)
        to = std::min(to, nextCkptAt_ - 1);
    if (config_.maxInstructions != 0 &&
        instrRetired_ >= config_.maxInstructions)
        to = std::min(to, (((now_ >> 7) + 1) << 7) - 1);
    if (to <= now_ + 1)
        return;
    // Ticks in [now_, to) are no-ops apart from per-cycle activity
    // counters; account those and jump. The tick at `to` runs live.
    const Cycle skipped = to - now_;
    llc_->advanceIdleCycles(skipped);
    net_->advanceIdleCycles(skipped);
    for (auto &sm : sms_)
        sm->advanceIdleCycles(skipped);
    now_ = to;
    ++jumpCount_;
    jumpedCycles_ += skipped;
}

RunResult
GpuSystem::run()
{
    if (!started_) {
        started_ = true;
        manageDirty_ = false;
        manageKernels(); // initial launches
    }
    // Checkpoint grid points are absolute cycle numbers, so a
    // restored run continues the same schedule.
    nextCkptAt_ = kNoCycle;
    if (config_.checkpointEvery != 0) {
        nextCkptAt_ = (now_ / config_.checkpointEvery + 1) *
            config_.checkpointEvery;
    }
    const bool event_mode = config_.simMode == SimMode::Event;
    while (now_ < config_.maxCycles) {
        if (event_mode) {
            jumpToNextEvent();
            if (now_ >= config_.maxCycles)
                break;
        }
        tickOnce();
        if (now_ >= nextCkptAt_) {
            writeCheckpointFile();
            nextCkptAt_ += config_.checkpointEvery;
        }
        if (unfinishedApps_ == 0)
            break;
        if (config_.maxInstructions != 0 && (now_ & 127) == 0 &&
            instrRetired_ >= config_.maxInstructions)
            break;
    }
    return collect();
}

RunResult
GpuSystem::collect() const
{
    RunResult r;
    r.cycles = now_;
    r.instructions = instrRetired_;
    r.ipc = now_ == 0 ? 0.0
                      : static_cast<double>(r.instructions) /
            static_cast<double>(now_);
    r.finishedWork = allWorkDone();

    const std::uint32_t apps = config_.numApps();
    r.appInstructions.assign(apps, 0);
    for (const auto &sm : sms_)
        r.appInstructions[smApp_[sm->id()]] +=
            sm->stats().instructions;
    r.appIpc.assign(apps, 0.0);
    for (AppId a = 0; a < apps; ++a) {
        r.appIpc[a] = now_ == 0
            ? 0.0
            : static_cast<double>(r.appInstructions[a]) /
                static_cast<double>(now_);
    }

    r.llcReadMissRate = llc_->aggregateReadMissRate();
    r.llcAccesses = llc_->totalAccesses();
    r.llcBypasses = llc_->totalBypasses();
    r.llcResponseRate = now_ == 0
        ? 0.0
        : static_cast<double>(llc_->totalResponses()) /
            static_cast<double>(now_);
    r.dramAccesses = mem_->totalAccesses();
    const McStats dram = mem_->aggregateStats();
    r.dramRowHitRate = dram.rowHitRate();
    r.dramRefreshes = dram.refreshes;
    r.dramQueueRejects = dram.queueFullRejects;
    r.dramWriteDrains = dram.writeDrainEntries;
    r.avgRequestLatency = net_->requestStats().avgLatency();
    r.avgReplyLatency = net_->replyStats().avgLatency();

    r.finalMode = llc_->mode(0);
    r.llcCtrl = llc_->stats();
    for (std::size_t b = 0; b < 4; ++b)
        r.sharingBuckets[b] = llc_->sharingTracker().bucketFraction(b);

    r.nocActivity = net_->activity();

    r.gpuActivity.cycles = now_;
    r.gpuActivity.instructions = r.instructions;
    std::uint64_t l1_accesses = 0;
    for (const auto &sm : sms_)
        l1_accesses += sm->l1().stats().accesses();
    r.gpuActivity.l1Accesses = l1_accesses;
    r.gpuActivity.llcAccesses = r.llcAccesses;
    r.gpuActivity.dramAccesses = r.dramAccesses;

    // Open-loop serving metrics, merged across request-driver apps.
    std::vector<std::uint64_t> lat;
    std::uint64_t completed = 0;
    std::uint64_t batches = 0;
    std::uint64_t occ_sum = 0;
    std::uint64_t qdepth_sum = 0;
    for (const auto &prog : programs_) {
        const ServingStats *s =
            prog ? prog->servingStats() : nullptr;
        if (!s)
            continue;
        r.servingActive = true;
        completed += s->requestsCompleted;
        batches += s->batchesLaunched;
        occ_sum += s->batchOccupancySum;
        qdepth_sum += s->queueDepthSum;
        lat.insert(lat.end(), s->latencies.begin(),
                   s->latencies.end());
    }
    if (r.servingActive) {
        r.requestsCompleted = completed;
        std::sort(lat.begin(), lat.end());
        // Nearest-rank percentile: deterministic, no interpolation.
        const auto pct = [&lat](double p) {
            if (lat.empty())
                return 0.0;
            std::size_t idx = static_cast<std::size_t>(std::ceil(
                p * static_cast<double>(lat.size())));
            idx = idx == 0 ? 0 : idx - 1;
            if (idx >= lat.size())
                idx = lat.size() - 1;
            return static_cast<double>(lat[idx]);
        };
        r.reqLatencyP50 = pct(0.50);
        r.reqLatencyP99 = pct(0.99);
        r.batchOccupancy = batches == 0
            ? 0.0
            : static_cast<double>(occ_sum) /
                static_cast<double>(batches);
        r.queueDepthMean = batches == 0
            ? 0.0
            : static_cast<double>(qdepth_sum) /
                static_cast<double>(batches);
    }
    return r;
}

const KernelInfo *
GpuSystem::activeKernelOf(AppId app) const
{
    return programs_[app] ? programs_[app]->currentKernel() : nullptr;
}

void
GpuSystem::savePayload(CkptWriter &w) const
{
    w.u64(now_);
    w.b(started_);
    w.b(manageDirty_);
    w.u32(unfinishedApps_);
    w.u64(instrRetired_);
    w.u64(programWakeAt_);
    ckptValue(w, appRunning_);
    ckptValue(w, appRetired_);
    ckptValue(w, launchedEver_);
    // Program state (chain position, driver queues/RNG). The
    // programs themselves -- the kernel factories -- must be
    // re-supplied through setWorkload()/setProgram() before restore;
    // presence flags guard against a mismatched workload description.
    w.varint(programs_.size());
    for (const auto &prog : programs_) {
        w.b(prog != nullptr);
        if (prog)
            prog->saveCkpt(w);
    }
    for (const auto &sm : sms_) {
        sm->saveCkpt(w);
    }
    net_->saveCkpt(w);
    mem_->saveCkpt(w);
    llc_->saveCkpt(w);
}

void
GpuSystem::checkpoint(std::ostream &os) const
{
    CkptWriter w;
    savePayload(w);
    checkedStreamWrite(os, charView(frameCheckpoint(config_, w.buffer())),
                       "<checkpoint>");
}

void
GpuSystem::writeCheckpointFile() const
{
    CkptWriter w;
    savePayload(w);
    writeFileAtomic(config_.checkpointPath,
                    charView(frameCheckpoint(config_, w.buffer())));
}

void
GpuSystem::restore(std::istream &is)
{
    const std::string bytes = readStreamBytes(is, "<checkpoint>");
    const std::vector<std::uint8_t> payload =
        unframeCheckpoint(bytes, config_, "<checkpoint>");
    CkptReader r(payload.data(), payload.size());
    now_ = r.u64();
    started_ = r.b();
    manageDirty_ = r.b();
    unfinishedApps_ = r.u32();
    instrRetired_ = r.u64();
    programWakeAt_ = r.u64();
    ckptValue(r, appRunning_);
    ckptValue(r, appRetired_);
    ckptValue(r, launchedEver_);
    if (appRunning_.size() != programs_.size() ||
        appRetired_.size() != programs_.size() ||
        launchedEver_.size() != programs_.size())
        r.fail("application count mismatch");
    if (r.varint() != programs_.size())
        r.fail("workload count mismatch");
    for (std::size_t a = 0; a < programs_.size(); ++a) {
        if (r.b() != (programs_[a] != nullptr))
            r.fail("workload program mismatch: apply the recorded "
                   "setWorkload()/setProgram() calls before restore");
        if (programs_[a])
            programs_[a]->loadCkpt(r);
    }
    for (const auto &sm : sms_)
        sm->loadCkpt(r, activeKernelOf(smApp_[sm->id()]));
    net_->loadCkpt(r);
    mem_->loadCkpt(r);
    llc_->loadCkpt(r);
    if (!r.atEnd())
        r.fail("trailing bytes after checkpoint payload");
    // Re-arm the cycle observer on its absolute sampling grid.
    if (cycleObs_ && obsPeriod_ > 0) {
        nextObsAt_ = obsPeriod_;
        while (nextObsAt_ <= now_)
            nextObsAt_ += obsPeriod_;
    } else {
        nextObsAt_ = kNoCycle;
    }
}

void
GpuSystem::registerStats(StatSet &set) const
{
    net_->registerStats(set);
    llc_->registerStats(set);
    mem_->registerStats(set);
    for (const auto &sm : sms_)
        sm->registerStats(set);
}

} // namespace amsc
