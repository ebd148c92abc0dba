#include "obs/recorder.hh"

#include "common/log.hh"
#include "llc/slice_mapper.hh"
#include "obs/perfetto_sink.hh"

namespace amsc::obs
{

namespace
{

std::string
u64s(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
f6(double v)
{
    return strfmt("%.6g", v);
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0
        ? 0.0
        : static_cast<double>(num) / static_cast<double>(den);
}

} // namespace

TimelineRecorder::TimelineRecorder(GpuSystem &gpu,
                                   std::unique_ptr<TimelineSink> sink,
                                   std::unique_ptr<StatsStreamer> stream)
    : gpu_(gpu), sink_(std::move(sink)), stream_(std::move(stream)),
      period_(gpu.config().statsStreamPeriod)
{
    if (!sink_)
        sink_ = std::make_unique<NullTimelineSink>();

    LlcSystem &llc = gpu_.llc();
    ctrlTrack_ = sink_->registerTrack("LLC controller",
                                      "app0 adaptive FSM");
    sliceTrack_ = sink_->registerTrack("LLC slices", "counters");
    dramTrack_ = sink_->registerTrack("DRAM", "counters");
    nocTrack_ = sink_->registerTrack("NoC", "counters");

    slicePrev_.resize(llc.numSlices());
    mcPrev_.resize(gpu_.memory().numMcs());

    // The controller entered its initial state before any observer
    // could attach; open that phase explicitly.
    sink_->phaseBegin(ctrlTrack_, llc.phaseName(), gpu_.now());

    // Request-driver programs (open-loop serving): two tracks per
    // serving app. Arrival instants are emitted at the next
    // kernel-management point but carry the true (earlier) arrival
    // cycle, so they live on their own track -- per-track timestamps
    // stay monotonic (trace_check) because arrivals drain in arrival
    // order while launches/completions are stamped at emission time.
    for (AppId a = 0; a < gpu_.config().numApps(); ++a) {
        WorkloadProgram *prog = gpu_.program(a);
        if (!prog || !prog->servingStats())
            continue;
        const int arrivals =
            sink_->registerTrack(strfmt("app%u serving", a),
                                 "request arrivals");
        const int requests = sink_->registerTrack(
            strfmt("app%u serving", a), "batches");
        servingApps_.push_back(a);
        prog->setServingObserver(
            [this, arrivals, requests](const ServingEvent &e) {
                onServingEvent(arrivals, requests, e);
            });
    }

    llc.setEventObserver(
        [this](const LlcCtrlEvent &e) { onCtrlEvent(e); });
    gpu_.memory().setCommandObserver(
        [this](McId mc, const McCommand &cmd) {
            if (cmd.kind == McCommand::Kind::Activate)
                ++mcPrev_[mc].acts;
            else if (cmd.kind == McCommand::Kind::Refresh)
                ++mcPrev_[mc].refreshes;
        });
    gpu_.setCycleObserver(period_,
                          [this](Cycle now) { sample(now); });
}

TimelineRecorder::~TimelineRecorder()
{
    if (!finished_)
        finish();
    gpu_.setCycleObserver(0, nullptr);
    gpu_.llc().setEventObserver(nullptr);
    gpu_.memory().setCommandObserver(nullptr);
    for (const AppId a : servingApps_) {
        if (WorkloadProgram *prog = gpu_.program(a))
            prog->setServingObserver({});
    }
}

void
TimelineRecorder::onCtrlEvent(const LlcCtrlEvent &e)
{
    switch (e.kind) {
      case LlcCtrlEvent::Kind::Phase:
        sink_->phaseBegin(ctrlTrack_, e.phase, e.at);
        break;

      case LlcCtrlEvent::Kind::Decision:
        sink_->instant(
            ctrlTrack_, "decision", e.at,
            {numArg("rule", u64s(static_cast<std::uint64_t>(e.rule))),
             numArg("to_private", e.toPrivate ? "1" : "0"),
             numArg("atomic_veto", e.atomicVeto ? "1" : "0"),
             numArg("shared_miss_rate", f6(e.snap.sharedMissRate)),
             numArg("private_miss_rate", f6(e.snap.privateMissRate)),
             numArg("shared_lsp", f6(e.snap.sharedLsp)),
             numArg("private_lsp", f6(e.snap.privateLsp)),
             numArg("shared_bw", f6(e.snap.sharedBw)),
             numArg("private_bw", f6(e.snap.privateBw)),
             numArg("sampled_accesses", u64s(e.snap.sampledAccesses)),
             numArg("warming", e.snap.warming ? "1" : "0")});
        break;

      case LlcCtrlEvent::Kind::Reprofile:
        sink_->instant(
            ctrlTrack_, "reprofile", e.at,
            {numArg("rule", "3"), strArg("reason", e.reason),
             numArg("atomic_veto", e.atomicVeto ? "1" : "0")});
        break;
    }
}

void
TimelineRecorder::onServingEvent(int arrival_track, int request_track,
                                 const ServingEvent &e)
{
    switch (e.kind) {
      case ServingEvent::Kind::Arrival:
        sink_->instant(arrival_track, "arrival", e.cycle,
                       {numArg("request", u64s(e.requestId)),
                        numArg("tenant", u64s(e.tenant)),
                        numArg("queue_depth", u64s(e.queueDepth))});
        break;

      case ServingEvent::Kind::BatchLaunch:
        sink_->instant(request_track, "batch_launch", e.cycle,
                       {numArg("request", u64s(e.requestId)),
                        numArg("tenant", u64s(e.tenant)),
                        numArg("batch_size", u64s(e.batchSize)),
                        numArg("queue_depth", u64s(e.queueDepth))});
        break;

      case ServingEvent::Kind::Completion:
        sink_->instant(request_track, "completion", e.cycle,
                       {numArg("request", u64s(e.requestId)),
                        numArg("tenant", u64s(e.tenant)),
                        numArg("batch_size", u64s(e.batchSize)),
                        numArg("queue_depth", u64s(e.queueDepth))});
        break;
    }
}

void
TimelineRecorder::sample(Cycle now)
{
    emitCounters(now);
    emitStreamRecord(now);
}

void
TimelineRecorder::emitCounters(Cycle now)
{
    LlcSystem &llc = gpu_.llc();
    for (SliceId s = 0; s < llc.numSlices(); ++s) {
        const LlcSlice &slice = llc.slice(s);
        const auto &st = slice.stats();
        SliceWindow &prev = slicePrev_[s];
        const std::uint64_t reads = st.reads - prev.reads;
        const std::uint64_t misses = st.readMisses - prev.readMisses;
        prev.reads = st.reads;
        prev.readMisses = st.readMisses;
        sink_->counter(
            sliceTrack_, strfmt("slice%u.occupancy", s).c_str(), now,
            ratio(slice.tags().numValidLines(),
                  slice.tags().numLines()));
        sink_->counter(sliceTrack_,
                       strfmt("slice%u.miss_rate", s).c_str(), now,
                       ratio(misses, reads));
    }

    MemorySystem &mem = gpu_.memory();
    for (McId m = 0; m < mem.numMcs(); ++m) {
        const McStats &st = mem.mc(m).stats();
        McWindow &prev = mcPrev_[m];
        const std::uint64_t hits = st.rowHits - prev.rowHits;
        const std::uint64_t misses = st.rowMisses - prev.rowMisses;
        const std::uint64_t busy =
            st.busBusyCycles - prev.busBusyCycles;
        sink_->counter(dramTrack_,
                       strfmt("mc%u.row_hit_rate", m).c_str(), now,
                       ratio(hits, hits + misses));
        sink_->counter(
            dramTrack_, strfmt("mc%u.queue_depth", m).c_str(), now,
            static_cast<double>(mem.mc(m).pendingRequests()));
        sink_->counter(dramTrack_,
                       strfmt("mc%u.bus_busy", m).c_str(), now,
                       ratio(busy, now - prevAt_));
        sink_->counter(dramTrack_, strfmt("mc%u.acts", m).c_str(),
                       now, static_cast<double>(prev.acts));
        sink_->counter(dramTrack_,
                       strfmt("mc%u.refreshes", m).c_str(), now,
                       static_cast<double>(prev.refreshes));
        prev.rowHits = st.rowHits;
        prev.rowMisses = st.rowMisses;
        prev.busBusyCycles = st.busBusyCycles;
        prev.acts = 0;
        prev.refreshes = 0;
    }

    const Network &net = gpu_.network();
    const Cycle window = now - prevAt_;
    const std::uint64_t req_flits =
        net.requestStats().flitsDelivered - prevReqFlits_;
    const std::uint64_t rep_flits =
        net.replyStats().flitsDelivered - prevRepFlits_;
    sink_->counter(nocTrack_, "noc.req_flits_per_cycle", now,
                   ratio(req_flits, window));
    sink_->counter(nocTrack_, "noc.rep_flits_per_cycle", now,
                   ratio(rep_flits, window));
    sink_->counter(nocTrack_, "noc.inject_stalls", now,
                   static_cast<double>(
                       net.requestStats().injectionStalls +
                       net.replyStats().injectionStalls -
                       prevInjectStalls_));
}

void
TimelineRecorder::emitStreamRecord(Cycle now)
{
    // Window deltas (RunResult-style), then advance the snapshots;
    // the counter pass above must not advance these shared ones.
    const Cycle window = now - prevAt_;
    const std::uint64_t instr =
        gpu_.totalInstructions() - prevInstr_;

    LlcSystem &llc = gpu_.llc();
    const std::uint64_t llc_acc =
        llc.totalAccesses() - prevLlcAccesses_;
    const std::uint64_t llc_reads = llc.totalReads() - prevLlcReads_;
    std::uint64_t read_misses = 0;
    for (SliceId s = 0; s < llc.numSlices(); ++s)
        read_misses += llc.slice(s).stats().readMisses;
    const std::uint64_t llc_miss = read_misses - prevLlcReadMisses_;

    const std::uint64_t dram_acc =
        gpu_.memory().totalAccesses() - prevDramAccesses_;
    const Network &net = gpu_.network();
    const std::uint64_t req_flits =
        net.requestStats().flitsDelivered - prevReqFlits_;
    const std::uint64_t rep_flits =
        net.replyStats().flitsDelivered - prevRepFlits_;

    if (stream_) {
        stream_->write(
            now, window,
            {numArg("instructions", u64s(instr)),
             numArg("total_instructions",
                    u64s(gpu_.totalInstructions())),
             numArg("ipc", f6(ratio(instr, window))),
             numArg("llc_accesses", u64s(llc_acc)),
             numArg("llc_read_miss_rate",
                    f6(ratio(llc_miss, llc_reads))),
             numArg("dram_accesses", u64s(dram_acc)),
             numArg("noc_req_flits", u64s(req_flits)),
             numArg("noc_rep_flits", u64s(rep_flits)),
             numArg("reconfig_stall_cycles",
                    u64s(llc.stats().reconfigStallCycles)),
             strArg("mode", llcModeName(llc.mode(0)))});
    }

    prevAt_ = now;
    prevInstr_ = gpu_.totalInstructions();
    prevLlcAccesses_ = llc.totalAccesses();
    prevLlcReads_ = llc.totalReads();
    prevLlcReadMisses_ = read_misses;
    prevDramAccesses_ = gpu_.memory().totalAccesses();
    prevReqFlits_ = net.requestStats().flitsDelivered;
    prevRepFlits_ = net.replyStats().flitsDelivered;
    prevInjectStalls_ = net.requestStats().injectionStalls +
        net.replyStats().injectionStalls;
}

void
TimelineRecorder::finish()
{
    if (finished_)
        return;
    finished_ = true;
    const Cycle now = gpu_.now();
    // Final (short) window so totals reconcile with RunResult.
    if (now > prevAt_)
        sample(now);
    sink_->finish(now);
}

std::unique_ptr<TimelineRecorder>
TimelineRecorder::fromConfig(GpuSystem &gpu)
{
    const SimConfig &cfg = gpu.config();
    const bool want_timeline =
        cfg.timeline || !cfg.timelineOut.empty();
    const bool want_stream = !cfg.statsStreamOut.empty();
    if (!want_timeline && !want_stream)
        return nullptr;

    std::unique_ptr<TimelineSink> sink;
    if (want_timeline && !cfg.timelineOut.empty())
        sink = std::make_unique<PerfettoSink>(cfg.timelineOut);
    // timeline=true with no path: NullTimelineSink (constructor
    // default) -- the bench's overhead-isolation configuration.

    std::unique_ptr<StatsStreamer> stream;
    if (want_stream)
        stream = std::make_unique<StatsStreamer>(cfg.statsStreamOut);

    return std::make_unique<TimelineRecorder>(
        gpu, std::move(sink), std::move(stream));
}

} // namespace amsc::obs
