/**
 * @file
 * Differential and property tests of the sim_mode=event cycle core.
 *
 * The event core (GpuSystem::jumpToNextEvent) replaces per-cycle
 * ticking with jumps to min(component nextEventCycle). Its contract
 * is byte-identity with the tick loop, which this file pins from
 * three directions:
 *
 *  - differential runs: representative configurations (adaptive
 *    transitions with short and long power-gate stalls, multi-program
 *    partitioning, every NoC topology, idle-heavy runs, instruction
 *    budgets) run under both drivers and the RunResults are compared
 *    with identicalResults();
 *  - randomized differential fuzz: a fixed-seed slice of the
 *    scenario fuzzer (scenario/diff_fuzz.hh) -- the CLI counterpart
 *    is `amsc fuzz`, which reruns campaigns at scale;
 *  - the event contract itself: a step(1) harness asserting that a
 *    tick at a cycle below the advertised next event changes no
 *    observable state (the "no component mutates early" rule), that
 *    the advertised event is stable across the no-op ticks it
 *    skips, and that a finished system is quiescent (kNoCycle);
 *  - checkpointing under event mode: periodic checkpoints and
 *    stats-stream windows land on their exact grid cycles under both
 *    drivers even when a reconfiguration stall or an idle stretch
 *    spans them, the bytes match tick-mode bytes, and a
 *    checkpoint taken under one driver restores under the other
 *    (sim_mode is identity-excluded) to a bit-identical end state.
 *
 * The contract checker here is the Debug-build backstop for the
 * per-component nextEventCycle implementations: a component that
 * mutates state at a cycle earlier than its advertised event makes
 * the signature comparison fail on the exact cycle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/ckpt.hh"
#include "noc/network_factory.hh"
#include "obs/json_min.hh"
#include "obs/recorder.hh"
#include "scenario/diff_fuzz.hh"
#include "sim/gpu_system.hh"
#include "workloads/trace_gen.hh"

namespace amsc
{

namespace
{

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "amsc_event_" + name;
}

SimConfig
smallConfig()
{
    SimConfig cfg;
    cfg.numSms = 16;
    cfg.numClusters = 4;
    cfg.numMcs = 4;
    cfg.slicesPerMc = 4;
    cfg.maxResidentWarps = 16;
    cfg.maxResidentCtas = 2;
    cfg.maxCycles = 300000;
    cfg.profileLen = 1000;
    cfg.epochLen = 20000;
    return cfg;
}

TraceParams
baseParams(std::uint64_t seed)
{
    TraceParams t;
    t.pattern = AccessPattern::ZipfShared;
    t.sharedLines = 2048;
    t.sharedFraction = 0.6;
    t.privateLinesPerCta = 256;
    t.writeFraction = 0.1;
    t.atomicFraction = 0.05;
    t.memInstrsPerWarp = 60;
    t.computePerMem = 3;
    t.seed = seed;
    return t;
}

std::vector<KernelInfo>
defaultWorkload(std::uint64_t seed = 11)
{
    return {makeSyntheticKernel("k0", baseParams(seed), 32, 4)};
}

/** Broadcast-heavy workload that drives adaptive transitions. */
std::vector<KernelInfo>
broadcastWorkload(std::uint64_t seed)
{
    TraceParams t;
    t.pattern = AccessPattern::Broadcast;
    t.sharedLines = 4096;
    t.sharedFraction = 0.85;
    t.privateLinesPerCta = 128;
    t.writeFraction = 0.02;
    t.memInstrsPerWarp = 120;
    t.computePerMem = 2;
    t.seed = seed;
    return {makeSyntheticKernel("bk", t, 48, 4)};
}

/**
 * DRAM-round-trip stream with one resident CTA: most SMs retire
 * early and the machine spends long stretches waiting on exact
 * DelayQueue/DRAM events -- the workload class the event core jumps
 * across (see EventIsNotSlowerThanTickOnIdleHeavyRun).
 */
std::vector<KernelInfo>
idleHeavyWorkload(std::uint64_t seed, std::uint64_t mem_instrs = 2000)
{
    TraceParams t;
    t.pattern = AccessPattern::PrivateStream;
    t.privateLinesPerCta = 100000;
    t.writeFraction = 0.0;
    t.memInstrsPerWarp = mem_instrs;
    t.computePerMem = 0;
    t.seed = seed;
    return {makeSyntheticKernel("idle", t, 1, 1)};
}

RunResult
runMode(SimConfig cfg, SimMode mode,
        std::vector<std::vector<KernelInfo>> apps)
{
    cfg.simMode = mode;
    GpuSystem gpu(cfg);
    for (AppId a = 0; a < apps.size(); ++a)
        gpu.setWorkload(a, apps[a]);
    return gpu.run();
}

/** Both drivers on the same configuration and workloads. */
void
expectModesIdentical(const SimConfig &cfg,
                     std::vector<std::vector<KernelInfo>> apps)
{
    const RunResult tick = runMode(cfg, SimMode::Tick, apps);
    const RunResult event = runMode(cfg, SimMode::Event, apps);
    EXPECT_TRUE(identicalResults(tick, event))
        << "tick " << tick.cycles << " cycles / "
        << tick.instructions << " instrs vs event " << event.cycles
        << " cycles / " << event.instructions << " instrs";
}

/**
 * Observable-state signature for the event-contract checker: every
 * component statistic except the per-cycle activity counters the
 * event core compensates via advanceIdleCycles (Sm issueStallCycles,
 * LlcSystem cyclesPrivate/cyclesShared, router active/gated cycle
 * counts). Serialized through the checkpoint codec so padded structs
 * compare field-wise, never by raw memory.
 */
std::vector<std::uint8_t>
signature(GpuSystem &gpu)
{
    CkptWriter w;
    for (SmId s = 0; s < gpu.numSms(); ++s) {
        SmStats sm = gpu.sm(s).stats();
        sm.issueStallCycles = 0;
        w.pod(sm);
    }
    for (SliceId s = 0; s < gpu.llc().numSlices(); ++s)
        w.pod(gpu.llc().slice(s).stats());
    LlcSystemStats ctrl = gpu.llc().stats();
    ctrl.cyclesPrivate = 0;
    ctrl.cyclesShared = 0;
    w.pod(ctrl);
    ckptValue(w, gpu.llc().mode(0));
    for (McId m = 0; m < gpu.memory().numMcs(); ++m) {
        w.pod(gpu.memory().mc(m).stats());
        w.varint(gpu.memory().mc(m).pendingRequests());
    }
    w.pod(gpu.network().requestStats());
    w.pod(gpu.network().replyStats());
    NocActivity act = gpu.network().activity();
    for (RouterActivity &r : act.routers) {
        r.activeCycles = 0;
        r.gatedCycles = 0;
        ckptValue(w, r);
    }
    for (const LinkActivity &l : act.links)
        ckptValue(w, l);
    w.varint(gpu.totalInstructions());
    return w.takeBuffer();
}

} // namespace

// ------------------------------------------------ differential runs

TEST(EventCore, MatchesTickOnDefaultWorkload)
{
    expectModesIdentical(smallConfig(), {defaultWorkload()});
}

TEST(EventCore, MatchesTickAcrossAdaptiveTransitions)
{
    // Every reconfiguration stalls all SMs while the LLC drains and
    // power-gates; the event core jumps those stalls. A long gate
    // delay maximizes the skipped cycles, and the ideal NoC reports
    // exact events inside the drain phases as well.
    SimConfig base = smallConfig();
    base.llcPolicy = LlcPolicy::Adaptive;
    base.missTolerance = 0.3; // cross reconfigurations at this scale
    std::vector<std::pair<std::string, SimConfig>> cases;
    for (const Cycle gate_delay : {30u, 300u}) {
        SimConfig cfg = base;
        cfg.gateDelay = gate_delay;
        cases.emplace_back("gate_delay=" + std::to_string(gate_delay),
                           cfg);
    }
    SimConfig ideal = base;
    ideal.topology = NocTopology::Ideal;
    cases.emplace_back("ideal noc", ideal);

    for (const auto &[label, cfg] : cases) {
        const RunResult tick =
            runMode(cfg, SimMode::Tick, {broadcastWorkload(5)});
        ASSERT_GT(tick.llcCtrl.transitionsToPrivate, 0u) << label;
        const RunResult event =
            runMode(cfg, SimMode::Event, {broadcastWorkload(5)});
        EXPECT_TRUE(identicalResults(tick, event)) << label;
    }
}

TEST(EventCore, MatchesTickOnMultiProgramPartition)
{
    SimConfig cfg = smallConfig();
    cfg.llcPolicy = LlcPolicy::ForceShared;
    cfg.extraAppPolicies = {LlcPolicy::ForcePrivate};
    expectModesIdentical(
        cfg, {defaultWorkload(11), broadcastWorkload(9)});
}

TEST(EventCore, MatchesTickOnEveryTopology)
{
    for (const NocTopology topo :
         {NocTopology::Ideal, NocTopology::FullXbar,
          NocTopology::Concentrated, NocTopology::Hierarchical}) {
        SimConfig cfg = smallConfig();
        cfg.topology = topo;
        expectModesIdentical(cfg, {defaultWorkload()});
    }
}

TEST(EventCore, MatchesTickOnIdleHeavyRun)
{
    SimConfig cfg = smallConfig();
    cfg.topology = NocTopology::Ideal;
    cfg.idealNocLatency = 200;
    cfg.llcMissLatency = 100;
    cfg.l1Latency = 100;
    cfg.maxCycles = 2000000;
    expectModesIdentical(cfg, {idleHeavyWorkload(3)});
}

TEST(EventCore, EventModeSkipsCyclesOnEveryTopology)
{
    // The regression that would have caught the inert-event-mode bug:
    // with the conservative `drained() ? kNoCycle : now + 1` fallback
    // a flit NoC advertises no skippable future, so an idle-heavy run
    // (long DRAM/LLC round trips, one resident CTA) degrades to
    // per-cycle stepping exactly when event mode should win. Exact
    // per-component events must produce real multi-cycle jumps on
    // the ideal network and every crossbar topology -- covering the
    // majority of simulated cycles -- while staying bit-identical to
    // the tick driver.
    for (const NocTopology topo :
         {NocTopology::Ideal, NocTopology::FullXbar,
          NocTopology::Concentrated, NocTopology::Hierarchical}) {
        SimConfig cfg = smallConfig();
        cfg.topology = topo;
        cfg.llcMissLatency = 100;
        cfg.l1Latency = 100;
        cfg.maxCycles = 200000;
        const std::string label =
            "topology " + std::to_string(static_cast<int>(topo));

        const RunResult tick =
            runMode(cfg, SimMode::Tick, {idleHeavyWorkload(3)});

        SimConfig ec = cfg;
        ec.simMode = SimMode::Event;
        GpuSystem gpu(ec);
        gpu.setWorkload(0, idleHeavyWorkload(3));
        const RunResult event = gpu.run();

        EXPECT_TRUE(identicalResults(tick, event)) << label;
        EXPECT_GT(gpu.eventJumps(), 0u) << label;
        EXPECT_GT(gpu.jumpedCycles(), event.cycles / 2)
            << label << ": event mode stepped through "
            << (event.cycles - gpu.jumpedCycles()) << " of "
            << event.cycles << " cycles";
    }
}

TEST(EventCore, EventIsNotSlowerThanTickOnIdleHeavyRun)
{
    // The jump machinery must pay for itself where it exists to: on
    // the idle-heavy run (Table-1 machine, one warp streaming
    // all-miss lines behind long latencies) the event driver may not
    // be slower than the per-cycle loop on any topology. Best of
    // three interleaved wall times per driver keeps a noisy host
    // from failing the gate; a topology whose advertisement
    // degenerates to `now + 1` runs far slower than tick and still
    // fails it.
    for (const NocTopology topo :
         {NocTopology::Ideal, NocTopology::FullXbar,
          NocTopology::Concentrated, NocTopology::Hierarchical}) {
        SimConfig cfg;
        cfg.topology = topo;
        cfg.idealNocLatency = 200;
        cfg.llcMissLatency = 100;
        cfg.l1Latency = 100;
        cfg.maxCycles = 250000;
        const std::vector<KernelInfo> work = idleHeavyWorkload(3, 500);
        double best[2] = {1e30, 1e30};
        RunResult results[2];
        for (int rep = 0; rep < 3; ++rep) {
            for (int m = 0; m < 2; ++m) {
                const auto t0 = std::chrono::steady_clock::now();
                results[m] = runMode(
                    cfg, m == 0 ? SimMode::Tick : SimMode::Event,
                    {work});
                best[m] = std::min(
                    best[m], std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count());
            }
        }
        const std::string label = topologyName(topo);
        EXPECT_TRUE(identicalResults(results[0], results[1])) << label;
        EXPECT_GE(best[0] / best[1], 1.0)
            << label << ": tick " << best[0] << " s, event " << best[1]
            << " s over " << results[0].cycles << " cycles";
    }
}

TEST(EventCore, FlitNetworksAdvertiseExactEventsMidFlight)
{
    // Component-level pin of the same bug: while a packet is in
    // flight, a crossbar must advertise the real next event (a wire
    // arrival, a pipeline eligibility, a credit return), not `now+1`.
    // An event-driven ticker that trusts the advertisement must land
    // on the same delivery and drain cycles as per-cycle ticking.
    for (const NocTopology topo :
         {NocTopology::FullXbar, NocTopology::Concentrated,
          NocTopology::Hierarchical}) {
        NocParams p;
        p.topology = topo;
        p.numSms = 16;
        p.numClusters = 4;
        p.numMcs = 4;
        p.slicesPerMc = 4;
        const std::string label =
            "topology " + std::to_string(static_cast<int>(topo));

        NocMessage m;
        m.kind = MsgKind::ReadReq;
        m.src = 3;
        m.dst = 9;
        // Single flit at 32B channels: a lone flit crossing the
        // network leaves the pipeline sparse, so wire latencies and
        // pipeline eligibility show up as real >= 2-cycle gaps (a
        // multi-flit packet streams back-to-back and legitimately
        // keeps an event every cycle).
        m.sizeBytes = 16;

        // Reference: per-cycle ticking.
        auto ref = makeNetwork(p);
        ref->injectRequest(m, 0);
        Cycle refDeliver = kNoCycle, refDrain = kNoCycle;
        for (Cycle now = 0; now < 10000; ++now) {
            ref->tick(now);
            if (refDeliver == kNoCycle && ref->hasRequestFor(9)) {
                refDeliver = now;
                ref->popRequestFor(9, now);
            }
            if (refDeliver != kNoCycle && ref->drained()) {
                refDrain = now;
                break;
            }
        }
        ASSERT_NE(refDeliver, kNoCycle) << label;
        ASSERT_NE(refDrain, kNoCycle) << label;

        // Event-driven: jump straight to each advertised event.
        auto net = makeNetwork(p);
        net->injectRequest(m, 0);
        Cycle maxGap = 0, evDeliver = kNoCycle, evDrain = kNoCycle;
        Cycle now = 0;
        while (now < 10000) {
            net->tick(now);
            if (evDeliver == kNoCycle && net->hasRequestFor(9)) {
                evDeliver = now;
                net->popRequestFor(9, now);
            }
            if (evDeliver != kNoCycle && net->drained()) {
                evDrain = now;
                break;
            }
            const Cycle next = net->nextEventCycle(now);
            ASSERT_NE(next, kNoCycle)
                << label << ": un-drained network went silent at "
                << now;
            if (next > now + 1)
                maxGap = std::max(maxGap, next - now);
            now = std::max(next, now + 1);
        }
        EXPECT_EQ(evDeliver, refDeliver) << label;
        EXPECT_EQ(evDrain, refDrain) << label;
        // The advertisement must let the clock really jump while
        // flits sit on wires / in pipelines: the conservative
        // `now + 1` fallback never produces a gap >= 2.
        EXPECT_GE(maxGap, 2u) << label;
    }
}

TEST(EventCore, MatchesTickUnderInstructionBudget)
{
    SimConfig cfg = smallConfig();
    cfg.maxInstructions = 5000;
    expectModesIdentical(cfg, {defaultWorkload()});

    // The budget check must stop on the same 128-cycle boundary
    // after reconfiguration stalls the event core jumped.
    SimConfig adaptive = smallConfig();
    adaptive.llcPolicy = LlcPolicy::Adaptive;
    adaptive.missTolerance = 0.3;
    adaptive.maxInstructions = 50000;
    expectModesIdentical(adaptive, {broadcastWorkload(5)});
}

TEST(EventCore, MatchesTickAtMaxCyclesCutoff)
{
    SimConfig cfg = smallConfig();
    cfg.maxCycles = 7321; // deliberately off any grid
    expectModesIdentical(cfg, {defaultWorkload()});
}

// ----------------------------------------------- fixed-seed fuzzing

TEST(EventCore, FuzzedConfigsAreBitIdentical)
{
    // CI smoke slice of `amsc fuzz`; campaigns run the same engine
    // with hundreds of points. Any failure is reproducible with
    // `amsc fuzz --points=40 --seed=1009`, which writes the failing
    // scenario next to the build.
    const scenario::FuzzReport rep = scenario::runDiffFuzz(1009, 40);
    EXPECT_EQ(rep.points, 40u);
    std::string failing;
    for (const scenario::FuzzCase &c : rep.failing)
        failing += " #" + std::to_string(c.index);
    EXPECT_EQ(rep.failures, 0u) << "failing case(s):" << failing;
}

// ------------------------------------------- the event contract

namespace
{

/**
 * Tick-by-tick contract checker: whenever the advertised next event
 * lies beyond the cycle about to be ticked, that tick must leave the
 * observable signature untouched, and must not move the advertised
 * event either (the event core will skip straight to it, so an early
 * mutation or a drifting target would diverge the two drivers). Runs
 * the full workload to completion; @p min_noop guards against the
 * property passing vacuously.
 */
void
checkEventContract(const SimConfig &cfg, std::uint64_t min_noop,
                   const std::string &label)
{
    const RunResult ref =
        runMode(cfg, SimMode::Tick, {defaultWorkload()});
    ASSERT_TRUE(ref.finishedWork) << label;

    SimConfig c = cfg;
    GpuSystem gpu(c);
    gpu.setWorkload(0, defaultWorkload());
    // The first tick performs the initial kernel launches; kernel
    // management is sequenced by the run loop itself (manageDirty_),
    // not by the component contract, so the checker starts after it.
    gpu.step(1);

    std::uint64_t noopTicks = 0, checkedTicks = 0;
    std::vector<std::uint8_t> before = signature(gpu);
    while (gpu.now() < cfg.maxCycles &&
           gpu.totalInstructions() < ref.instructions) {
        const Cycle now = gpu.now();
        const Cycle next = gpu.eventNextCycle();
        gpu.step(1);
        const std::vector<std::uint8_t> after = signature(gpu);
        ++checkedTicks;
        // The event driver only jumps when the advertised event is
        // at least two cycles out (a `now+1` advertisement ticks
        // live), so that is the contract boundary: every cycle a
        // jump would skip must be a no-op and must not move the
        // advertised event earlier.
        if (next > now + 1) {
            ++noopTicks;
            ASSERT_EQ(before, after)
                << label << ": tick at cycle " << now
                << " mutated state although the next advertised "
                   "event was cycle "
                << next;
            ASSERT_EQ(gpu.eventNextCycle(), next)
                << label
                << ": advertised event drifted across the no-op "
                   "tick at cycle "
                << now;
        }
        before = after;
    }
    EXPECT_GT(noopTicks, min_noop) << label;
    EXPECT_GT(checkedTicks, noopTicks) << label;
}

} // namespace

TEST(EventCore, NoComponentMutatesBeforeAdvertisedEvent)
{
    SimConfig cfg = smallConfig();
    cfg.maxCycles = 60000;
    checkEventContract(cfg, 100, "default");
}

TEST(EventCore, NoComponentMutatesBeforeAdvertisedEventOnCrossbars)
{
    // The same checker over every flit-level topology: each router,
    // channel and concentrator event advertisement is machine-checked
    // against the byte signature. Before the crossbars advertised
    // exact events this held vacuously (conservative `now+1` skips
    // nothing while a flit is in flight); min_noop > 0 now also pins
    // that the crossbars produce real multi-cycle skips.
    for (const NocTopology topo :
         {NocTopology::FullXbar, NocTopology::Concentrated,
          NocTopology::Hierarchical}) {
        SimConfig cfg = smallConfig();
        cfg.topology = topo;
        cfg.maxCycles = 60000;
        checkEventContract(
            cfg, 100,
            "topology " +
                std::to_string(static_cast<int>(topo)));
    }
}

TEST(EventCore, FinishedSystemIsQuiescent)
{
    // After all work completes, a component may still conservatively
    // advertise `now` as its next event, but ticking further must be
    // observably idle: additional cycles change no signature bit.
    SimConfig cfg = smallConfig();
    GpuSystem gpu(cfg);
    gpu.setWorkload(0, defaultWorkload());
    const RunResult r = gpu.run();
    ASSERT_TRUE(r.finishedWork);
    const std::vector<std::uint8_t> done = signature(gpu);
    gpu.step(256);
    EXPECT_EQ(done, signature(gpu));
}

TEST(EventCore, AdvertisedEventNeverUnderReports)
{
    // Cross-driver spot check: at a range of cut points, the state
    // reached by ticking is identical to the state reached by a
    // fresh event-mode run to the same cycle -- i.e. the jumps
    // landed on every cycle that mattered.
    SimConfig cfg = smallConfig();
    for (const Cycle cut : {977u, 5021u, 20011u}) {
        SimConfig c = cfg;
        c.maxCycles = cut;
        const RunResult tick =
            runMode(c, SimMode::Tick, {defaultWorkload()});
        const RunResult event =
            runMode(c, SimMode::Event, {defaultWorkload()});
        EXPECT_TRUE(identicalResults(tick, event)) << "cut " << cut;
    }
}

// ------------------------------------- checkpoints under event mode

namespace
{

std::string
slurpFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/** Cycle of every record of the stats-stream text @p jsonl. */
std::vector<Cycle>
windowCycles(const std::string &jsonl)
{
    std::vector<Cycle> out;
    std::istringstream is(jsonl);
    std::string line;
    while (std::getline(is, line)) {
        obs::JsonValue v;
        std::string err;
        EXPECT_TRUE(obs::parseJson(line, v, err)) << err;
        const obs::JsonValue *cycle = v.find("cycle");
        EXPECT_NE(cycle, nullptr) << line;
        if (cycle)
            out.push_back(static_cast<Cycle>(cycle->number));
    }
    return out;
}

/**
 * Run @p cfg under both drivers with periodic checkpoints and a stats
 * stream. The last checkpoint and every stats window (bar the final
 * flush at the end of the run) must sit on an exact multiple of its
 * period, with no grid point missing; both drivers must write
 * identical bytes and RunResults.
 */
void
expectSamplesOnGrid(const SimConfig &cfg,
                    const std::vector<KernelInfo> &work,
                    const std::string &label)
{
    std::string ckpt[2], windows[2];
    RunResult results[2];
    for (int m = 0; m < 2; ++m) {
        const std::string tag =
            label + (m == 0 ? "_tick" : "_event");
        SimConfig c = cfg;
        c.simMode = m == 0 ? SimMode::Tick : SimMode::Event;
        c.checkpointPath = tmpPath(tag + ".ckpt");
        c.statsStreamOut = tmpPath(tag + ".jsonl");
        GpuSystem gpu(c);
        gpu.setWorkload(0, work);
        const auto rec = obs::TimelineRecorder::fromConfig(gpu);
        results[m] = gpu.run();
        const RunResult &r = results[m];
        if (rec)
            rec->finish();
        ASSERT_GT(r.cycles, cfg.checkpointEvery) << tag;
        ckpt[m] = slurpFile(c.checkpointPath);

        // Restore the last periodic checkpoint and verify it was
        // taken on the exact grid.
        GpuSystem restored(c);
        restored.setWorkload(0, work);
        std::istringstream is(ckpt[m]);
        restored.restore(is);
        EXPECT_GT(restored.now(), 0u) << tag;
        EXPECT_EQ(restored.now() % cfg.checkpointEvery, 0u)
            << tag << " checkpoint off-grid at cycle "
            << restored.now();
        std::remove(c.checkpointPath.c_str());

        windows[m] = slurpFile(c.statsStreamOut);
        const Cycle period = cfg.statsStreamPeriod;
        const std::vector<Cycle> cycles = windowCycles(windows[m]);
        EXPECT_EQ(cycles.size(),
                  r.cycles / period + (r.cycles % period != 0))
            << tag << ": grid windows missing";
        for (const Cycle at : cycles) {
            if (at != r.cycles) {
                EXPECT_EQ(at % period, 0u)
                    << tag << " window off-grid at cycle " << at;
            }
        }
        std::remove(c.statsStreamOut.c_str());
    }
    EXPECT_TRUE(identicalResults(results[0], results[1])) << label;
    EXPECT_EQ(ckpt[0], ckpt[1])
        << label << ": periodic checkpoint bytes differ between drivers";
    EXPECT_EQ(windows[0], windows[1])
        << label << ": stats-stream bytes differ between drivers";
}

} // namespace

TEST(EventCore, PeriodicCheckpointLandsOnGridAcrossJumps)
{
    // Idle-heavy run: the event core jumps hundreds of cycles at a
    // time, yet periodic checkpoints and stats windows must still
    // land on exact multiples of their periods, with bytes identical
    // to the tick driver's.
    SimConfig idle = smallConfig();
    idle.topology = NocTopology::Ideal;
    idle.idealNocLatency = 200;
    idle.llcMissLatency = 100;
    idle.l1Latency = 100;
    idle.maxCycles = 500000;
    idle.checkpointEvery = 4096;
    expectSamplesOnGrid(idle, idleHeavyWorkload(3), "idle");

    // Adaptive run whose two reconfigurations stall every SM for
    // ~300 cycles (cycles ~1255-1557 and ~20094-20395 of a
    // ~23.9k-cycle run): each stall spans stats-window grid points,
    // and the run's last checkpoint grid point (20200) lies inside
    // the second. The timeline observers ride along (null sink).
    SimConfig adaptive = smallConfig();
    adaptive.llcPolicy = LlcPolicy::Adaptive;
    adaptive.missTolerance = 0.3;
    adaptive.gateDelay = 300;
    adaptive.timeline = true;
    adaptive.statsStreamPeriod = 100;
    adaptive.checkpointEvery = 4040;
    expectSamplesOnGrid(adaptive, broadcastWorkload(5), "adaptive");
}

TEST(EventCore, CheckpointRestoresAcrossDrivers)
{
    // sim_mode is identity-excluded: a checkpoint written under one
    // driver restores under the other, and the continued run is
    // bit-identical to the unbroken reference either way.
    const SimConfig cfg = smallConfig();
    const RunResult reference =
        runMode(cfg, SimMode::Tick, {defaultWorkload()});

    for (int writer = 0; writer < 2; ++writer) {
        SimConfig wc = cfg;
        wc.simMode = writer == 0 ? SimMode::Tick : SimMode::Event;
        wc.checkpointEvery = 2048;
        wc.checkpointPath = tmpPath("xdrv.ckpt");
        {
            GpuSystem gpu(wc);
            gpu.setWorkload(0, defaultWorkload());
            gpu.run();
        }
        SimConfig rc = cfg;
        rc.simMode = writer == 0 ? SimMode::Event : SimMode::Tick;
        GpuSystem resumed(rc);
        resumed.setWorkload(0, defaultWorkload());
        {
            std::ifstream is(wc.checkpointPath, std::ios::binary);
            ASSERT_TRUE(is.good());
            resumed.restore(is);
        }
        const RunResult cont = resumed.run();
        EXPECT_TRUE(identicalResults(reference, cont))
            << (writer == 0 ? "tick->event" : "event->tick")
            << " resume diverged";
        std::remove(wc.checkpointPath.c_str());
    }
}

TEST(EventCore, CheckpointRestoresAcrossDriversOnCrossbars)
{
    // The flit-level topologies carry NoC state the ideal network
    // never has -- in-flight flits and credits, router buffers,
    // wormhole locks, concentrator cursors. A checkpoint written
    // mid-run under either driver must restore under the other and
    // finish bit-identical to the unbroken reference, per topology
    // and in both driver directions.
    for (const NocTopology topo :
         {NocTopology::FullXbar, NocTopology::Concentrated,
          NocTopology::Hierarchical}) {
        SimConfig cfg = smallConfig();
        cfg.topology = topo;
        const std::string label =
            "topology " + std::to_string(static_cast<int>(topo));
        const RunResult reference =
            runMode(cfg, SimMode::Tick, {defaultWorkload()});

        for (int writer = 0; writer < 2; ++writer) {
            SimConfig wc = cfg;
            wc.simMode = writer == 0 ? SimMode::Tick : SimMode::Event;
            wc.checkpointEvery = 2048;
            wc.checkpointPath = tmpPath("xbar_xdrv.ckpt");
            {
                GpuSystem gpu(wc);
                gpu.setWorkload(0, defaultWorkload());
                gpu.run();
            }
            SimConfig rc = cfg;
            rc.simMode = writer == 0 ? SimMode::Event : SimMode::Tick;
            GpuSystem resumed(rc);
            resumed.setWorkload(0, defaultWorkload());
            {
                std::ifstream is(wc.checkpointPath,
                                 std::ios::binary);
                ASSERT_TRUE(is.good()) << label;
                resumed.restore(is);
            }
            const RunResult cont = resumed.run();
            EXPECT_TRUE(identicalResults(reference, cont))
                << label << " "
                << (writer == 0 ? "tick->event" : "event->tick")
                << " resume diverged";
            std::remove(wc.checkpointPath.c_str());
        }
    }
}

} // namespace amsc
