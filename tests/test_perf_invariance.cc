/**
 * @file
 * Proof that the optimized cycle core and the sweep engine are
 * bit-exact.
 *
 * The cycle core carries several hot-path optimizations (push-model
 * reply delivery, event-driven kernel management, running retirement
 * counter, scheduler fast path). Their contract is: the observable
 * RunResult is identical, bit for bit, to the naive per-cycle loop.
 * This file pins that contract (the event-driven clock jumps are
 * pinned against the tick loop in tests/test_event_core.cc):
 *
 *  - record/replay invariance per workload class (single-app,
 *    multi-kernel, multi-program): a recorded run replays to the
 *    exact same RunResult through PR 1's trace subsystem;
 *  - the instruction budget stops runtime-appended work on the same
 *    check boundary under both drivers;
 *  - sweep invariance: SweepRunner at 4 threads returns results
 *    identical and identically ordered to a sequential loop;
 *  - the running instruction counter matches the per-SM stats sum.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/gpu_system.hh"
#include "sim/sweep.hh"
#include "trace/recording_gen.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_writer.hh"
#include "workloads/llm_inference.hh"
#include "workloads/suite.hh"
#include "workloads/trace_gen.hh"

namespace amsc
{

namespace
{

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "amsc_perf_" + name;
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

/** Single-app, single-kernel. */
std::vector<KernelInfo>
singleKernelWorkload()
{
    return {makeSyntheticKernel("k0", baseParams(11), 32, 4)};
}

/** Single-app, multi-kernel (exercises kernel-boundary flushes). */
std::vector<KernelInfo>
multiKernelWorkload()
{
    std::vector<KernelInfo> out;
    TraceParams t = baseParams(11);
    out.push_back(makeSyntheticKernel("k0", t, 32, 4));
    t.seed = 12;
    t.privateBase = (Addr{1} << 30) + (Addr{1} << 24);
    out.push_back(makeSyntheticKernel("k1", t, 32, 4));
    t.seed = 13;
    t.pattern = AccessPattern::Broadcast;
    t.sharedFraction = 0.8;
    out.push_back(makeSyntheticKernel("k2", t, 24, 4));
    return out;
}

/** Private-cache-friendly stream: drives adaptive transitions. */
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

RunResult
recordRun(const SimConfig &cfg, std::vector<KernelInfo> kernels,
          const std::string &path)
{
    auto writer = std::make_shared<TraceWriter>(path);
    RunResult r;
    {
        GpuSystem gpu(cfg);
        gpu.setWorkload(
            0, wrapKernelsForRecording(std::move(kernels), writer));
        r = gpu.run();
    }
    writer->setRunSummary(summarizeRun(r));
    writer->finalize();
    return r;
}

RunResult
replayRun(const SimConfig &cfg, const std::string &path)
{
    auto reader = std::make_shared<const TraceReader>(path);
    GpuSystem gpu(cfg);
    gpu.setWorkload(0, WorkloadSuite::buildReplayKernels(reader));
    return gpu.run();
}

} // namespace

// --------------------------------------- record/replay per workload class

TEST(PerfInvariance, ReplayMatchesSingleKernelRun)
{
    const SimConfig cfg = smallConfig();
    const std::string path = tmpPath("single.trc");
    const RunResult rec = recordRun(cfg, singleKernelWorkload(), path);
    ASSERT_TRUE(rec.finishedWork);
    EXPECT_TRUE(identicalResults(rec, replayRun(cfg, path)));
    std::remove(path.c_str());
}

TEST(PerfInvariance, ReplayMatchesMultiKernelRun)
{
    const SimConfig cfg = smallConfig();
    const std::string path = tmpPath("multik.trc");
    const RunResult rec = recordRun(cfg, multiKernelWorkload(), path);
    ASSERT_TRUE(rec.finishedWork);
    EXPECT_TRUE(identicalResults(rec, replayRun(cfg, path)));
    std::remove(path.c_str());
}

TEST(PerfInvariance, ReplayMatchesAdaptiveRunWithTransitions)
{
    SimConfig cfg = smallConfig();
    cfg.llcPolicy = LlcPolicy::Adaptive;
    // At this reduced scale Rule #1's default 2% tolerance never
    // fires; widen it so the run actually crosses reconfigurations.
    cfg.missTolerance = 0.3;
    const std::string path = tmpPath("adaptive.trc");
    const RunResult rec = recordRun(cfg, broadcastWorkload(5), path);
    ASSERT_TRUE(rec.finishedWork);
    // The point of this workload is to cross reconfigurations; make
    // sure it actually did.
    ASSERT_GT(rec.llcCtrl.transitionsToPrivate, 0u);
    EXPECT_TRUE(identicalResults(rec, replayRun(cfg, path)));
    std::remove(path.c_str());
}

TEST(PerfInvariance, MultiProgramRunIsStable)
{
    // No trace (recording hooks app 0 only); instead the whole
    // multi-program run must be exactly repeatable.
    SimConfig cfg = smallConfig();
    cfg.llcPolicy = LlcPolicy::ForceShared;
    cfg.extraAppPolicies = {LlcPolicy::ForcePrivate};
    const auto once = [&cfg]() {
        GpuSystem gpu(cfg);
        gpu.setWorkload(0, singleKernelWorkload());
        gpu.setWorkload(1, broadcastWorkload(9));
        return gpu.run();
    };
    const RunResult a = once();
    const RunResult b = once();
    ASSERT_TRUE(a.finishedWork);
    EXPECT_TRUE(identicalResults(a, b));
}

// --------------------------------------------- replacement-policy axis

TEST(PerfInvariance, AtdModelsTheMainTagPolicyForEveryReplValue)
{
    // The adaptive decision compares the measured shared miss rate
    // against the ATD's private estimate; an ATD replacing with a
    // different policy than the main tags would bias that comparison.
    // buildLlcParams must therefore mirror llc_repl (and the DRRIP
    // dueling knob) into the ATD for every policy value.
    for (const ReplPolicy p :
         {ReplPolicy::Lru, ReplPolicy::Fifo, ReplPolicy::Random,
          ReplPolicy::Srrip, ReplPolicy::Brrip, ReplPolicy::Drrip}) {
        SimConfig cfg = smallConfig();
        cfg.llcRepl = p;
        cfg.llcDuelSets = 2;
        const LlcParams lp = cfg.buildLlcParams();
        EXPECT_EQ(lp.profiler.atd.repl, lp.slice.repl);
        EXPECT_EQ(lp.slice.repl, p);
        EXPECT_EQ(lp.profiler.atd.duelSets, lp.slice.duelSets);
        // And the constructed system agrees end to end.
        GpuSystem gpu(cfg);
        EXPECT_EQ(gpu.llc().slice(0).tags().replKind(), p);
        EXPECT_EQ(gpu.llc().params().profiler.atd.repl, p);
    }
}

TEST(PerfInvariance, ReplayMatchesRripRunPerWorkloadClass)
{
    // Record/replay bit-exactness must survive the RRIP-family
    // policies and the streaming bypass: one run per workload class
    // (single-kernel zipf, multi-kernel mixed, broadcast with
    // adaptive transitions).
    struct Case
    {
        const char *name;
        ReplPolicy repl;
        BypassPolicy bypass;
        bool adaptive;
    };
    const Case cases[] = {
        {"single_srrip", ReplPolicy::Srrip, BypassPolicy::None, false},
        {"multik_drrip", ReplPolicy::Drrip, BypassPolicy::Stream,
         false},
        {"adaptive_brrip", ReplPolicy::Brrip, BypassPolicy::Stream,
         true},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        SimConfig cfg = smallConfig();
        cfg.llcRepl = c.repl;
        cfg.llcBypass = c.bypass;
        if (c.adaptive) {
            cfg.llcPolicy = LlcPolicy::Adaptive;
            cfg.missTolerance = 0.3;
        }
        std::vector<KernelInfo> kernels;
        if (c.adaptive)
            kernels = broadcastWorkload(5);
        else if (std::string(c.name).rfind("multik", 0) == 0)
            kernels = multiKernelWorkload();
        else
            kernels = singleKernelWorkload();
        const std::string path =
            tmpPath(std::string(c.name) + ".trc");
        const RunResult rec =
            recordRun(cfg, std::move(kernels), path);
        ASSERT_TRUE(rec.finishedWork);
        EXPECT_TRUE(identicalResults(rec, replayRun(cfg, path)));
        std::remove(path.c_str());
    }
}

// ------------------------------------ runtime-appended work vs the budget

namespace
{

LlmServingParams
smallServingParams()
{
    LlmServingParams p;
    p.ratePerKCycle = 6.0;
    p.tenants = 2;
    p.maxBatch = 2;
    p.totalRequests = 12;
    p.ctxTokens = 64;
    p.decodeTokens = 8;
    p.dModel = 256;
    p.layers = 2;
    p.seed = 77;
    return p;
}

} // namespace

TEST(PerfInvariance, InstructionBudgetHandlesRuntimeAppendedWork)
{
    // The budget bookkeeping counts *retired* instructions -- never a
    // per-app total fixed at t=0 -- so a request driver that appends
    // work long after launch must still stop the run on the same
    // 128-cycle check boundary under the tick loop and the event
    // core.
    SimConfig cfg = smallConfig();
    cfg.maxCycles = 400000;
    cfg.maxInstructions = 20000;

    const auto once = [&cfg]() {
        GpuSystem gpu(cfg);
        gpu.setProgram(
            0, makeLlmInferenceProgram(smallServingParams()));
        return gpu.run();
    };

    const RunResult r_tick = once();
    cfg.simMode = SimMode::Event;
    const RunResult r_event = once();

    ASSERT_GE(r_tick.instructions, cfg.maxInstructions);
    ASSERT_FALSE(r_tick.finishedWork);
    EXPECT_EQ(r_tick.cycles & 127u, 0u);
    EXPECT_TRUE(identicalResults(r_tick, r_event));
}

// ----------------------------------------------------- counter invariants

TEST(PerfInvariance, RunningInstructionCounterMatchesSmStats)
{
    SimConfig cfg = smallConfig();
    GpuSystem gpu(cfg);
    gpu.setWorkload(0, multiKernelWorkload());
    const RunResult r = gpu.run();
    std::uint64_t sum = 0;
    for (SmId id = 0; id < gpu.numSms(); ++id)
        sum += gpu.sm(id).stats().instructions;
    EXPECT_EQ(r.instructions, sum);
    EXPECT_EQ(gpu.totalInstructions(), sum);
}

TEST(PerfInvariance, EmptyWorkloadStillTerminates)
{
    SimConfig cfg = smallConfig();
    GpuSystem gpu(cfg);
    const RunResult r = gpu.run();
    EXPECT_EQ(r.cycles, 1u);
    EXPECT_TRUE(r.finishedWork);
    EXPECT_EQ(r.instructions, 0u);
}

// --------------------------------------------------------- sweep engine

TEST(PerfInvariance, SweepRunnerMatchesSequentialBitForBit)
{
    SimConfig cfg = smallConfig();
    cfg.maxCycles = 60000;

    // A mixed grid: policies, topology change, multi-program point,
    // custom setup, post hook.
    std::vector<SweepPoint> points;
    for (const LlcPolicy p : {LlcPolicy::ForceShared,
                              LlcPolicy::ForcePrivate,
                              LlcPolicy::Adaptive}) {
        SweepPoint pt;
        pt.cfg = cfg;
        pt.cfg.llcPolicy = p;
        pt.setup = [](GpuSystem &gpu) {
            gpu.setWorkload(0, singleKernelWorkload());
        };
        points.push_back(std::move(pt));
    }
    {
        SweepPoint pt;
        pt.cfg = cfg;
        pt.cfg.topology = NocTopology::Ideal;
        pt.setup = [](GpuSystem &gpu) {
            gpu.setWorkload(0, broadcastWorkload(5));
        };
        points.push_back(std::move(pt));
    }
    {
        SweepPoint pt;
        pt.cfg = cfg;
        pt.cfg.extraAppPolicies = {LlcPolicy::ForcePrivate};
        pt.setup = [](GpuSystem &gpu) {
            gpu.setWorkload(0, singleKernelWorkload());
            gpu.setWorkload(1, broadcastWorkload(9));
        };
        pt.post = [](GpuSystem &gpu, RunResult &r) {
            // Post hooks run on the worker: smuggle a marker through.
            r.gpuActivity.nocEnergyUj =
                static_cast<double>(gpu.numSms());
        };
        points.push_back(std::move(pt));
    }

    // Sequential reference via the public single-point API.
    std::vector<RunResult> seq;
    seq.reserve(points.size());
    for (const SweepPoint &pt : points)
        seq.push_back(SweepRunner::runPoint(pt));

    const std::vector<RunResult> par1 = SweepRunner(1).run(points);
    const std::vector<RunResult> par4 = SweepRunner(4).run(points);

    ASSERT_EQ(par1.size(), seq.size());
    ASSERT_EQ(par4.size(), seq.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_TRUE(identicalResults(seq[i], par1[i])) << "point " << i;
        EXPECT_TRUE(identicalResults(seq[i], par4[i])) << "point " << i;
    }
    // Order stability: the marker of the multi-program point must be
    // in its slot, not anywhere else.
    EXPECT_EQ(par4.back().gpuActivity.nocEnergyUj, 16.0);
}

TEST(PerfInvariance, SweepRunnerRepeatedRunsAreIdentical)
{
    SimConfig cfg = smallConfig();
    cfg.maxCycles = 40000;
    std::vector<SweepPoint> points;
    for (int i = 0; i < 6; ++i) {
        SweepPoint pt;
        pt.cfg = cfg;
        pt.cfg.seed = 42 + static_cast<std::uint64_t>(i);
        pt.setup = [](GpuSystem &gpu) {
            gpu.setWorkload(0, singleKernelWorkload());
        };
        points.push_back(std::move(pt));
    }
    const SweepRunner runner(4);
    const std::vector<RunResult> a = runner.run(points);
    const std::vector<RunResult> b = runner.run(points);
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_TRUE(identicalResults(a[i], b[i])) << "point " << i;
}

TEST(PerfInvariance, ParallelForPropagatesExceptions)
{
    const SweepRunner runner(4);
    EXPECT_THROW(
        runner.parallelFor(16,
                           [](std::size_t i) {
                               if (i == 7)
                                   throw std::runtime_error("boom");
                           }),
        std::runtime_error);
}

TEST(PerfInvariance, ParallelForRunsEveryIndexOnce)
{
    const SweepRunner runner(4);
    std::vector<std::atomic<int>> counts(64);
    for (auto &c : counts)
        c.store(0);
    runner.parallelFor(counts.size(),
                       [&](std::size_t i) { ++counts[i]; });
    for (std::size_t i = 0; i < counts.size(); ++i)
        EXPECT_EQ(counts[i].load(), 1) << "index " << i;
}

} // namespace amsc
