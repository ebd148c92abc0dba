/**
 * @file
 * Checkpoint/restore tests: the crash-safety half of the robustness
 * contract (docs/robustness.md).
 *
 *  - Equivalence: restoring a checkpoint taken at cycle K and
 *    running to completion yields a RunResult *bit-identical* to the
 *    unbroken run -- across workload classes, multi-kernel
 *    sequences, atomics, the adaptive controller, multi-program
 *    partitions, record/replay workloads, every mem_backend preset
 *    and every replacement, bypass and DRAM-scheduling policy with
 *    state of its own.
 *  - Container integrity: any truncation, bit flip, version or
 *    config mismatch throws FormatError with the offending offset;
 *    a half-written checkpoint is never half-restored.
 *  - Periodic file checkpoints: checkpoint_every/checkpoint_path
 *    leave a complete, restorable file behind.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hh"
#include "sim/checkpoint.hh"
#include "sim/gpu_system.hh"
#include "throw_util.hh"
#include "trace/recording_gen.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_writer.hh"
#include "workloads/suite.hh"
#include "workloads/trace_gen.hh"

namespace amsc
{

namespace
{

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "amsc_ckpt_" + name;
}

/** Scaled-down but structurally faithful configuration. */
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
    cfg.maxCycles = 6000;
    cfg.profileLen = 1000;
    cfg.epochLen = 50000;
    return cfg;
}

/** A small synthetic kernel sequence. */
std::vector<KernelInfo>
tinyWorkload(AccessPattern pattern, std::uint32_t kernels = 1,
             double atomic_fraction = 0.0, std::uint64_t seed = 11)
{
    std::vector<KernelInfo> out;
    for (std::uint32_t k = 0; k < kernels; ++k) {
        TraceParams t;
        t.pattern = pattern;
        t.sharedLines = 2048;
        t.sharedFraction =
            pattern == AccessPattern::PrivateStream ? 0.0 : 0.8;
        t.privateLinesPerCta = 256;
        t.memInstrsPerWarp = 40;
        t.computePerMem = 3;
        t.atomicFraction = atomic_fraction;
        t.seed = seed + k;
        t.privateBase = (Addr{1} << 30) + (Addr{k} << 22);
        out.push_back(
            makeSyntheticKernel("k" + std::to_string(k), t, 32, 4));
    }
    return out;
}

using SetupFn = std::function<void(GpuSystem &)>;

SetupFn
singleApp(AccessPattern pattern, std::uint32_t kernels = 1,
          double atomic_fraction = 0.0)
{
    return [=](GpuSystem &gpu) {
        gpu.setWorkload(0,
                        tinyWorkload(pattern, kernels,
                                     atomic_fraction));
    };
}

RunResult
unbrokenRun(const SimConfig &cfg, const SetupFn &setup)
{
    GpuSystem gpu(cfg);
    setup(gpu);
    return gpu.run();
}

/** Run to cycle @p k, checkpoint into a string, and return it. */
std::string
checkpointAt(const SimConfig &cfg, const SetupFn &setup, Cycle k)
{
    SimConfig head = cfg;
    head.maxCycles = k;
    GpuSystem gpu(head);
    setup(gpu);
    gpu.run();
    std::ostringstream os;
    gpu.checkpoint(os);
    return os.str();
}

/** Restore @p bytes into a fresh system and run it to completion. */
RunResult
resumedRun(const SimConfig &cfg, const SetupFn &setup,
           const std::string &bytes)
{
    GpuSystem gpu(cfg);
    setup(gpu);
    std::istringstream is(bytes);
    gpu.restore(is);
    return gpu.run();
}

/**
 * The equivalence contract: for every checkpoint cycle in @p ks,
 * checkpoint-at-K + restore + run-to-end == the unbroken run, bit
 * for bit (identicalResults compares every field including the
 * activity snapshots).
 */
void
expectRestoreEquivalent(const SimConfig &cfg, const SetupFn &setup,
                        std::initializer_list<Cycle> ks)
{
    const RunResult a = unbrokenRun(cfg, setup);
    for (const Cycle k : ks) {
        const RunResult b =
            resumedRun(cfg, setup, checkpointAt(cfg, setup, k));
        EXPECT_TRUE(identicalResults(a, b))
            << "restore at cycle " << k
            << " diverged from the unbroken run";
    }
}

} // namespace

// -------------------------------------------------- equivalence matrix

TEST(CheckpointEquivalence, Broadcast)
{
    expectRestoreEquivalent(smallConfig(),
                            singleApp(AccessPattern::Broadcast),
                            {1, 1500, 4000});
}

TEST(CheckpointEquivalence, ZipfShared)
{
    expectRestoreEquivalent(smallConfig(),
                            singleApp(AccessPattern::ZipfShared),
                            {1, 1500, 4000});
}

TEST(CheckpointEquivalence, TiledShared)
{
    expectRestoreEquivalent(smallConfig(),
                            singleApp(AccessPattern::TiledShared),
                            {1500});
}

TEST(CheckpointEquivalence, PrivateStream)
{
    expectRestoreEquivalent(smallConfig(),
                            singleApp(AccessPattern::PrivateStream),
                            {1500});
}

TEST(CheckpointEquivalence, MultiKernelBoundaries)
{
    // Kernel launches, L1 flushes and generator recreation all sit
    // on the restore path; cross several boundaries.
    expectRestoreEquivalent(
        smallConfig(), singleApp(AccessPattern::ZipfShared, 3),
        {1, 2000, 4500});
}

TEST(CheckpointEquivalence, AtomicsInFlight)
{
    // Atomic serialization state (Sm::atomicPending_) must restore
    // in per-line arrival order.
    expectRestoreEquivalent(
        smallConfig(),
        singleApp(AccessPattern::ZipfShared, 1, 0.05), {1500, 3000});
}

TEST(CheckpointEquivalence, AdaptiveController)
{
    SimConfig cfg = smallConfig();
    ConfigRegistry::apply(cfg, "llc_policy", "adaptive");
    ConfigRegistry::apply(cfg, "track_sharing", "1");
    // Straddle profile windows and a possible reconfiguration.
    expectRestoreEquivalent(cfg,
                            singleApp(AccessPattern::Broadcast),
                            {999, 1024, 3000});
}

TEST(CheckpointEquivalence, MemBackendPresets)
{
    for (const char *preset : {"gddr5", "hbm2", "scm"}) {
        SimConfig cfg = smallConfig();
        ConfigRegistry::apply(cfg, "mem_backend", preset);
        expectRestoreEquivalent(
            cfg, singleApp(AccessPattern::ZipfShared), {2000});
    }
}

/** A policy with its own checkpointed state, as key=value. */
class PolicyState
    : public ::testing::TestWithParam<std::pair<std::string, std::string>>
{};

TEST_P(PolicyState, RestoresBitExactly)
{
    // Each of these policies saves and loads state of its own (FIFO
    // order, RNG, RRPVs, the DRRIP selector, bypass confidence, the
    // drain mode); a restore must resume it bit-identically. 16 KB
    // slices under a write-heavy Zipf stream keep victim choice,
    // bypassing and write drains on the path of the result.
    SimConfig cfg = smallConfig();
    cfg.maxCycles = 20000;
    ConfigRegistry::apply(cfg, "llc_slice_kb", "16");
    ConfigRegistry::apply(cfg, GetParam().first, GetParam().second);
    const SetupFn setup = [](GpuSystem &gpu) {
        TraceParams t;
        t.pattern = AccessPattern::ZipfShared;
        t.sharedLines = 4096;
        t.sharedFraction = 0.7;
        t.privateLinesPerCta = 128;
        t.writeFraction = 0.3;
        t.memInstrsPerWarp = 300;
        t.computePerMem = 1;
        t.seed = 17;
        gpu.setWorkload(0, {makeSyntheticKernel("k", t, 32, 4)});
    };
    expectRestoreEquivalent(cfg, setup, {5000, 12000});
}

INSTANTIATE_TEST_SUITE_P(
    CheckpointEquivalence, PolicyState,
    ::testing::Values(std::make_pair("llc_repl", "fifo"),
                      std::make_pair("llc_repl", "random"),
                      std::make_pair("llc_repl", "brrip"),
                      std::make_pair("llc_repl", "drrip"),
                      std::make_pair("llc_bypass", "stream"),
                      std::make_pair("mem_sched", "write_drain")),
    [](const auto &info) {
        return info.param.first + "_" + info.param.second;
    });

TEST(CheckpointEquivalence, MultiProgram)
{
    SimConfig cfg = smallConfig();
    cfg.llcPolicy = LlcPolicy::ForceShared;
    cfg.extraAppPolicies = {LlcPolicy::ForcePrivate};
    const SetupFn setup = [](GpuSystem &gpu) {
        gpu.setWorkload(0, tinyWorkload(AccessPattern::ZipfShared));
        gpu.setWorkload(1, tinyWorkload(AccessPattern::Broadcast, 1,
                                        0.0, 23));
    };
    expectRestoreEquivalent(cfg, setup, {1500, 3500});
}

TEST(CheckpointEquivalence, ReplayWorkload)
{
    // Record a run, then checkpoint/restore the *replay* of it: the
    // ReplayGen's file position and read-ahead buffer must collapse
    // and re-read bit-identically.
    const std::string trace = tmpPath("replay.trc");
    const SimConfig cfg = smallConfig();
    {
        auto writer = std::make_shared<TraceWriter>(trace);
        GpuSystem gpu(cfg);
        gpu.setWorkload(
            0, wrapKernelsForRecording(
                   tinyWorkload(AccessPattern::ZipfShared), writer));
        const RunResult r = gpu.run();
        writer->setRunSummary(summarizeRun(r));
        writer->finalize();
    }
    const SetupFn setup = [&trace](GpuSystem &gpu) {
        auto reader = std::make_shared<const TraceReader>(trace);
        gpu.setWorkload(0, WorkloadSuite::buildReplayKernels(reader));
    };
    expectRestoreEquivalent(cfg, setup, {1, 2000});
    std::remove(trace.c_str());
}

TEST(CheckpointEquivalence, BeforeFirstTick)
{
    // A checkpoint of a freshly built (never run) system restores to
    // the unbroken run: the initial kernel launch must happen once.
    const SimConfig cfg = smallConfig();
    const SetupFn setup = singleApp(AccessPattern::TiledShared);
    const RunResult a = unbrokenRun(cfg, setup);
    std::ostringstream os;
    {
        GpuSystem gpu(cfg);
        setup(gpu);
        gpu.checkpoint(os);
    }
    const RunResult b = resumedRun(cfg, setup, os.str());
    EXPECT_TRUE(identicalResults(a, b));
}

// ----------------------------------------------- periodic file writes

TEST(CheckpointFile, PeriodicCheckpointRestores)
{
    // The default shared policy, and the adaptive controller through
    // at least one mode transition: periodic checkpoints land in its
    // profiling, drain and power-gate phases too.
    SimConfig adaptive = smallConfig();
    adaptive.llcPolicy = LlcPolicy::Adaptive;
    adaptive.missTolerance = 0.3;
    const struct
    {
        const char *label;
        SimConfig cfg;
        SetupFn setup;
    } cases[] = {
        {"shared", smallConfig(), singleApp(AccessPattern::ZipfShared)},
        {"adaptive", adaptive, singleApp(AccessPattern::Broadcast)},
    };
    for (const auto &[label, cfg, setup] : cases) {
        const std::string path = tmpPath("periodic.ckpt");
        const RunResult a = unbrokenRun(cfg, setup);
        if (cfg.llcPolicy == LlcPolicy::Adaptive) {
            ASSERT_GT(a.llcCtrl.transitionsToPrivate +
                          a.llcCtrl.transitionsToShared,
                      0u)
                << label;
        }

        SimConfig with_ckpt = cfg;
        with_ckpt.checkpointEvery = 700;
        with_ckpt.checkpointPath = path;
        const RunResult b = unbrokenRun(with_ckpt, setup);
        // The knobs are observability-only: the run itself is
        // unchanged.
        EXPECT_TRUE(identicalResults(a, b)) << label;

        // The file holds the last grid checkpoint; restoring it and
        // finishing reproduces the run. Restore under the original
        // config: checkpoint_every/checkpoint_path are
        // identity-excluded.
        GpuSystem gpu(cfg);
        setup(gpu);
        std::ifstream is(path, std::ios::binary);
        ASSERT_TRUE(is.is_open()) << "no checkpoint file at " << path;
        gpu.restore(is);
        const RunResult c = gpu.run();
        EXPECT_TRUE(identicalResults(a, c)) << label;
        std::remove(path.c_str());
    }
}

// ------------------------------------------------- container integrity

namespace
{

/** A valid checkpoint byte string plus its config. */
std::string
sampleCheckpoint(const SimConfig &cfg)
{
    return checkpointAt(cfg, singleApp(AccessPattern::PrivateStream),
                        500);
}

void
expectRestoreThrows(const SimConfig &cfg, const std::string &bytes,
                    const std::string &msg)
{
    GpuSystem gpu(cfg);
    gpu.setWorkload(0, tinyWorkload(AccessPattern::PrivateStream));
    std::istringstream is(bytes);
    AMSC_EXPECT_THROW_MSG(gpu.restore(is), FormatError, msg);
}

} // namespace

TEST(CheckpointContainer, TruncationAlwaysDetected)
{
    const SimConfig cfg = smallConfig();
    const std::string bytes = sampleCheckpoint(cfg);
    expectRestoreThrows(cfg, bytes.substr(0, 10),
                        "truncated checkpoint header");
    expectRestoreThrows(cfg, bytes.substr(0, 40),
                        "truncated checkpoint payload");
    expectRestoreThrows(cfg, bytes.substr(0, bytes.size() / 2),
                        "truncated checkpoint payload");
    expectRestoreThrows(cfg, bytes.substr(0, bytes.size() - 1),
                        "truncated checkpoint payload");
}

TEST(CheckpointContainer, PayloadBitFlipFailsCrc)
{
    const SimConfig cfg = smallConfig();
    std::string bytes = sampleCheckpoint(cfg);
    bytes[40] = static_cast<char>(bytes[40] ^ 0x10);
    expectRestoreThrows(cfg, bytes, "CRC mismatch");
}

TEST(CheckpointContainer, BadMagicRejected)
{
    const SimConfig cfg = smallConfig();
    std::string bytes = sampleCheckpoint(cfg);
    bytes[0] = 'X';
    expectRestoreThrows(cfg, bytes, "bad checkpoint magic");
}

TEST(CheckpointContainer, UnsupportedVersionRejected)
{
    const SimConfig cfg = smallConfig();
    std::string bytes = sampleCheckpoint(cfg);
    bytes[8] = static_cast<char>(bytes[8] ^ 0x40);
    expectRestoreThrows(cfg, bytes, "unsupported checkpoint version");
}

TEST(CheckpointContainer, ConfigMismatchRejected)
{
    const SimConfig cfg = smallConfig();
    const std::string bytes = sampleCheckpoint(cfg);
    SimConfig other = cfg;
    other.seed += 1;
    expectRestoreThrows(other, bytes, "different configuration");
}

TEST(CheckpointContainer, ExcludedKeysMayDiffer)
{
    // Run-length limits and output paths are not part of the config
    // identity: a checkpoint may be resumed with a longer horizon
    // and different observability outputs.
    const SimConfig cfg = smallConfig();
    const SetupFn setup = singleApp(AccessPattern::PrivateStream);
    const std::string bytes = checkpointAt(cfg, setup, 500);
    SimConfig other = cfg;
    other.maxCycles += 2000;
    other.checkpointPath = tmpPath("never_written.ckpt");
    // The checkpoint taken under cfg restores under `other` (only
    // excluded keys differ) and continues to other's longer horizon,
    // matching the unbroken run at that horizon.
    const RunResult a = unbrokenRun(other, setup);
    const RunResult b = resumedRun(other, setup, bytes);
    EXPECT_TRUE(identicalResults(a, b));
}

TEST(CheckpointContainer, TrailingBytesRejected)
{
    const SimConfig cfg = smallConfig();
    const std::string bytes = sampleCheckpoint(cfg);
    std::vector<std::uint8_t> payload =
        unframeCheckpoint(bytes, cfg, "<test>");
    payload.push_back(0);
    const std::vector<std::uint8_t> framed = frameCheckpoint(cfg, payload);
    expectRestoreThrows(cfg, std::string(framed.begin(), framed.end()),
                        "trailing bytes");
}

TEST(CheckpointContainer, WorkloadMismatchRejected)
{
    // Restore requires the recorded setWorkload() calls first: a
    // 3-kernel checkpoint cannot restore into a 1-kernel system.
    const SimConfig cfg = smallConfig();
    const std::string bytes = checkpointAt(
        cfg, singleApp(AccessPattern::ZipfShared, 3), 2000);
    expectRestoreThrows(cfg, bytes, "kernel sequence mismatch");
}

TEST(CheckpointContainer, RecordingIsNotCheckpointable)
{
    // Recording generators have unreproducible side effects (a
    // half-written trace); checkpoint() refuses with a typed error.
    const std::string trace = tmpPath("recording.trc");
    SimConfig cfg = smallConfig();
    cfg.maxCycles = 300;
    auto writer = std::make_shared<TraceWriter>(trace);
    GpuSystem gpu(cfg);
    gpu.setWorkload(
        0, wrapKernelsForRecording(
               tinyWorkload(AccessPattern::PrivateStream), writer));
    gpu.run();
    std::ostringstream os;
    AMSC_EXPECT_THROW_MSG(gpu.checkpoint(os), SimError,
                          "not checkpointable");
    std::remove(trace.c_str());
}

// ----------------------------------------------------- config validation

TEST(CheckpointConfig, KnobValidation)
{
    SimConfig cfg = smallConfig();
    cfg.checkpointEvery = 100;
    AMSC_EXPECT_THROW_MSG(cfg.validate(), ConfigError,
                          "checkpoint_every requires");
    cfg.checkpointPath = tmpPath("v.ckpt");
    cfg.traceRecordPath = tmpPath("v.trc");
    AMSC_EXPECT_THROW_MSG(cfg.validate(), ConfigError, "exclusive");
}

} // namespace amsc
