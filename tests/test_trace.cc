/**
 * @file
 * Tests for the warp-trace capture & replay subsystem: the varint
 * record codec, writer -> reader round trips, corrupt-file handling,
 * per-warp stream determinism (the contract `amsc trace verify`
 * relies on), whole-system record-then-replay equality, and capture
 * through the sweep engine (trace_record on a scenario point,
 * replayed by an `app { replay = }` point).
 */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "throw_util.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "scenario/emit.hh"
#include "scenario/scenario.hh"
#include "sim/gpu_system.hh"
#include "sim/sweep.hh"
#include "trace/recording_gen.hh"
#include "trace/replay_gen.hh"
#include "trace/trace_format.hh"
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
    return ::testing::TempDir() + "amsc_" + name;
}

bool
sameInstr(const WarpInstr &a, const WarpInstr &b)
{
    if (a.computeCycles != b.computeCycles ||
        a.numAccesses != b.numAccesses || a.isWrite != b.isWrite ||
        a.isAtomic != b.isAtomic)
        return false;
    for (std::uint32_t i = 0; i < a.numAccesses; ++i) {
        if (a.addrs[i] != b.addrs[i])
            return false;
    }
    return true;
}

/** Drain @p gen with a fixed cycle cadence. */
std::vector<WarpInstr>
drain(WarpTraceGen &gen, Cycle step = 7)
{
    std::vector<WarpInstr> out;
    WarpInstr wi;
    Cycle now = 0;
    while (gen.nextInstr(wi, now)) {
        out.push_back(wi);
        now += step;
    }
    return out;
}

std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
spit(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** A stressy synthetic kernel: writes, atomics, divergent accesses. */
TraceParams
stressParams()
{
    TraceParams t;
    t.pattern = AccessPattern::ZipfShared;
    t.sharedLines = 4096;
    t.privateLinesPerCta = 512;
    t.sharedFraction = 0.7;
    t.writeFraction = 0.2;
    t.atomicFraction = 0.1;
    t.accessesPerInstr = 4;
    t.memInstrsPerWarp = 300;
    t.computePerMem = 3;
    t.seed = 7;
    return t;
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
    cfg.epochLen = 50000;
    return cfg;
}

std::vector<KernelInfo>
tinyWorkload()
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
    t.seed = 11;
    std::vector<KernelInfo> out;
    out.push_back(makeSyntheticKernel("k0", t, 32, 4));
    t.seed = 12;
    t.privateBase = (Addr{1} << 30) + (Addr{1} << 24);
    out.push_back(makeSyntheticKernel("k1", t, 32, 4));
    return out;
}

RunResult
recordWorkload(const SimConfig &cfg, std::vector<KernelInfo> kernels,
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

} // namespace

// ---------------------------------------------------------------- codec

TEST(TraceFormat, InstrCodecRoundTripsMixedStream)
{
    // Writes, atomics and divergent multi-access batches, with both
    // forward and backward address deltas.
    std::vector<WarpInstr> stream;
    WarpInstr a;
    a.computeCycles = 5;
    a.numAccesses = 1;
    a.addrs[0] = 1000;
    stream.push_back(a);

    WarpInstr b; // divergent read, 8 scattered accesses
    b.computeCycles = 0;
    b.numAccesses = kMaxAccessesPerInstr;
    for (std::uint32_t i = 0; i < kMaxAccessesPerInstr; ++i)
        b.addrs[i] = (i % 2 == 0) ? 5000 + i * 997 : 100 + i;
    stream.push_back(b);

    WarpInstr c; // store
    c.computeCycles = 3;
    c.numAccesses = 2;
    c.isWrite = true;
    c.addrs[0] = Addr{1} << 40;
    c.addrs[1] = (Addr{1} << 40) + 1;
    stream.push_back(c);

    WarpInstr d; // atomic
    d.computeCycles = 1;
    d.numAccesses = 1;
    d.isAtomic = true;
    d.addrs[0] = 42;
    stream.push_back(d);

    WarpInstr e; // pure compute batch
    e.computeCycles = 9;
    e.numAccesses = 0;
    stream.push_back(e);

    CkptWriter w;
    Addr prev = 0;
    for (const WarpInstr &wi : stream)
        encodeInstr(w, wi, prev);

    CkptReader r(w.buffer().data(), w.size());
    Addr dprev = 0;
    for (const WarpInstr &want : stream) {
        WarpInstr got;
        decodeInstr(r, got, dprev);
        EXPECT_TRUE(sameInstr(want, got));
    }
    EXPECT_TRUE(r.atEnd());
}

TEST(TraceFormat, DecodeRejectsBadAccessCount)
{
    const std::uint8_t buf[] = {0x0f, 0}; // 15 accesses > the max
    CkptReader r(buf, sizeof(buf), "<test>", 100);
    WarpInstr wi;
    Addr prev = 0;
    // The error offset is absolute: the reader's base plus position.
    AMSC_EXPECT_THROW_MSG(decodeInstr(r, wi, prev), FormatError,
                          "at byte 101: corrupt warp payload");
}

// ------------------------------------------------- writer/reader round trip

TEST(TraceRoundTrip, RecordingGenPreservesStreams)
{
    const std::string path = tmpPath("roundtrip.trc");
    const TraceParams params = stressParams();
    const KernelInfo kernel =
        makeSyntheticKernel("stress", params, 8, 4);

    auto writer = std::make_shared<TraceWriter>(path);
    const KernelInfo recording =
        wrapKernelForRecording(kernel, writer);
    std::vector<std::vector<WarpInstr>> recorded;
    for (CtaId cta = 0; cta < 8; ++cta) {
        for (std::uint32_t w = 0; w < 4; ++w) {
            auto gen = recording.makeGen(cta, w);
            recorded.push_back(drain(*gen));
        }
    }
    writer->finalize();

    auto reader = std::make_shared<const TraceReader>(path);
    ASSERT_EQ(reader->kernels().size(), 1u);
    EXPECT_EQ(reader->kernels()[0].name, "stress");
    EXPECT_EQ(reader->kernels()[0].numCtas, 8u);
    EXPECT_EQ(reader->kernels()[0].warpsPerCta, 4u);
    EXPECT_EQ(reader->kernels()[0].warps.size(), 32u);

    std::size_t idx = 0;
    for (CtaId cta = 0; cta < 8; ++cta) {
        for (std::uint32_t w = 0; w < 4; ++w, ++idx) {
            ReplayGen replay(reader, 0, cta, w);
            const std::vector<WarpInstr> got = drain(replay);
            ASSERT_EQ(got.size(), recorded[idx].size())
                << "cta " << cta << " warp " << w;
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_TRUE(sameInstr(recorded[idx][i], got[i]))
                    << "cta " << cta << " warp " << w << " instr "
                    << i;
            }
        }
    }
    std::remove(path.c_str());
}

TEST(TraceRoundTrip, PartialStreamIsFlushedOnDestruction)
{
    const std::string path = tmpPath("partial.trc");
    {
        auto writer = std::make_shared<TraceWriter>(path);
        const KernelInfo recording = wrapKernelForRecording(
            makeSyntheticKernel("p", stressParams(), 2, 2), writer);
        auto gen = recording.makeGen(0, 0);
        WarpInstr wi;
        for (int i = 0; i < 10; ++i)
            ASSERT_TRUE(gen->nextInstr(wi, i));
        gen.reset(); // kernel boundary / horizon analogue
        writer->finalize();
    }
    const TraceReader reader(path);
    const TraceWarpBlock *block = reader.findWarp(0, 0, 0);
    ASSERT_NE(block, nullptr);
    EXPECT_EQ(block->numInstrs, 10u);
    EXPECT_EQ(reader.findWarp(0, 1, 1), nullptr);
    std::remove(path.c_str());
}

TEST(TraceRoundTrip, MissingWarpReplaysAsEmptyStream)
{
    const std::string path = tmpPath("empty.trc");
    {
        TraceWriter writer(path);
        writer.beginKernel("k", 4, 2);
        writer.finalize();
    }
    auto reader = std::make_shared<const TraceReader>(path);
    ReplayGen gen(reader, 0, 3, 1);
    WarpInstr wi;
    EXPECT_FALSE(gen.nextInstr(wi, 0));
    std::remove(path.c_str());
}

// ------------------------------------------------------- corrupt files

TEST(TraceErrors, RejectsBadMagic)
{
    const std::string path = tmpPath("badmagic.trc");
    std::vector<std::uint8_t> bytes(64, 0);
    bytes[0] = 'X';
    spit(path, bytes);
    AMSC_EXPECT_THROW_MSG(TraceReader reader(path), FormatError,
                          "bad magic");
    std::remove(path.c_str());
}

TEST(TraceErrors, RejectsUnfinalizedFile)
{
    const std::string path = tmpPath("unfinalized.trc");
    {
        // Simulate a recording cut before finalize: write blocks,
        // then drop the file with a zero index offset.
        TraceWriter writer(path);
        writer.beginKernel("k", 1, 1);
        CkptWriter payload;
        Addr prev = 0;
        WarpInstr wi;
        wi.computeCycles = 1;
        wi.numAccesses = 1;
        wi.addrs[0] = 5;
        encodeInstr(payload, wi, prev);
        writer.writeWarpBlock(0, 0, 0, 1, payload.buffer());
        // Snapshot the unfinalized bytes, then let the writer seal
        // the file so its own invariants hold.
        writer.finalize();
    }
    std::vector<std::uint8_t> bytes = slurp(path);
    for (int i = 0; i < 8; ++i)
        bytes[16 + i] = 0; // zero the index offset
    spit(path, bytes);
    AMSC_EXPECT_THROW_MSG(TraceReader reader(path), FormatError,
                          "never finalized");
    std::remove(path.c_str());
}

TEST(TraceErrors, RejectsTruncatedIndex)
{
    const std::string path = tmpPath("truncated.trc");
    {
        TraceWriter writer(path);
        writer.beginKernel("k", 1, 1);
        writer.finalize();
    }
    std::vector<std::uint8_t> bytes = slurp(path);
    bytes.resize(bytes.size() - 4); // clip the end marker
    spit(path, bytes);
    AMSC_EXPECT_THROW_MSG(TraceReader reader(path), FormatError,
                          "truncated");
    std::remove(path.c_str());
}

TEST(TraceErrors, RejectsShortFile)
{
    const std::string path = tmpPath("short.trc");
    spit(path, std::vector<std::uint8_t>(10, 0));
    AMSC_EXPECT_THROW_MSG(TraceReader reader(path), FormatError,
                          "shorter");
    std::remove(path.c_str());
}

TEST(TraceErrors, RejectsMissingFile)
{
    AMSC_EXPECT_THROW_MSG(TraceReader reader(tmpPath("nonexistent.trc")),
                          IoError, "cannot open");
}

// ------------------------------------------- determinism (RNG seeding)

TEST(TraceDeterminism, WarpStreamIsPureFunctionOfSeedCtaWarp)
{
    // The replay-verify contract: a warp's stream must derive from
    // (seed, cta, warp) alone, regardless of construction order or
    // sibling generators.
    const TraceParams params = stressParams();
    const KernelInfo a = makeSyntheticKernel("a", params, 8, 4);
    const KernelInfo b = makeSyntheticKernel("b", params, 8, 4);

    // Consume some sibling streams from `a` first: no cross-warp
    // state may leak.
    drain(*a.makeGen(0, 0));
    drain(*a.makeGen(5, 3));

    for (const auto &[cta, warp] :
         {std::pair<CtaId, std::uint32_t>{0, 0}, {3, 1}, {7, 3}}) {
        auto ga = a.makeGen(cta, warp);
        auto gb = b.makeGen(cta, warp);
        const std::vector<WarpInstr> sa = drain(*ga);
        const std::vector<WarpInstr> sb = drain(*gb);
        ASSERT_EQ(sa.size(), sb.size());
        for (std::size_t i = 0; i < sa.size(); ++i)
            EXPECT_TRUE(sameInstr(sa[i], sb[i]));
    }
}

TEST(TraceDeterminism, DistinctWarpsGetDistinctStreams)
{
    const TraceParams params = stressParams();
    const KernelInfo k = makeSyntheticKernel("k", params, 8, 4);
    const std::vector<WarpInstr> s00 = drain(*k.makeGen(0, 0));
    const std::vector<WarpInstr> s01 = drain(*k.makeGen(0, 1));
    const std::vector<WarpInstr> s10 = drain(*k.makeGen(1, 0));
    ASSERT_EQ(s00.size(), s01.size());
    bool differs01 = false;
    bool differs10 = false;
    for (std::size_t i = 0; i < s00.size(); ++i) {
        differs01 |= !sameInstr(s00[i], s01[i]);
        differs10 |= !sameInstr(s00[i], s10[i]);
    }
    EXPECT_TRUE(differs01);
    EXPECT_TRUE(differs10);
}

TEST(TraceDeterminism, RecordingTwiceIsByteIdentical)
{
    // Bit-stability of the whole pipeline: two recordings of the same
    // configured run must produce byte-identical trace files.
    const SimConfig cfg = smallConfig();
    const std::string p1 = tmpPath("bitstable1.trc");
    const std::string p2 = tmpPath("bitstable2.trc");
    recordWorkload(cfg, tinyWorkload(), p1);
    recordWorkload(cfg, tinyWorkload(), p2);
    EXPECT_EQ(slurp(p1), slurp(p2));
    std::remove(p1.c_str());
    std::remove(p2.c_str());
}

// --------------------------------------------- system record-then-replay

TEST(TraceSystem, ReplayReproducesRecordedRunExactly)
{
    const SimConfig cfg = smallConfig();
    const std::string path = tmpPath("system.trc");
    const RunResult rec =
        recordWorkload(cfg, tinyWorkload(), path);
    ASSERT_TRUE(rec.finishedWork);

    auto reader = std::make_shared<const TraceReader>(path);
    EXPECT_EQ(reader->kernels().size(), 2u);
    EXPECT_TRUE(reader->summary().valid);
    EXPECT_EQ(reader->summary().cycles, rec.cycles);

    GpuSystem gpu(cfg);
    gpu.setWorkload(0, WorkloadSuite::buildReplayKernels(reader));
    const RunResult rep = gpu.run();

    EXPECT_EQ(rep.cycles, rec.cycles);
    EXPECT_EQ(rep.instructions, rec.instructions);
    EXPECT_DOUBLE_EQ(rep.ipc, rec.ipc);
    EXPECT_EQ(rep.llcAccesses, rec.llcAccesses);
    EXPECT_EQ(rep.dramAccesses, rec.dramAccesses);
    EXPECT_DOUBLE_EQ(rep.llcReadMissRate, rec.llcReadMissRate);
    EXPECT_DOUBLE_EQ(rep.llcResponseRate, rec.llcResponseRate);
    EXPECT_TRUE(rep.finishedWork);
    std::remove(path.c_str());
}

TEST(TraceSystem, RecordingDoesNotPerturbTheRun)
{
    // The decorator must be transparent: recorded and plain runs of
    // the same workload produce identical metrics.
    const SimConfig cfg = smallConfig();
    const std::string path = tmpPath("transparent.trc");
    const RunResult rec =
        recordWorkload(cfg, tinyWorkload(), path);

    GpuSystem gpu(cfg);
    gpu.setWorkload(0, tinyWorkload());
    const RunResult plain = gpu.run();

    EXPECT_EQ(plain.cycles, rec.cycles);
    EXPECT_EQ(plain.instructions, rec.instructions);
    EXPECT_EQ(plain.llcAccesses, rec.llcAccesses);
    EXPECT_DOUBLE_EQ(plain.llcReadMissRate, rec.llcReadMissRate);
    std::remove(path.c_str());
}

// -------------------------------------- capture through the sweep engine

namespace
{

/** The single point of a scenario on the smallConfig() machine. */
SweepPoint
scenarioPoint(const std::string &config, const std::string &apps)
{
    const std::string text = "config {\n"
                             "  num_sms = 16\n"
                             "  num_clusters = 4\n"
                             "  num_mcs = 4\n"
                             "  slices_per_mc = 4\n"
                             "  max_warps = 16\n"
                             "  max_ctas = 2\n"
                             "  max_cycles = 300000\n"
                             "  profile_len = 1000\n" +
        config + "}\n" + apps;
    const auto points =
        scenario::Scenario::fromKv(
            scenario::Scenario::parseScnText(text), "inline")
            .expand();
    EXPECT_EQ(points.size(), 1u);
    return points.at(0).point;
}

} // namespace

TEST(TraceSweep, RecordedScenarioPointReplaysBitExactly)
{
    const std::string path = tmpPath("sweep.trc");
    const std::string quoted = "\"" + path + "\"";
    const SweepPoint recorder = scenarioPoint(
        "  llc_policy = adaptive\n  trace_record = " + quoted + "\n",
        "app {\n"
        "  pattern = zipf\n"
        "  shared_lines = 2048\n"
        "  atomic_fraction = 0.05\n"
        "  mem_instrs = 60\n"
        "  ctas = 32\n"
        "  warps = 4\n"
        "}\n");
    const std::vector<RunResult> rec = SweepRunner(1).run({recorder});
    ASSERT_TRUE(rec[0].finishedWork);
    const TraceReader reader(path);
    EXPECT_TRUE(reader.summary().valid);
    EXPECT_EQ(reader.summary().cycles, rec[0].cycles);

    const SweepPoint replayer =
        scenarioPoint("  llc_policy = adaptive\n",
                      "app {\n  replay = " + quoted + "\n}\n");
    const std::vector<RunResult> rep = SweepRunner(1).run({replayer});
    EXPECT_TRUE(identicalResults(rec[0], rep[0]));
    const std::vector<scenario::EmitPoint> row{{"point", {}}};
    EXPECT_EQ(scenario::emitCsv(row, rec), scenario::emitCsv(row, rep));
    std::remove(path.c_str());
}

// ------------------------------------------------ committed golden trace

namespace
{

/** The run of tests/golden/small.trc: two tiny synthetic kernels. */
std::vector<KernelInfo>
goldenWorkload()
{
    TraceParams t;
    t.pattern = AccessPattern::ZipfShared;
    t.sharedLines = 512;
    t.sharedFraction = 0.6;
    t.privateLinesPerCta = 64;
    t.writeFraction = 0.2;
    t.atomicFraction = 0.1;
    t.accessesPerInstr = 3;
    t.memInstrsPerWarp = 12;
    t.computePerMem = 2;
    t.seed = 5;
    std::vector<KernelInfo> out;
    out.push_back(makeSyntheticKernel("g0", t, 4, 2));
    t.seed = 6;
    t.privateBase = (Addr{1} << 30) + (Addr{1} << 24);
    out.push_back(makeSyntheticKernel("g1", t, 4, 2));
    return out;
}

} // namespace

TEST(TraceGolden, WriterReproducesCommittedFileAndReaderReplaysIt)
{
    // The trace format is a persisted interface: a recording of the
    // same run must reproduce the committed file byte for byte
    // (header, warp-block framing, delta+varint records, index and
    // run summary), and that file must still replay the run.
    const std::string golden =
        std::string(AMSC_SOURCE_DIR) + "/tests/golden/small.trc";
    const std::string path = tmpPath("golden.trc");
    const RunResult rec =
        recordWorkload(smallConfig(), goldenWorkload(), path);
    ASSERT_TRUE(rec.finishedWork);
    if (std::getenv("AMSC_UPDATE_GOLDEN"))
        spit(golden, slurp(path));
    EXPECT_EQ(slurp(path), slurp(golden))
        << "the trace writer's bytes drifted from tests/golden/"
           "small.trc";
    std::remove(path.c_str());

    auto reader = std::make_shared<const TraceReader>(golden);
    ASSERT_EQ(reader->kernels().size(), 2u);
    EXPECT_EQ(reader->kernels()[1].name, "g1");
    EXPECT_TRUE(reader->summary().valid);
    EXPECT_EQ(reader->summary().cycles, rec.cycles);
    EXPECT_EQ(reader->summary().ipc, rec.ipc);
    GpuSystem gpu(smallConfig());
    gpu.setWorkload(0, WorkloadSuite::buildReplayKernels(reader));
    EXPECT_TRUE(identicalResults(gpu.run(), rec));
}

TEST(TraceSweep, RecordingNeedsOneGeneratedApp)
{
    const std::string path = tmpPath("rejected.trc");
    const std::string config =
        "  trace_record = \"" + path + "\"\n";
    AMSC_EXPECT_THROW_MSG(
        SweepRunner::runPoint(
            scenarioPoint(config, "workload = LUD+AN\n")),
        ConfigError, "trace_record");
    AMSC_EXPECT_THROW_MSG(
        SweepRunner::runPoint(scenarioPoint(
            config, "app {\n  class = llm_inference\n}\n")),
        ConfigError, "trace_record");
    // Rejected before anything is written.
    EXPECT_FALSE(std::ifstream(path).is_open());
}

} // namespace amsc
