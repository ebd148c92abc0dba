/**
 * @file
 * Sweep-journal and fault-tolerant-sweep tests: the sharded
 * resume/merge half of the robustness contract (docs/robustness.md).
 *
 *  - RunResult codec round-trips bit-exactly (doubles as raw IEEE
 *    bit patterns), and identicalResults() -- a compare of its
 *    encodings -- sees a change to any one field.
 *  - SweepJournal create/append/reopen, torn-tail truncation, and
 *    rejection of foreign or mismatched journals.
 *  - sweepIdentityHash is sensitive to every result-relevant input,
 *    including the identity-excluded run-length limits.
 *  - SweepRunner's skip mask + onResult hook and the
 *    sweep_on_error=abort|skip failure policy, also for a
 *    configuration a component constructor rejects.
 *  - The CSV, JSON and table emitters add an error column only when
 *    a point failed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hh"
#include "scenario/emit.hh"
#include "sim/journal.hh"
#include "sim/sweep.hh"
#include "throw_util.hh"
#include "workloads/trace_gen.hh"

namespace amsc
{

namespace
{

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "amsc_jnl_" + name;
}

/** A RunResult with every field kind populated. */
RunResult
sampleResult(std::uint64_t salt)
{
    RunResult r;
    r.cycles = 1000 + salt;
    r.instructions = 42 * (salt + 1);
    r.ipc = 0.1 * static_cast<double>(salt) + 0.333333333333333;
    r.appIpc = {1.5, 2.25 + static_cast<double>(salt)};
    r.appInstructions = {7, 9 + salt};
    r.finishedWork = (salt & 1) != 0;
    r.llcReadMissRate = 0.25;
    r.llcResponseRate = 1.75;
    r.llcAccesses = 123 + salt;
    r.llcBypasses = 3;
    r.dramAccesses = 77;
    r.dramRowHitRate = 0.5;
    r.dramRefreshes = 2;
    r.dramQueueRejects = 11;
    r.dramWriteDrains = 1;
    r.avgRequestLatency = 31.5;
    r.avgReplyLatency = 28.125;
    r.finalMode = salt & 1 ? LlcMode::Private : LlcMode::Shared;
    r.llcCtrl.profileWindows = 4 + salt;
    r.llcCtrl.transitionsToPrivate = 1;
    r.sharingBuckets = {0.5, 0.25, 0.125, 0.125};
    r.nocActivity.routers.resize(2);
    r.nocActivity.routers[0].activeCycles = 10 + salt;
    r.nocActivity.links.resize(3);
    r.gpuActivity.cycles = 1000 + salt;
    r.gpuActivity.nocEnergyUj = 0.75;
    return r;
}

/** A fast SweepPoint whose setup optionally throws SimError. */
SweepPoint
tinyPoint(const std::string &label, bool failing = false,
          SweepOnError on_error = SweepOnError::Abort)
{
    SweepPoint p;
    p.cfg.numSms = 4;
    p.cfg.numClusters = 2;
    p.cfg.numMcs = 2;
    p.cfg.slicesPerMc = 2;
    p.cfg.maxResidentWarps = 8;
    p.cfg.maxResidentCtas = 1;
    p.cfg.maxCycles = 400;
    p.cfg.profileLen = 100;
    p.cfg.sweepOnError = on_error;
    p.label = label;
    p.setup = [failing](GpuSystem &gpu) {
        if (failing)
            throw SimError("injected point failure");
        TraceParams t;
        t.pattern = AccessPattern::PrivateStream;
        t.privateLinesPerCta = 64;
        t.memInstrsPerWarp = 20;
        gpu.setWorkload(0, {makeSyntheticKernel("k", t, 4, 2)});
    };
    return p;
}

JournalHeader
sampleHeader()
{
    JournalHeader h;
    h.sweepHash = 0x1234567890abcdefull;
    h.shardIndex = 1;
    h.shardCount = 3;
    h.totalPoints = 7;
    return h;
}

void
appendBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
}

std::uintmax_t
fileSize(const std::string &path)
{
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    return static_cast<std::uintmax_t>(is.tellg());
}

} // namespace

// ------------------------------------------------------ result codec

TEST(RunResultCodec, RoundTripsBitExactly)
{
    for (std::uint64_t salt : {0ull, 1ull, 31ull}) {
        const RunResult in = sampleResult(salt);
        CkptWriter w;
        saveRunResult(w, in);
        CkptReader r(w.buffer().data(), w.buffer().size(), "<test>");
        RunResult out;
        loadRunResult(r, out);
        EXPECT_TRUE(r.atEnd());
        EXPECT_TRUE(identicalResults(in, out)) << "salt " << salt;
    }
}

TEST(RunResultCodec, IdenticalResultsSeesEveryField)
{
    // identicalResults() compares saveRunResult() encodings: changing
    // any one field -- nested controller, NoC and GPU activity fields
    // included -- makes two results differ.
    using Edit = void (*)(RunResult &);
    const Edit edits[] = {
        [](RunResult &r) { ++r.cycles; },
        [](RunResult &r) { ++r.instructions; },
        [](RunResult &r) { r.ipc += 1e-12; },
        [](RunResult &r) { r.appIpc[1] = -r.appIpc[1]; },
        [](RunResult &r) { r.appIpc.push_back(0.0); },
        [](RunResult &r) { ++r.appInstructions[0]; },
        [](RunResult &r) { r.finishedWork = !r.finishedWork; },
        [](RunResult &r) { r.llcReadMissRate = 0.3; },
        [](RunResult &r) { r.llcResponseRate = 1.5; },
        [](RunResult &r) { ++r.llcAccesses; },
        [](RunResult &r) { ++r.llcBypasses; },
        [](RunResult &r) { ++r.dramAccesses; },
        [](RunResult &r) { r.dramRowHitRate = 0.6; },
        [](RunResult &r) { ++r.dramRefreshes; },
        [](RunResult &r) { ++r.dramQueueRejects; },
        [](RunResult &r) { ++r.dramWriteDrains; },
        [](RunResult &r) { r.avgRequestLatency = 32.0; },
        [](RunResult &r) { r.avgReplyLatency = 29.0; },
        [](RunResult &r) { r.finalMode = LlcMode::Shared; },
        [](RunResult &r) { ++r.llcCtrl.profileWindows; },
        [](RunResult &r) { ++r.llcCtrl.decisionsPrivate; },
        [](RunResult &r) { ++r.llcCtrl.decisionsShared; },
        [](RunResult &r) { ++r.llcCtrl.rule1Fires; },
        [](RunResult &r) { ++r.llcCtrl.rule2Fires; },
        [](RunResult &r) { ++r.llcCtrl.atomicVetoes; },
        [](RunResult &r) { ++r.llcCtrl.transitionsToPrivate; },
        [](RunResult &r) { ++r.llcCtrl.transitionsToShared; },
        [](RunResult &r) { ++r.llcCtrl.reconfigStallCycles; },
        [](RunResult &r) { ++r.llcCtrl.cyclesPrivate; },
        [](RunResult &r) { ++r.llcCtrl.cyclesShared; },
        [](RunResult &r) { r.sharingBuckets[3] = 0.0; },
        [](RunResult &r) { r.nocActivity.routers.pop_back(); },
        [](RunResult &r) { ++r.nocActivity.routers[1].numInPorts; },
        [](RunResult &r) { ++r.nocActivity.routers[1].numOutPorts; },
        [](RunResult &r) { ++r.nocActivity.routers[1].numVcs; },
        [](RunResult &r) { ++r.nocActivity.routers[1].vcDepthFlits; },
        [](RunResult &r) { ++r.nocActivity.routers[1].channelWidthBytes; },
        [](RunResult &r) { r.nocActivity.routers[1].gateable = true; },
        [](RunResult &r) { ++r.nocActivity.routers[1].bufferWrites; },
        [](RunResult &r) { ++r.nocActivity.routers[1].bufferReads; },
        [](RunResult &r) { ++r.nocActivity.routers[1].xbarTraversals; },
        [](RunResult &r) { ++r.nocActivity.routers[1].allocRounds; },
        [](RunResult &r) { ++r.nocActivity.routers[1].activeCycles; },
        [](RunResult &r) { ++r.nocActivity.routers[1].gatedCycles; },
        [](RunResult &r) { ++r.nocActivity.routers[1].bypassTraversals; },
        [](RunResult &r) { r.nocActivity.links.pop_back(); },
        [](RunResult &r) { r.nocActivity.links[2].lengthMm = 2.5; },
        [](RunResult &r) { ++r.nocActivity.links[2].widthBytes; },
        [](RunResult &r) { ++r.nocActivity.links[2].flitTraversals; },
        [](RunResult &r) { ++r.gpuActivity.cycles; },
        [](RunResult &r) { ++r.gpuActivity.instructions; },
        [](RunResult &r) { ++r.gpuActivity.l1Accesses; },
        [](RunResult &r) { ++r.gpuActivity.llcAccesses; },
        [](RunResult &r) { ++r.gpuActivity.dramAccesses; },
        [](RunResult &r) { r.gpuActivity.nocEnergyUj = 0.5; },
        [](RunResult &r) { r.servingActive = true; },
        [](RunResult &r) { ++r.requestsCompleted; },
        [](RunResult &r) { r.reqLatencyP50 = 10.0; },
        [](RunResult &r) { r.reqLatencyP99 = 20.0; },
        [](RunResult &r) { r.batchOccupancy = 4.0; },
        [](RunResult &r) { r.queueDepthMean = 2.0; },
    };
    const RunResult base = sampleResult(3);
    EXPECT_TRUE(identicalResults(base, sampleResult(3)));
    for (std::size_t i = 0; i < std::size(edits); ++i) {
        RunResult changed = base;
        edits[i](changed);
        EXPECT_FALSE(identicalResults(base, changed)) << "edit " << i;
        EXPECT_FALSE(identicalResults(changed, base)) << "edit " << i;
    }
}

TEST(RunResultCodec, TruncationThrows)
{
    CkptWriter w;
    saveRunResult(w, sampleResult(5));
    for (const std::size_t cut : {std::size_t{0}, std::size_t{9},
                                  w.buffer().size() - 1}) {
        CkptReader r(w.buffer().data(), cut, "<test>");
        RunResult out;
        EXPECT_THROW(loadRunResult(r, out), FormatError)
            << "cut at " << cut;
    }
}

// -------------------------------------------------------- journal file

TEST(SweepJournal, CreateAppendReopen)
{
    const std::string path = tmpPath("basic.jnl");
    std::remove(path.c_str());
    const JournalHeader hdr = sampleHeader();
    {
        SweepJournal jnl(path, hdr);
        EXPECT_EQ(jnl.numDone(), 0u);
        jnl.append({1, false, "p1", "", sampleResult(1)});
        jnl.append({4, true, "p4", "boom", RunResult{}});
        EXPECT_TRUE(jnl.has(1));
        EXPECT_TRUE(jnl.has(4));
        EXPECT_FALSE(jnl.has(2));
    }
    SweepJournal jnl(path, hdr);
    ASSERT_EQ(jnl.records().size(), 2u);
    EXPECT_EQ(jnl.records()[0].pointIndex, 1u);
    EXPECT_EQ(jnl.records()[0].label, "p1");
    EXPECT_TRUE(
        identicalResults(jnl.records()[0].result, sampleResult(1)));
    EXPECT_TRUE(jnl.records()[1].failed);
    EXPECT_EQ(jnl.records()[1].error, "boom");
    std::remove(path.c_str());
}

TEST(SweepJournal, TornTailIsTruncatedAndRecovered)
{
    const std::string path = tmpPath("torn.jnl");
    std::remove(path.c_str());
    const JournalHeader hdr = sampleHeader();
    {
        SweepJournal jnl(path, hdr);
        jnl.append({1, false, "p1", "", sampleResult(1)});
        jnl.append({4, false, "p4", "", sampleResult(4)});
    }
    const std::uintmax_t intact = fileSize(path);
    // A kill mid-append leaves a partial frame; whatever the cut,
    // the journal reopens with exactly the intact records.
    appendBytes(path, std::string("\x40\x00\x00\x00garbage", 11));
    {
        SweepJournal jnl(path, hdr);
        ASSERT_EQ(jnl.records().size(), 2u);
        EXPECT_EQ(fileSize(path), intact) << "tail not truncated";
        // Appending after recovery lands on a clean frame boundary.
        jnl.append({0, false, "p0", "", sampleResult(0)});
    }
    SweepJournal jnl(path, hdr);
    ASSERT_EQ(jnl.records().size(), 3u);
    EXPECT_EQ(jnl.records()[2].pointIndex, 0u);
    std::remove(path.c_str());
}

TEST(SweepJournal, MismatchedHeaderRejected)
{
    const std::string path = tmpPath("mismatch.jnl");
    std::remove(path.c_str());
    {
        SweepJournal jnl(path, sampleHeader());
    }
    JournalHeader other = sampleHeader();
    other.sweepHash ^= 1;
    AMSC_EXPECT_THROW_MSG(SweepJournal(path, other), FormatError,
                          "different sweep");
    other = sampleHeader();
    other.shardIndex = 2;
    AMSC_EXPECT_THROW_MSG(SweepJournal(path, other), FormatError,
                          "different sweep");
    other = sampleHeader();
    other.totalPoints += 1;
    AMSC_EXPECT_THROW_MSG(SweepJournal(path, other), FormatError,
                          "different sweep");
    std::remove(path.c_str());
}

TEST(SweepJournal, ForeignFileRejected)
{
    const std::string path = tmpPath("foreign.jnl");
    {
        std::ofstream os(path, std::ios::binary);
        os << "this is not a journal at all, but it is long enough";
    }
    AMSC_EXPECT_THROW_MSG(SweepJournal(path, sampleHeader()),
                          FormatError, "journal header");
    std::remove(path.c_str());
}

TEST(SweepJournal, ReadAllRequiresFile)
{
    AMSC_EXPECT_THROW_MSG(
        SweepJournal::readAll(tmpPath("nonexistent.jnl"),
                              sampleHeader()),
        IoError, "does not exist");
}

TEST(SweepJournal, ShardFileName)
{
    EXPECT_EQ(SweepJournal::shardFileName(0, 1), "shard-0-of-1.jnl");
    EXPECT_EQ(SweepJournal::shardFileName(3, 16),
              "shard-3-of-16.jnl");
}

// ----------------------------------------------------- sweep identity

TEST(SweepIdentity, SensitiveToResultRelevantInputs)
{
    const std::vector<SweepPoint> base = {tinyPoint("a"),
                                          tinyPoint("b")};
    const std::uint64_t h0 = sweepIdentityHash(base);
    EXPECT_EQ(sweepIdentityHash(base), h0) << "hash not stable";

    std::vector<SweepPoint> labels = base;
    labels[1].label = "c";
    EXPECT_NE(sweepIdentityHash(labels), h0);

    std::vector<SweepPoint> seed = base;
    seed[0].cfg.seed += 1;
    EXPECT_NE(sweepIdentityHash(seed), h0);

    // Identity-excluded for checkpoints, but result-relevant here.
    std::vector<SweepPoint> horizon = base;
    horizon[0].cfg.maxCycles += 1;
    EXPECT_NE(sweepIdentityHash(horizon), h0);

    std::vector<SweepPoint> fewer = {base[0]};
    EXPECT_NE(sweepIdentityHash(fewer), h0);

    // Output paths cannot change results; shards with different
    // per-shard output settings must still agree on the hash.
    std::vector<SweepPoint> outputs = base;
    outputs[0].cfg.timelineOut = "t.json";
    outputs[1].cfg.checkpointEvery = 100;
    outputs[1].cfg.checkpointPath = "c.ckpt";
    EXPECT_EQ(sweepIdentityHash(outputs), h0);
}

// ------------------------------------------------- runner skip + hooks

TEST(SweepRunnerOptions, SkipMaskAndOnResult)
{
    const std::vector<SweepPoint> points = {
        tinyPoint("p0"), tinyPoint("p1"), tinyPoint("p2"),
        tinyPoint("p3")};
    const SweepRunner runner(2);
    const std::vector<RunResult> all = runner.run(points);

    std::vector<char> skip = {1, 0, 1, 0};
    std::vector<std::size_t> seen;
    SweepOptions options;
    options.skip = &skip;
    options.onResult = [&](std::size_t i, const RunResult &r,
                           const std::string &err) {
        EXPECT_TRUE(err.empty());
        EXPECT_TRUE(identicalResults(r, all[i]));
        seen.push_back(i);
    };
    const std::vector<RunResult> some =
        runner.run(points, options);
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, (std::vector<std::size_t>{1, 3}));
    // Executed slots are bit-identical; skipped slots stay default.
    EXPECT_TRUE(identicalResults(some[1], all[1]));
    EXPECT_TRUE(identicalResults(some[3], all[3]));
    EXPECT_TRUE(identicalResults(some[0], RunResult{}));
    EXPECT_TRUE(identicalResults(some[2], RunResult{}));
}

TEST(SweepRunnerOptions, SkipMaskSizeChecked)
{
    const std::vector<SweepPoint> points = {tinyPoint("p0")};
    std::vector<char> skip = {0, 0};
    SweepOptions options;
    options.skip = &skip;
    AMSC_EXPECT_THROW_MSG(SweepRunner(1).run(points, options),
                          SimError, "skip mask");
}

TEST(SweepOnErrorPolicy, AbortIsDefaultAndRethrows)
{
    const std::vector<SweepPoint> points = {
        tinyPoint("ok"), tinyPoint("bad", true)};
    EXPECT_EQ(points[0].cfg.sweepOnError, SweepOnError::Abort);
    AMSC_EXPECT_THROW_MSG(SweepRunner(1).run(points), SimError,
                          "injected point failure");
}

TEST(SweepOnErrorPolicy, SkipRecordsErrorAndContinues)
{
    const std::vector<SweepPoint> points = {
        tinyPoint("ok", false, SweepOnError::Skip),
        tinyPoint("bad", true, SweepOnError::Skip),
        tinyPoint("ok2", false, SweepOnError::Skip)};
    std::vector<std::string> errors(points.size());
    SweepOptions options;
    options.onResult = [&](std::size_t i, const RunResult &,
                           const std::string &err) {
        errors[i] = err;
    };
    const std::vector<RunResult> results =
        SweepRunner(2).run(points, options);
    EXPECT_EQ(errors[0], "");
    EXPECT_NE(errors[1].find("injected point failure"),
              std::string::npos);
    EXPECT_EQ(errors[2], "");
    EXPECT_TRUE(identicalResults(results[1], RunResult{}));
    EXPECT_GT(results[0].instructions, 0u);
    EXPECT_GT(results[2].instructions, 0u);
}

TEST(SweepOnErrorPolicy, ConstructorRejectionFailsOnlyItsPoint)
{
    // l1_mshrs=0 passes SimConfig::validate(); the L1 MSHR file
    // rejects it while the point's GpuSystem is built. That
    // ConfigError fails the one point through SweepRunner -- recorded
    // under skip, rethrown under abort -- instead of ending the
    // process from a worker thread.
    std::vector<SweepPoint> points = {
        tinyPoint("ok", false, SweepOnError::Skip),
        tinyPoint("no-mshrs", false, SweepOnError::Skip),
        tinyPoint("ok2", false, SweepOnError::Skip)};
    points[1].cfg.l1Mshrs = 0;
    std::vector<std::string> errors(points.size());
    SweepOptions options;
    options.onResult = [&](std::size_t i, const RunResult &,
                           const std::string &err) {
        errors[i] = err;
    };
    const std::vector<RunResult> results =
        SweepRunner(2).run(points, options);
    EXPECT_EQ(errors[0], "");
    EXPECT_NE(errors[1].find("MshrFile requires non-zero entries"),
              std::string::npos)
        << errors[1];
    EXPECT_EQ(errors[2], "");
    EXPECT_TRUE(identicalResults(results[1], RunResult{}));
    EXPECT_GT(results[0].instructions, 0u);
    EXPECT_GT(results[2].instructions, 0u);

    points[1].cfg.sweepOnError = SweepOnError::Abort;
    AMSC_EXPECT_THROW_MSG(SweepRunner(2).run(points), ConfigError,
                          "MshrFile");
}

TEST(SweepOnErrorPolicy, ParseAndName)
{
    EXPECT_EQ(parseSweepOnError("abort"), SweepOnError::Abort);
    EXPECT_EQ(parseSweepOnError("skip"), SweepOnError::Skip);
    EXPECT_EQ(sweepOnErrorName(SweepOnError::Abort), "abort");
    EXPECT_EQ(sweepOnErrorName(SweepOnError::Skip), "skip");
}

// ---------------------------------------------------- emit error column

TEST(EmitErrors, NoErrorsIsByteIdenticalToPlain)
{
    const std::vector<scenario::EmitPoint> pts = {
        {"a", {{"x", "1"}}}, {"b", {{"x", "2"}}}};
    const std::vector<RunResult> results = {sampleResult(1),
                                            sampleResult(2)};
    const std::vector<std::string> empty(2);
    EXPECT_EQ(scenario::emitCsv(pts, results),
              scenario::emitCsv(pts, results, empty));
    EXPECT_EQ(scenario::emitJson("s", pts, results),
              scenario::emitJson("s", pts, results, empty));
}

TEST(EmitErrors, TableShowsFailedPoints)
{
    const std::vector<scenario::EmitPoint> pts = {{"a", {}},
                                                  {"b", {}}};
    const std::vector<RunResult> results = {sampleResult(1),
                                            RunResult{}};
    // No failure: the historical table, no error column.
    EXPECT_EQ(scenario::renderTable(pts, results),
              scenario::renderTable(pts, results,
                                    std::vector<std::string>(2)));
    EXPECT_EQ(scenario::renderTable(pts, results).find("error"),
              std::string::npos);

    const std::string table = scenario::renderTable(
        pts, results, {"", "l1_mshrs | bad"});
    const std::string header = table.substr(0, table.find('\n'));
    EXPECT_EQ(header.rfind("| error |"), header.size() - 9) << header;
    // One cell per column on every row: the '|' in the message does
    // not split its cell.
    std::size_t rows = 0;
    std::istringstream lines(table);
    for (std::string line; std::getline(lines, line); ++rows)
        EXPECT_EQ(std::count(line.begin(), line.end(), '|'), 8) << line;
    EXPECT_EQ(rows, 4u);
    EXPECT_NE(table.find("| b | 0.00 | 0 | 0 | 0.000 | shared | "
                         "l1_mshrs / bad |"),
              std::string::npos)
        << table;
}

TEST(EmitErrors, FailedPointsGetErrorColumn)
{
    const std::vector<scenario::EmitPoint> pts = {{"a", {}},
                                                  {"b", {}}};
    const std::vector<RunResult> results = {sampleResult(1),
                                            RunResult{}};
    const std::vector<std::string> errors = {"", "it broke, badly"};
    const std::string csv = scenario::emitCsv(pts, results, errors);
    const std::string header = csv.substr(0, csv.find('\n'));
    EXPECT_EQ(header.rfind(",error"), header.size() - 6);
    // RFC-4180: the comma in the message forces quoting.
    EXPECT_NE(csv.find("\"it broke, badly\""), std::string::npos);
    const std::string json =
        scenario::emitJson("s", pts, results, errors);
    EXPECT_NE(json.find("\"error\": \"it broke, badly\""),
              std::string::npos);
    EXPECT_NE(json.find("\"error\": \"\""), std::string::npos);
}

} // namespace amsc
