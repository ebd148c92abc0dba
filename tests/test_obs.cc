/**
 * @file
 * Observability subsystem tests: perturbation-freedom and output
 * validity.
 *
 * The timeline/stats-stream contract is that observation never
 * changes the simulation: a run with any sink attached (null or
 * file) produces a RunResult bit-identical to a run with none, and
 * that invariance must compose with every other execution mode the
 * simulator supports (record/replay, both cycle-core drivers,
 * multi-program, threaded sweeps). The output side is held to what a
 * human loading the files would assume: the Perfetto JSON passes the
 * structural checker (balanced phases, monotonic per-track
 * timestamps, annotated decisions) and the JSONL stats stream parses
 * line by line with windows that reconcile against the final
 * RunResult.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/kvargs.hh"
#include "obs/json_min.hh"
#include "obs/perfetto_sink.hh"
#include "obs/recorder.hh"
#include "obs/trace_check.hh"
#include "scenario/scenario.hh"
#include "sim/gpu_system.hh"
#include "sim/sweep.hh"
#include "trace/recording_gen.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_writer.hh"
#include "workloads/suite.hh"
#include "workloads/trace_gen.hh"

namespace amsc
{

namespace
{

const std::string kSourceDir = AMSC_SOURCE_DIR;

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "amsc_obs_" + name;
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.is_open()) << "missing file: " << path;
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
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

/** Adaptive config that actually crosses reconfigurations. */
SimConfig
adaptiveConfig()
{
    SimConfig cfg = smallConfig();
    cfg.llcPolicy = LlcPolicy::Adaptive;
    cfg.missTolerance = 0.3;
    return cfg;
}

std::vector<KernelInfo>
singleKernelWorkload()
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
    return {makeSyntheticKernel("k0", t, 32, 4)};
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

/** Run cfg with workloads; recorder built from cfg when enabled. */
RunResult
runObserved(const SimConfig &cfg, bool multi_program = false)
{
    GpuSystem gpu(cfg);
    gpu.setWorkload(0, broadcastWorkload(5));
    if (multi_program)
        gpu.setWorkload(1, singleKernelWorkload());
    const auto rec = obs::TimelineRecorder::fromConfig(gpu);
    RunResult r = gpu.run();
    if (rec)
        rec->finish();
    return r;
}

} // namespace

// -------------------------------------------------- perturbation-freedom

TEST(Obs, RecorderDisabledByDefault)
{
    GpuSystem gpu(smallConfig());
    EXPECT_EQ(obs::TimelineRecorder::fromConfig(gpu), nullptr);
}

TEST(Obs, NullSinkRunIsBitExact)
{
    // timeline=1 with no output path attaches the full observer
    // wiring feeding a NullTimelineSink: the pure observation cost
    // path, and it must not perturb anything.
    SimConfig plain = adaptiveConfig();
    SimConfig observed = plain;
    observed.timeline = true;
    const RunResult a = runObserved(plain);
    const RunResult b = runObserved(observed);
    ASSERT_TRUE(a.finishedWork);
    ASSERT_GT(a.llcCtrl.transitionsToPrivate, 0u);
    EXPECT_TRUE(identicalResults(a, b));
}

TEST(Obs, FileSinksAreBitExactAndOutputsValidate)
{
    const std::string trace = tmpPath("file.json");
    const std::string stream = tmpPath("file.jsonl");
    SimConfig plain = adaptiveConfig();
    SimConfig observed = plain;
    observed.timelineOut = trace;
    observed.statsStreamOut = stream;

    const RunResult a = runObserved(plain);
    const RunResult b = runObserved(observed);
    ASSERT_TRUE(a.finishedWork);
    EXPECT_TRUE(identicalResults(a, b));

    const obs::TraceCheckResult c =
        obs::checkPerfettoTraceFile(trace);
    EXPECT_TRUE(c.ok) << c.error;
    EXPECT_GE(c.decisions, 1u) << "adaptive run must log decisions";
    EXPECT_GE(c.durations, 2u) << "FSM phases must appear";
    EXPECT_GT(c.counters, 0u);
    EXPECT_EQ(c.tracks, 4u); // controller, slices, DRAM, NoC

    // The JSONL stream: every line parses, cycles are strictly
    // increasing, and the instruction deltas reconcile with the
    // final RunResult.
    std::ifstream f(stream);
    ASSERT_TRUE(f.is_open());
    std::string line;
    std::uint64_t instr_sum = 0;
    double last_cycle = -1.0;
    std::size_t lines = 0;
    while (std::getline(f, line)) {
        ++lines;
        obs::JsonValue v;
        std::string err;
        ASSERT_TRUE(obs::parseJson(line, v, err))
            << "line " << lines << ": " << err;
        for (const char *key : {"cycle", "window", "instructions",
                                "ipc", "llc_read_miss_rate"}) {
            const obs::JsonValue *field = v.find(key);
            ASSERT_NE(field, nullptr) << key;
            EXPECT_TRUE(field->isNumber()) << key;
        }
        const obs::JsonValue *mode = v.find("mode");
        ASSERT_NE(mode, nullptr);
        EXPECT_TRUE(mode->isString());
        EXPECT_GT(v.find("cycle")->number, last_cycle);
        last_cycle = v.find("cycle")->number;
        instr_sum += static_cast<std::uint64_t>(
            v.find("instructions")->number);
    }
    EXPECT_GT(lines, 1u);
    EXPECT_EQ(instr_sum, a.instructions)
        << "window deltas must sum to the run total";

    std::remove(trace.c_str());
    std::remove(stream.c_str());
}

TEST(Obs, MultiProgramPointIsBitExact)
{
    const std::string trace = tmpPath("mp.json");
    SimConfig plain = smallConfig();
    plain.llcPolicy = LlcPolicy::ForceShared;
    plain.extraAppPolicies = {LlcPolicy::ForcePrivate};
    SimConfig observed = plain;
    observed.timelineOut = trace;

    const RunResult a = runObserved(plain, true);
    const RunResult b = runObserved(observed, true);
    ASSERT_TRUE(a.finishedWork);
    EXPECT_TRUE(identicalResults(a, b));
    const obs::TraceCheckResult c =
        obs::checkPerfettoTraceFile(trace);
    EXPECT_TRUE(c.ok) << c.error;
    std::remove(trace.c_str());
}

TEST(Obs, RecordReplayWithTimelineIsBitExact)
{
    // Observation composes with the trace subsystem: a recorded run
    // with the timeline on replays to the identical RunResult, also
    // with the timeline on.
    const SimConfig cfg = adaptiveConfig();
    SimConfig observed = cfg;
    observed.timeline = true;
    const std::string path = tmpPath("rr.trc");

    auto writer = std::make_shared<TraceWriter>(path);
    RunResult rec;
    {
        GpuSystem gpu(observed);
        gpu.setWorkload(0, wrapKernelsForRecording(
                               broadcastWorkload(5), writer));
        const auto r = obs::TimelineRecorder::fromConfig(gpu);
        rec = gpu.run();
        r->finish();
    }
    writer->setRunSummary(summarizeRun(rec));
    writer->finalize();
    ASSERT_TRUE(rec.finishedWork);

    auto reader = std::make_shared<const TraceReader>(path);
    GpuSystem gpu(observed);
    gpu.setWorkload(0, WorkloadSuite::buildReplayKernels(reader));
    const auto r = obs::TimelineRecorder::fromConfig(gpu);
    const RunResult rep = gpu.run();
    r->finish();

    EXPECT_TRUE(identicalResults(rec, rep));
    std::remove(path.c_str());
}

TEST(Obs, EventModeOutputsAreByteIdentical)
{
    // The sim_mode=event driver jumps the clock between events, yet
    // every stats-stream window and every timeline sample must land
    // on exactly the cycles the tick driver produces: both output
    // files are compared byte for byte, not "close enough".
    SimConfig cfg = adaptiveConfig();
    std::string traces[2], streams[2];
    RunResult results[2];
    for (int m = 0; m < 2; ++m) {
        const char *tag = m == 0 ? "tick" : "event";
        SimConfig c = cfg;
        c.simMode = m == 0 ? SimMode::Tick : SimMode::Event;
        c.timelineOut = traces[m] =
            tmpPath(std::string("mode_") + tag + ".json");
        c.statsStreamOut = streams[m] =
            tmpPath(std::string("mode_") + tag + ".jsonl");
        results[m] = runObserved(c);
    }
    ASSERT_TRUE(results[0].finishedWork);
    ASSERT_GT(results[0].llcCtrl.transitionsToPrivate, 0u);
    EXPECT_TRUE(identicalResults(results[0], results[1]));
    EXPECT_EQ(readFile(traces[0]), readFile(traces[1]))
        << "timeline bytes differ between tick and event";
    EXPECT_EQ(readFile(streams[0]), readFile(streams[1]))
        << "stats-stream bytes differ between tick and event";
    const obs::TraceCheckResult c =
        obs::checkPerfettoTraceFile(traces[1]);
    EXPECT_TRUE(c.ok) << c.error;
    for (int m = 0; m < 2; ++m) {
        std::remove(traces[m].c_str());
        std::remove(streams[m].c_str());
    }
}

TEST(Obs, EventModeStatsStreamPeriodsLandOnGrid)
{
    // Observer samples must fire on exact stats_stream_period
    // multiples under the event driver even when the period does not
    // divide any natural event cycle.
    SimConfig cfg = adaptiveConfig();
    cfg.statsStreamPeriod = 777; // deliberately off every power of 2
    std::string streams[2];
    for (int m = 0; m < 2; ++m) {
        SimConfig c = cfg;
        c.simMode = m == 0 ? SimMode::Tick : SimMode::Event;
        c.statsStreamOut = streams[m] =
            tmpPath(std::string("grid777_") + (m ? "e" : "t") +
                    ".jsonl");
        runObserved(c);
    }
    const std::string tick = readFile(streams[0]);
    EXPECT_EQ(tick, readFile(streams[1]));

    // Every window boundary is a multiple of the period (the final
    // flush may land off-grid at the end of the run).
    std::istringstream is(tick);
    std::string line;
    std::size_t on_grid = 0, lines = 0;
    while (std::getline(is, line)) {
        ++lines;
        obs::JsonValue v;
        std::string err;
        ASSERT_TRUE(obs::parseJson(line, v, err)) << err;
        const auto cycle =
            static_cast<std::uint64_t>(v.find("cycle")->number);
        if (cycle % cfg.statsStreamPeriod == 0)
            ++on_grid;
    }
    EXPECT_GT(lines, 2u);
    EXPECT_GE(on_grid + 1, lines) << "at most the final flush may "
                                     "fall off the period grid";
    for (int m = 0; m < 2; ++m)
        std::remove(streams[m].c_str());
}

// ------------------------------------------------ fig11 quick grid sweep

TEST(Obs, Fig11QuickGridIsBitExactAndTracesValidate)
{
    // The acceptance grid: a reduced fig11 sweep (2 workloads x 2
    // policies, smoke-length) through the real SweepRunner, once
    // with per-point timeline files and once without. Results must
    // be byte-identical and every trace must validate.
    KvArgs kv = scenario::Scenario::parseScnFile(
        kSourceDir + "/scenarios/fig11_performance.scn");
    scenario::Scenario::applyOverride(kv, "sweep.workload", "AN,MM");
    scenario::Scenario::applyOverride(kv, "sweep.llc_policy",
                                      "shared,adaptive");
    scenario::Scenario scn = scenario::Scenario::fromKv(
        std::move(kv), "fig11_performance.scn");
    scn.setSmoke(true);

    std::vector<SweepPoint> points;
    for (const scenario::ExpandedPoint &ep : scn.expand())
        points.push_back(ep.point);
    ASSERT_EQ(points.size(), 4u);

    const SweepRunner runner(2);
    const std::vector<RunResult> plain = runner.run(points);

    std::vector<std::string> traces;
    for (std::size_t i = 0; i < points.size(); ++i) {
        traces.push_back(
            tmpPath("grid" + std::to_string(i) + ".json"));
        points[i].cfg.timelineOut = traces.back();
    }
    const std::vector<RunResult> observed = runner.run(points);

    ASSERT_EQ(observed.size(), plain.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_TRUE(identicalResults(plain[i], observed[i]))
            << "point " << i << " (" << points[i].label << ")";
        const obs::TraceCheckResult c =
            obs::checkPerfettoTraceFile(traces[i]);
        EXPECT_TRUE(c.ok) << traces[i] << ": " << c.error;
        if (points[i].cfg.llcPolicy == LlcPolicy::Adaptive) {
            EXPECT_GE(c.decisions, 1u) << points[i].label;
        }
        std::remove(traces[i].c_str());
    }
}

// ------------------------------------------------------ trace validator

TEST(Obs, ValidatorRejectsMalformedTraces)
{
    const auto fails = [](const std::string &text,
                          const std::string &needle) {
        const obs::TraceCheckResult r = obs::checkPerfettoTrace(text);
        EXPECT_FALSE(r.ok) << text;
        EXPECT_NE(r.error.find(needle), std::string::npos)
            << "error was: " << r.error;
    };
    fails("{nope", "JSON error");
    fails("[1,2]", "object");
    fails("{\"displayTimeUnit\":\"ms\"}", "traceEvents");
    // Unbalanced B.
    fails("{\"traceEvents\":[{\"ph\":\"B\",\"name\":\"x\","
          "\"pid\":1,\"tid\":0,\"ts\":0}]}",
          "open");
    // E without B.
    fails("{\"traceEvents\":[{\"ph\":\"E\",\"name\":\"x\","
          "\"pid\":1,\"tid\":0,\"ts\":0}]}",
          "without matching B");
    // Timestamps running backwards on one track.
    fails("{\"traceEvents\":["
          "{\"ph\":\"i\",\"name\":\"a\",\"pid\":1,\"tid\":0,"
          "\"ts\":10,\"s\":\"t\"},"
          "{\"ph\":\"i\",\"name\":\"b\",\"pid\":1,\"tid\":0,"
          "\"ts\":5,\"s\":\"t\"}]}",
          "backwards");
    // Counter without a numeric value.
    fails("{\"traceEvents\":[{\"ph\":\"C\",\"name\":\"c\","
          "\"pid\":1,\"tid\":0,\"ts\":0,"
          "\"args\":{\"value\":\"high\"}}]}",
          "numeric");
    // Decision instant missing its rule annotation.
    fails("{\"traceEvents\":[{\"ph\":\"i\",\"name\":\"decision\","
          "\"pid\":1,\"tid\":0,\"ts\":0,\"s\":\"t\","
          "\"args\":{\"to_private\":1}}]}",
          "rule");
}

TEST(Obs, ValidatorAcceptsMinimalValidTrace)
{
    const obs::TraceCheckResult r = obs::checkPerfettoTrace(
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
        "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"LLC\"}},"
        "{\"ph\":\"B\",\"name\":\"Profiling\",\"pid\":1,\"tid\":0,"
        "\"ts\":0},"
        "{\"ph\":\"E\",\"pid\":1,\"tid\":0,\"ts\":7,"
        "\"name\":\"Profiling\"},"
        "{\"ph\":\"C\",\"name\":\"occ\",\"pid\":2,\"tid\":0,\"ts\":3,"
        "\"args\":{\"value\":0.5}}]}");
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.events, 4u);
    EXPECT_EQ(r.durations, 1u);
    EXPECT_EQ(r.counters, 1u);
    EXPECT_EQ(r.decisions, 0u);
}

// ------------------------------------------------------- perfetto sink

TEST(Obs, PerfettoSinkEscapesAndAutoClosesPhases)
{
    const std::string path = tmpPath("sink.json");
    {
        obs::PerfettoSink sink(path);
        const int t0 = sink.registerTrack("proc \"A\"", "thr\\1");
        const int t1 = sink.registerTrack("proc \"A\"", "thr2");
        EXPECT_NE(t0, t1);
        sink.phaseBegin(t0, "Phase1", 0);
        // Implicitly closes Phase1.
        sink.phaseBegin(t0, "Phase2", 10);
        sink.instant(t1, "note", 12,
                     {obs::strArg("text", "quote \" backslash \\"),
                      obs::numArg("n", "42")});
        sink.counter(t1, "val", 15, 0.25);
        // Phase2 still open: finish() must close it.
        sink.finish(20);
    }
    const obs::TraceCheckResult c = obs::checkPerfettoTraceFile(path);
    EXPECT_TRUE(c.ok) << c.error;
    EXPECT_EQ(c.durations, 2u);
    EXPECT_EQ(c.instants, 1u);
    EXPECT_EQ(c.counters, 1u);

    // The escaped names survive a parse round-trip.
    obs::JsonValue v;
    std::string err;
    ASSERT_TRUE(obs::parseJson(readFile(path), v, err)) << err;
    std::remove(path.c_str());
}

TEST(Obs, JsonEscapeStringHandlesControlChars)
{
    EXPECT_EQ(obs::jsonEscapeString("a\"b"), "a\\\"b");
    EXPECT_EQ(obs::jsonEscapeString("a\\b"), "a\\\\b");
    EXPECT_EQ(obs::jsonEscapeString("a\nb"), "a\\nb");
    EXPECT_EQ(obs::jsonEscapeString(std::string(1, '\x01')),
              "\\u0001");
}

} // namespace amsc
