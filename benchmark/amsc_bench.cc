/**
 * @file
 * amsc_bench: the simulator's end-to-end and per-layer benchmark.
 *
 *   amsc_bench [--seed=N] [--out=FILE] [--trace=DIR]
 *       Run every workload of benchmark/workloads/, one child process
 *       after another, print a metric table and write FILE (JSON).
 *   amsc_bench --workload=NAME [--seed=N] [--seconds=S] [--trace=DIR]
 *       Run one workload in this process. The last stdout line is
 *       {"correct", "attempted", "failed", "metrics"}: the end-to-end
 *       metrics, or with --trace the per-layer ones.
 *   amsc_bench --smoke --spec=BENCHMARK.json
 *       Every workload at 1/20 length, one repeat, traced; checks that
 *       each metric the spec names is printed with its unit.
 *
 * A workload is a scenario file. One repeat times what a user of
 * `amsc sweep` waits for: Scenario::parseScnFile + fromKv + expand,
 * SweepRunner::parallelFor over SweepRunner::runPoint, and
 * scenario::emitCsv. The SweepPoint onBuilt/post hooks split each
 * point into construction and run. Repeats continue until --seconds
 * is spent (at least two); host times are their medians.
 *
 * Output checks, each an attempted operation: every point runs
 * without error; every repeat emits a CSV with the same FNV-1a
 * fingerprint; a prefix of the first point run straight under the
 * tick driver is identicalResults() with the event driver
 * checkpointed mid-prefix and restored into a fresh GpuSystem; every
 * serving request completes; a traced run's span file validates and
 * its samples are enough and sum to 100%.
 *
 * --trace adds traced repeats after the timed ones, as many as the
 * sampler needs (one, unless a repeat is short): spans around each
 * public call (written to DIR/<workload>.trace.json) and a SIGPROF
 * sampler inside GpuSystem::run (host_profile.hh).
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <spawn.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "common/stats.hh"
#include "host_profile.hh"
#include "obs/json_min.hh"
#include "obs/trace_check.hh"
#include "scenario/emit.hh"
#include "scenario/scenario.hh"
#include "sim/sweep.hh"

extern char **environ;

using namespace amsc;
using namespace amsc::bench;

namespace
{

const std::vector<std::string> kWorkloads = {
    "fig11_sweep", "dram_stream", "serve", "idle_event", "observed"};

/** Paper Fig 11: adaptive vs shared on the private-friendly apps. */
constexpr double kPaperAdaptiveGainPct = 28.1;

/** Straight-vs-restored oracle prefix, cycles (before scaling). */
constexpr Cycle kOraclePrefix = 20000;

/** Set-up-only sampling before each timed repeat, seconds. */
constexpr double kSetupSampleSeconds = 0.1;

/** SIGPROF interval; the kernel tick (often 4 ms) may coarsen it. */
constexpr unsigned kSampleIntervalUs = 1000;

/**
 * Run time a traced run gives its traced repeats: 500 samples at a
 * 4 ms tick take 2 s of one thread's time, plus margin. A workload
 * whose repeat is shorter gets several traced repeats.
 */
constexpr double kTracedSeconds = 2.5;

/** Traced repeats stop here even when short of samples. */
constexpr unsigned kMaxTracedRepeats = 8;

struct Options
{
    std::string workload; ///< empty: all workloads, one child each
    std::uint64_t seed = 42;
    double seconds = 24.0; ///< time budget of one workload
    std::string traceDir;  ///< empty: untraced
    std::string scratchDir;
    std::string outPath;
    std::string specPath;
    bool smoke = false;
    bool allMetrics = false; ///< print end-to-end and per-layer

    // Derived: --smoke shrinks everything; threads = min(4, nproc).
    double scale = 1.0;
    unsigned minRepeats = 2;
    std::size_t minSamples = 500;
    unsigned threads = 1;
};

/** One reported metric; per-layer ones print only when traced. */
struct MetricDef
{
    const char *name;
    const char *unit;
    bool perLayer;
};

const std::vector<MetricDef> &
metricDefs()
{
    static const std::vector<MetricDef> defs = {
        {"wall_s", "s", false},
        {"setup_s", "s", false},
        {"sim_kcps", "kcycle/s", false},
        {"sim_kips", "kinstr/s", false},
        {"peak_rss_mb", "MB", false},
        {"ipc", "instr/cycle", false},
        {"host.noc.self_pct", "%", true},
        {"host.gpu.self_pct", "%", true},
        {"host.cache.self_pct", "%", true},
        {"host.llc.self_pct", "%", true},
        {"host.mem.self_pct", "%", true},
        {"host.sim.self_pct", "%", true},
        {"host.workloads.self_pct", "%", true},
        {"host.obs.self_pct", "%", true},
        {"host.common.self_pct", "%", true},
        {"host.ext.self_pct", "%", true},
        {"host.other.self_pct", "%", true},
        {"host.samples", "count", true},
        {"host.ns_per_cycle", "ns", true},
        {"trace.overhead_pct", "%", true},
        {"noc.req_latency_cycles", "cycles", true},
        {"noc.rep_latency_cycles", "cycles", true},
        {"gpu.issue_stall_frac", "fraction", true},
        {"l1.read_miss_rate", "fraction", true},
        {"llc.read_miss_rate", "fraction", true},
        {"llc.accesses_per_kcycle", "1/kcycle", true},
        {"llc.reconfig_stall_frac", "fraction", true},
        {"dram.row_hit_rate", "fraction", true},
        {"dram.bus_util", "fraction", true},
        {"dram.write_frac", "fraction", true},
        {"dram.queue_rejects_per_kcycle", "1/kcycle", true},
        {"sim.jump_frac", "fraction", true},
        {"sim.jumps", "count", true},
        {"serve.batch_occupancy", "requests", true},
        {"serve.queue_depth_mean", "requests", true},
        {"ckpt.write_ms", "ms", true},
        {"ckpt.bytes", "B", true},
        {"setup.construct_ms", "ms", true},
        {"scenario.expand_ms", "ms", true},
        {"emit.csv_ms", "ms", true},
        {"sweep.idle_pct", "%", true},
        {"adaptive_gain_pct", "%", true},
        {"serve_p50_cycles", "cycles", true},
        {"serve_p95_cycles", "cycles", true},
    };
    return defs;
}

// ---- small helpers -----------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/** Nearest-rank percentile of sorted @p v (p in (0, 100]). */
std::uint64_t
nearestRank(const std::vector<std::uint64_t> &v, double p)
{
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

std::string
exePath()
{
    std::error_code ec;
    return std::filesystem::read_symlink("/proc/self/exe", ec).string();
}

// ---- simulated per-layer counters --------------------------------------

/**
 * Raw simulated sums over points, keyed by counter name; ratios form
 * at report time, so multi-point workloads weight every point by its
 * own traffic.
 */
struct SimCounters
{
    std::map<std::string, double> sums;
    std::vector<std::uint64_t> latencies; ///< serving requests, cycles

    double
    at(const std::string &name) const
    {
        const auto it = sums.find(name);
        return it == sums.end() ? 0.0 : it->second;
    }

    void
    add(const SimCounters &o)
    {
        for (const auto &[name, value] : o.sums)
            sums[name] += value;
        latencies.insert(latencies.end(), o.latencies.begin(),
                         o.latencies.end());
    }
};

SimCounters
extractCounters(GpuSystem &gpu, const RunResult &r)
{
    SimCounters c;
    auto &s = c.sums;
    const auto cycles = static_cast<double>(r.cycles);
    s["cycles"] = cycles;
    s["instructions"] = static_cast<double>(r.instructions);
    for (SmId id = 0; id < gpu.numSms(); ++id) {
        const CacheStats &l1 = gpu.sm(id).l1().stats();
        s["sm.issue_stalls"] +=
            static_cast<double>(gpu.sm(id).stats().issueStallCycles);
        s["l1.read_hits"] += static_cast<double>(l1.readHits);
        s["l1.read_misses"] += static_cast<double>(l1.readMisses);
    }
    s["sm.cycles"] = cycles * gpu.numSms();
    s["mc.cycles"] = cycles * gpu.config().numMcs;
    s["llc.accesses"] = static_cast<double>(r.llcAccesses);
    s["llc.reconfig_stalls"] =
        static_cast<double>(r.llcCtrl.reconfigStallCycles);
    s["dram.rejects"] = static_cast<double>(r.dramQueueRejects);
    s["sim.jumps"] = static_cast<double>(gpu.eventJumps());
    s["sim.jumped_cycles"] = static_cast<double>(gpu.jumpedCycles());

    // Per-unit counters summed over units: "llc<N>.reads" and
    // "mc<N>.writes" land in "llc.reads" and "mc.writes".
    StatSet set("amsc");
    gpu.registerStats(set);
    for (const StatEntry &e : set.entries()) {
        const std::size_t dot = e.name.find('.');
        if (dot == std::string::npos)
            continue;
        std::string unit = e.name.substr(0, dot);
        while (!unit.empty() &&
               std::isdigit(static_cast<unsigned char>(unit.back())))
            unit.pop_back();
        s["stat." + unit + e.name.substr(dot)] += e.getter();
    }
    s["noc.req_latency_sum"] =
        r.avgRequestLatency * c.at("stat.noc.req_delivered");
    s["noc.rep_latency_sum"] =
        r.avgReplyLatency * c.at("stat.noc.rep_delivered");

    for (AppId a = 0; a < gpu.config().numApps(); ++a) {
        const WorkloadProgram *prog = gpu.program(a);
        const ServingStats *st = prog ? prog->servingStats() : nullptr;
        if (!st)
            continue;
        // Every admitted request is an operation; one not completed
        // by the horizon failed.
        s["serve.requests"] += gpu.config().servingRequests;
        s["serve.completed"] += static_cast<double>(st->requestsCompleted);
        s["serve.batches"] += static_cast<double>(st->batchesLaunched);
        s["serve.occupancy_sum"] +=
            static_cast<double>(st->batchOccupancySum);
        s["serve.queue_depth_sum"] += static_cast<double>(st->queueDepthSum);
        c.latencies.insert(c.latencies.end(), st->latencies.begin(),
                           st->latencies.end());
    }
    return c;
}

// ---- one repeat --------------------------------------------------------

enum class RepeatKind
{
    Timed,     ///< the full user path, untraced
    Traced,    ///< the same with spans and the PC sampler
    SetupOnly, ///< load + expand + construction, no cycles
};

struct RepeatOutcome
{
    double wall = 0, setup = 0, expand = 0, construct = 0;
    double runWall = 0, pointRun = 0, emit = 0, idlePct = 0;
    std::uint64_t csvHash = 0;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> errors;
    SimCounters sim;
    double adaptiveGainPct = NAN; ///< NaN: grid has no shared/adaptive pair
};

/** Per-point state written by the worker that runs the point. */
struct PointSlot
{
    double start = 0, built = 0, end = 0;
    std::uint32_t span = 0, constructSpan = 0, runSpan = 0;
    SimCounters sim;
    std::string error;
};

class WorkloadRunner
{
  public:
    WorkloadRunner(const Options &opt, SpanRecorder &spans)
        : opt_(opt), spans_(spans),
          path_(std::string(AMSC_BENCH_WORKLOAD_DIR) + "/" +
                opt.workload + ".scn")
    {}

    RepeatOutcome repeat(RepeatKind kind);
    /** The first point's prefix oracle; fills ckpt timings. */
    bool oracle(std::string &detail);

    double ckptMs = 0, ckptBytes = 0;

  private:
    std::vector<scenario::ExpandedPoint> load(std::uint32_t parent,
                                             double &expand_end);
    void prepare(SweepPoint &p, RepeatKind kind) const;

    const Options &opt_;
    SpanRecorder &spans_;
    std::string path_;
};

std::vector<scenario::ExpandedPoint>
WorkloadRunner::load(std::uint32_t parent, double &expand_end)
{
    using scenario::Scenario;
    KvArgs kv;
    {
        ScopedSpan s(spans_, "scenario.parse", parent);
        kv = Scenario::parseScnFile(path_);
        Scenario::applyOverride(kv, "seed", std::to_string(opt_.seed));
    }
    Scenario scn;
    {
        ScopedSpan s(spans_, "scenario.from_kv", parent);
        scn = Scenario::fromKv(std::move(kv), path_);
    }
    std::vector<scenario::ExpandedPoint> expanded;
    {
        ScopedSpan s(spans_, "scenario.expand", parent);
        expanded = scn.expand();
    }
    expand_end = nowSeconds();
    return expanded;
}

/** Scale, confine outputs to the scratch dir, strip for setup-only. */
void
WorkloadRunner::prepare(SweepPoint &p, RepeatKind kind) const
{
    SimConfig &c = p.cfg;
    if (opt_.scale != 1.0) {
        const auto scaled = [this](Cycle v) {
            return v == 0 ? v
                          : std::max<Cycle>(1, static_cast<Cycle>(
                                                   v * opt_.scale));
        };
        c.maxCycles = scaled(c.maxCycles);
        c.profileLen = scaled(c.profileLen);
        c.epochLen = scaled(c.epochLen);
        c.checkpointEvery = scaled(c.checkpointEvery);
        c.statsStreamPeriod = scaled(c.statsStreamPeriod);
        c.servingRequests = static_cast<std::uint32_t>(
            std::max<Cycle>(1, scaled(c.servingRequests)));
    }
    for (std::string *out :
         {&c.timelineOut, &c.statsStreamOut, &c.checkpointPath}) {
        if (!out->empty() && (*out)[0] != '/')
            *out = opt_.scratchDir + "/" + *out;
    }
    if (kind == RepeatKind::SetupOnly) {
        c.maxCycles = 0;
        c.timeline = false;
        c.timelineOut.clear();
        c.statsStreamOut.clear();
        c.checkpointEvery = 0;
    }
}

RepeatOutcome
WorkloadRunner::repeat(RepeatKind kind)
{
    const bool traced = kind == RepeatKind::Traced;
    spans_.setEnabled(traced);
    RepeatOutcome o;
    const double t0 = nowSeconds();
    ScopedSpan root(spans_, "repeat");

    double t_expand = 0;
    std::vector<scenario::ExpandedPoint> expanded = load(root.id(), t_expand);
    std::vector<SweepPoint> points;
    for (scenario::ExpandedPoint &ep : expanded) {
        prepare(ep.point, kind);
        points.push_back(ep.point);
    }
    const std::size_t n = points.size();
    std::vector<PointSlot> slots(n);
    for (std::size_t i = 0; i < n; ++i) {
        SweepPoint &p = points[i];
        PointSlot &slot = slots[i];
        const auto i64 = static_cast<std::int64_t>(i);
        p.onBuilt = [this, &slot, i64, traced,
                     built = std::move(p.onBuilt)](GpuSystem &gpu) {
            if (built)
                built(gpu);
            slot.built = nowSeconds();
            spans_.end(slot.constructSpan);
            slot.runSpan = spans_.begin("point.run", slot.span, i64);
            if (traced)
                sampler::setThreadActive(true);
        };
        p.post = [this, &slot, i64, kind,
                  post = std::move(p.post)](GpuSystem &gpu,
                                            RunResult &r) {
            sampler::setThreadActive(false);
            slot.end = nowSeconds();
            spans_.end(slot.runSpan);
            ScopedSpan ps(spans_, "point.post", slot.span, i64);
            if (post)
                post(gpu, r);
            if (kind != RepeatKind::SetupOnly)
                slot.sim = extractCounters(gpu, r);
        };
    }

    // Set-up-only repeats build the points one at a time, so the
    // summed construction time is free of allocator contention.
    std::vector<RunResult> results(n);
    const SweepRunner runner(kind == RepeatKind::SetupOnly ? 1
                                                           : opt_.threads);
    const double t_run0 = nowSeconds();
    {
        ScopedSpan pf(spans_, "sweep.parallel_for", root.id());
        runner.parallelFor(n, [&](std::size_t i) {
            PointSlot &slot = slots[i];
            const auto i64 = static_cast<std::int64_t>(i);
            slot.span = spans_.begin("sweep.run_point", pf.id(), i64);
            slot.constructSpan =
                spans_.begin("point.construct", slot.span, i64);
            slot.start = nowSeconds();
            try {
                results[i] = SweepRunner::runPoint(points[i]);
            } catch (const std::exception &e) {
                sampler::setThreadActive(false);
                slot.error = e.what();
            }
            spans_.end(slot.span);
        });
    }
    const double t_run1 = nowSeconds();

    o.expand = t_expand - t0;
    for (const PointSlot &slot : slots) {
        if (slot.built > 0)
            o.construct += slot.built - slot.start;
        if (slot.end > 0)
            o.pointRun += slot.end - slot.built;
    }
    o.setup = o.expand + o.construct;
    o.runWall = t_run1 - t_run0;
    if (kind == RepeatKind::SetupOnly)
        return o;

    {
        ScopedSpan s(spans_, "emit.csv", root.id());
        const double e0 = nowSeconds();
        const std::string csv = scenario::emitCsv(
            scenario::emitPoints(expanded), results);
        o.csvHash = fnv1a(csv);
        o.emit = nowSeconds() - e0;
    }
    o.wall = nowSeconds() - t0;

    // Worker time left idle while the slowest points finish.
    double busy = 0;
    for (const PointSlot &slot : slots)
        busy += slot.end > 0 ? slot.end - slot.start : 0;
    const double workers =
        static_cast<double>(std::min<std::size_t>(runner.numThreads(), n));
    o.idlePct = 100.0 * std::max(0.0, 1.0 - busy / (workers * o.runWall));

    // Operations: every point, plus every serving request.
    std::map<std::string, std::pair<double, double>> gain; // shared, adaptive
    for (std::size_t i = 0; i < n; ++i) {
        ++o.attempted;
        if (!slots[i].error.empty()) {
            ++o.failed;
            o.errors.push_back(points[i].label + ": " + slots[i].error);
            continue;
        }
        const SimCounters &sim = slots[i].sim;
        o.sim.add(sim);
        const auto want =
            static_cast<std::uint64_t>(sim.at("serve.requests"));
        const auto done =
            static_cast<std::uint64_t>(sim.at("serve.completed"));
        o.attempted += want;
        if (done < want) {
            o.failed += want - done;
            o.errors.push_back(strfmt(
                "%s: %llu of %llu requests completed by cycle %llu",
                points[i].label.c_str(), static_cast<unsigned long long>(done),
                static_cast<unsigned long long>(want),
                static_cast<unsigned long long>(results[i].cycles)));
        }
        const SimConfig &c = points[i].cfg;
        const auto &apps = points[i].apps;
        if (apps.size() == 1 &&
            apps[0].klass == WorkloadClass::PrivateFriendly) {
            if (c.llcPolicy == LlcPolicy::ForceShared)
                gain[apps[0].abbr].first = results[i].ipc;
            else if (c.llcPolicy == LlcPolicy::Adaptive)
                gain[apps[0].abbr].second = results[i].ipc;
        }
    }
    std::vector<double> ratios;
    for (const auto &[app, ipcs] : gain) {
        if (ipcs.first > 0 && ipcs.second > 0)
            ratios.push_back(ipcs.second / ipcs.first - 1.0);
    }
    if (!ratios.empty())
        o.adaptiveGainPct = 100.0 * mean(ratios);
    return o;
}

bool
WorkloadRunner::oracle(std::string &detail)
{
    ScopedSpan root(spans_, "oracle");
    double unused = 0;
    std::vector<scenario::ExpandedPoint> expanded = load(root.id(), unused);
    SweepPoint base = expanded.front().point;
    prepare(base, RepeatKind::Timed);
    base.cfg.timeline = false;
    base.cfg.timelineOut.clear();
    base.cfg.statsStreamOut.clear();
    base.cfg.checkpointEvery = 0;
    base.onBuilt = nullptr;
    base.post = nullptr;
    const Cycle prefix = std::max<Cycle>(
        2, static_cast<Cycle>(kOraclePrefix * opt_.scale));

    // Straight tick run; its end state also times checkpoint().
    SweepPoint straight = base;
    straight.cfg.simMode = SimMode::Tick;
    straight.cfg.maxCycles = prefix;
    std::vector<double> ckpt_ms;
    std::uint32_t tick_span = 0;
    straight.post = [&](GpuSystem &gpu, RunResult &) {
        for (int k = 0; k < 5; ++k) {
            ScopedSpan s(spans_, "gpu.checkpoint", tick_span, 0);
            std::ostringstream os;
            const double c0 = nowSeconds();
            gpu.checkpoint(os);
            ckpt_ms.push_back(1e3 * (nowSeconds() - c0));
            ckptBytes = static_cast<double>(os.str().size());
        }
    };
    RunResult a;
    {
        ScopedSpan s(spans_, "oracle.tick", root.id(), 0);
        tick_span = s.id();
        a = SweepRunner::runPoint(straight);
    }
    ckptMs = median(ckpt_ms);

    // Event driver: half the prefix, checkpoint, restore, finish.
    std::string state;
    SweepPoint first_half = base;
    first_half.cfg.simMode = SimMode::Event;
    first_half.cfg.maxCycles = prefix / 2;
    first_half.post = [&](GpuSystem &gpu, RunResult &) {
        std::ostringstream os;
        gpu.checkpoint(os);
        state = os.str();
    };
    SweepPoint second_half = base;
    second_half.cfg.simMode = SimMode::Event;
    second_half.cfg.maxCycles = prefix;
    second_half.onBuilt = [&](GpuSystem &gpu) {
        std::istringstream is(state);
        gpu.restore(is);
    };
    RunResult b;
    {
        ScopedSpan s(spans_, "oracle.event_restore", root.id(), 0);
        SweepRunner::runPoint(first_half);
        b = SweepRunner::runPoint(second_half);
    }
    const bool ok = identicalResults(a, b);
    detail = strfmt("%llu-cycle prefix of %s: event + checkpoint@%llu + "
                    "restore %s tick",
                    static_cast<unsigned long long>(prefix),
                    base.label.c_str(),
                    static_cast<unsigned long long>(prefix / 2),
                    ok ? "==" : "!=");
    return ok;
}

// ---- single-workload mode ----------------------------------------------

struct Report
{
    std::map<std::string, double> values;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> lines;

    void
    note(const std::string &s)
    {
        lines.push_back(s);
    }
};

std::string
resultJson(const Report &rep, bool per_layer, bool all)
{
    std::string s = strfmt(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        rep.failed == 0 ? "true" : "false",
        static_cast<unsigned long long>(rep.attempted),
        static_cast<unsigned long long>(rep.failed));
    bool first = true;
    for (const MetricDef &m : metricDefs()) {
        const auto it = rep.values.find(m.name);
        if ((!all && m.perLayer != per_layer) || it == rep.values.end())
            continue;
        const double v = std::isfinite(it->second) ? it->second : 0.0;
        s += strfmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", m.name, v, m.unit);
        first = false;
    }
    return s + "}}";
}

/** Simulated per-layer metrics: deterministic, from one repeat. */
void
addSimulatedLayers(Report &rep, const RepeatOutcome &r0)
{
    const SimCounters &sim = r0.sim;
    const auto ratio = [&sim](const char *a, const char *b) {
        return sim.at(b) > 0 ? sim.at(a) / sim.at(b) : 0.0;
    };
    const auto share = [&sim](const char *part, const char *rest) {
        const double all = sim.at(part) + sim.at(rest);
        return all > 0 ? sim.at(part) / all : 0.0;
    };
    auto &v = rep.values;
    v["ipc"] = ratio("instructions", "cycles");
    rep.note(strfmt("%-18s %12.6g instr/cycle (%.0f instr / %.0f cycles)",
                    "ipc", v["ipc"], sim.at("instructions"),
                    sim.at("cycles")));
    v["noc.req_latency_cycles"] =
        ratio("noc.req_latency_sum", "stat.noc.req_delivered");
    v["noc.rep_latency_cycles"] =
        ratio("noc.rep_latency_sum", "stat.noc.rep_delivered");
    v["gpu.issue_stall_frac"] = ratio("sm.issue_stalls", "sm.cycles");
    v["l1.read_miss_rate"] = share("l1.read_misses", "l1.read_hits");
    v["llc.read_miss_rate"] = ratio("stat.llc.read_misses", "stat.llc.reads");
    v["llc.accesses_per_kcycle"] = 1e3 * ratio("llc.accesses", "cycles");
    v["llc.reconfig_stall_frac"] = ratio("llc.reconfig_stalls", "cycles");
    v["dram.row_hit_rate"] = share("stat.mc.row_hits", "stat.mc.row_misses");
    v["dram.bus_util"] = ratio("stat.mc.bus_busy_cycles", "mc.cycles");
    v["dram.write_frac"] = share("stat.mc.writes", "stat.mc.reads");
    v["dram.queue_rejects_per_kcycle"] = 1e3 * ratio("dram.rejects", "cycles");
    v["sim.jump_frac"] = ratio("sim.jumped_cycles", "cycles");
    v["sim.jumps"] = sim.at("sim.jumps");
    v["serve.batch_occupancy"] = ratio("serve.occupancy_sum", "serve.batches");
    v["serve.queue_depth_mean"] =
        ratio("serve.queue_depth_sum", "serve.batches");

    v["adaptive_gain_pct"] = 0.0;
    if (std::isfinite(r0.adaptiveGainPct)) {
        v["adaptive_gain_pct"] = r0.adaptiveGainPct;
        rep.note(strfmt("adaptive_gain_pct  %+.2f%% (paper %+.1f%%, gap "
                        "%+.1f points; unvalidated at this length)",
                        r0.adaptiveGainPct, kPaperAdaptiveGainPct,
                        r0.adaptiveGainPct - kPaperAdaptiveGainPct));
    }
    v["serve_p50_cycles"] = v["serve_p95_cycles"] = 0.0;
    if (!sim.latencies.empty()) {
        std::vector<std::uint64_t> lat = sim.latencies;
        std::sort(lat.begin(), lat.end());
        const std::uint64_t p50 = nearestRank(lat, 50);
        const std::uint64_t p95 = nearestRank(lat, 95);
        const auto beyond = static_cast<std::size_t>(
            lat.end() - std::upper_bound(lat.begin(), lat.end(), p95));
        v["serve_p50_cycles"] = static_cast<double>(p50);
        v["serve_p95_cycles"] = static_cast<double>(p95);
        rep.note(strfmt("serve latency      p50 %llu  p95 %llu cycles "
                        "(n=%zu, %zu beyond p95; from scheduled arrival)",
                        static_cast<unsigned long long>(p50),
                        static_cast<unsigned long long>(p95), lat.size(),
                        beyond));
    }
}

/**
 * Traced repeats after the timed ones, until the sampler holds enough
 * PCs: the host layer split from the PC samples, the span file
 * (validated), and the overhead of both instruments against the
 * untraced median.
 */
void
addTracedLayers(Report &rep, WorkloadRunner &runner, SpanRecorder &spans,
                const Options &opt, const std::vector<RepeatOutcome> &timed)
{
    auto &v = rep.values;
    std::vector<double> untraced_walls;
    std::vector<double> per_cycle;
    for (const RepeatOutcome &r : timed) {
        untraced_walls.push_back(r.wall);
        per_cycle.push_back(r.pointRun / r.sim.at("cycles"));
    }
    std::vector<std::uintptr_t> pcs;
    std::vector<double> traced_walls;
    do {
        sampler::start(kSampleIntervalUs);
        const RepeatOutcome tr = runner.repeat(RepeatKind::Traced);
        sampler::stop();
        const std::vector<std::uintptr_t> got = sampler::take();
        pcs.insert(pcs.end(), got.begin(), got.end());
        traced_walls.push_back(tr.wall);
        rep.attempted += tr.attempted + 1;
        rep.failed +=
            tr.failed + (tr.csvHash == timed.front().csvHash ? 0 : 1);
    } while (pcs.size() < opt.minSamples &&
             traced_walls.size() < kMaxTracedRepeats);
    spans.setEnabled(false);
    v["trace.overhead_pct"] =
        100.0 * (median(traced_walls) / median(untraced_walls) - 1.0);
    v["host.ns_per_cycle"] = 1e9 * median(per_cycle);

    std::string problem;
    LayerSamples layers;
    if (!attributeSamples(pcs, opt.scratchDir, layers, problem))
        layers.clear();
    double pct_sum = 0;
    std::vector<std::pair<double, std::string>> ranked;
    for (const std::string &layer : hostLayers()) {
        const double pct = pcs.empty()
            ? 0.0
            : 100.0 * static_cast<double>(layers[layer]) /
                static_cast<double>(pcs.size());
        v["host." + layer + ".self_pct"] = pct;
        pct_sum += pct;
        ranked.emplace_back(pct, layer);
    }
    v["host.samples"] = static_cast<double>(pcs.size());
    std::sort(ranked.rbegin(), ranked.rend());
    std::string split;
    for (const auto &[pct, layer] : ranked)
        split += strfmt(" %s %.1f%%", layer.c_str(), pct);
    rep.note("host layers:" + split);
    if (problem.empty() && pcs.size() < opt.minSamples)
        problem = strfmt("%zu samples < %zu", pcs.size(), opt.minSamples);
    if (problem.empty() && std::fabs(pct_sum - 100.0) > 1.0)
        problem = strfmt("self_pct sums to %.2f", pct_sum);

    const std::string trace_path =
        opt.traceDir + "/" + opt.workload + ".trace.json";
    const bool written = spans.write(trace_path);
    const obs::TraceCheckResult check =
        obs::checkPerfettoTraceFile(trace_path);
    if (problem.empty() && !(written && check.ok))
        problem = "span file " + trace_path + ": " + check.error;
    rep.note(strfmt("trace: %s (%zu spans, %zu B/E pairs) %s",
                    trace_path.c_str(), spans.size(), check.durations,
                    problem.empty() ? "valid" : problem.c_str()));
    rep.failed += problem.empty() ? 0 : 1;
}

int
runOneWorkload(const Options &opt)
{
    if (std::find(kWorkloads.begin(), kWorkloads.end(), opt.workload) ==
        kWorkloads.end()) {
        std::fprintf(stderr, "amsc_bench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    const bool traced = !opt.traceDir.empty();
    const double start = nowSeconds();
    SpanRecorder spans;
    WorkloadRunner runner(opt, spans);
    Report rep;

    // Oracle first (untimed); spans only when traced.
    spans.setEnabled(traced);
    std::string oracle_detail;
    bool oracle_ok = false;
    try {
        oracle_ok = runner.oracle(oracle_detail);
    } catch (const std::exception &e) {
        oracle_detail = std::string("oracle threw: ") + e.what();
    }
    ++rep.attempted;
    rep.failed += oracle_ok ? 0 : 1;
    rep.note("oracle: " + oracle_detail + (oracle_ok ? " ok" : " FAILED"));

    // Timed repeats until the next one would overrun --seconds; a
    // traced run keeps room for its traced repeats. Set-up is short and
    // memory bound, so it is sampled on its own before every repeat:
    // its median then spans the whole run, not one moment of it.
    std::vector<double> setups;
    std::vector<RepeatOutcome> timed;
    const double budget_end = start + opt.seconds;
    for (;;) {
        const double sample_end = nowSeconds() + kSetupSampleSeconds;
        do
            setups.push_back(runner.repeat(RepeatKind::SetupOnly).setup);
        while (nowSeconds() < sample_end);
        timed.push_back(runner.repeat(RepeatKind::Timed));
        const double wall = timed.back().wall;
        const double next = wall + kSetupSampleSeconds +
            (traced ? std::ceil(kTracedSeconds / wall) * wall : 0.0);
        if (timed.size() >= opt.minRepeats &&
            (nowSeconds() + next > budget_end || timed.size() >= 100))
            break;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    // Output checks over the timed repeats.
    const RepeatOutcome &r0 = timed.front();
    bool same_csv = true;
    for (const RepeatOutcome &r : timed) {
        rep.attempted += r.attempted + 1;
        rep.failed += r.failed;
        same_csv = same_csv && r.csvHash == r0.csvHash;
    }
    if (!same_csv)
        rep.failed += 1;
    for (const std::string &e : r0.errors)
        rep.note("error: " + e);
    rep.note(strfmt("csv fingerprint %016llx over %zu repeats: %s",
                    static_cast<unsigned long long>(r0.csvHash),
                    timed.size(), same_csv ? "identical" : "DIFFERENT"));

    // Host-time metrics: median of the samples, min/max beside it.
    const auto record = [&](const char *name, const char *unit,
                            const std::vector<double> &v) {
        rep.values[name] = median(v);
        rep.note(strfmt("%-18s %12.6g %-9s min %.6g  max %.6g  n=%zu", name,
                        rep.values[name], unit,
                        *std::min_element(v.begin(), v.end()),
                        *std::max_element(v.begin(), v.end()), v.size()));
    };
    const auto stat = [&](const char *name, const char *unit,
                          double (*f)(const RepeatOutcome &)) {
        std::vector<double> v;
        for (const RepeatOutcome &r : timed)
            v.push_back(f(r));
        record(name, unit, v);
    };
    stat("wall_s", "s", [](const RepeatOutcome &r) { return r.wall; });
    record("setup_s", "s", setups);
    stat("sim_kcps", "kcycle/s", [](const RepeatOutcome &r) {
        return r.sim.at("cycles") / 1e3 / r.runWall;
    });
    stat("sim_kips", "kinstr/s", [](const RepeatOutcome &r) {
        return r.sim.at("instructions") / 1e3 / r.runWall;
    });
    rep.values["peak_rss_mb"] = rss_mb;
    rep.note(strfmt("%-18s %12.6g MB", "peak_rss_mb", rss_mb));
    addSimulatedLayers(rep, r0);
    rep.values["ckpt.write_ms"] = runner.ckptMs;
    rep.values["ckpt.bytes"] = runner.ckptBytes;
    stat("setup.construct_ms", "ms",
         [](const RepeatOutcome &r) { return 1e3 * r.construct; });
    stat("scenario.expand_ms", "ms",
         [](const RepeatOutcome &r) { return 1e3 * r.expand; });
    stat("emit.csv_ms", "ms",
         [](const RepeatOutcome &r) { return 1e3 * r.emit; });
    stat("sweep.idle_pct", "%",
         [](const RepeatOutcome &r) { return r.idlePct; });

    if (traced)
        addTracedLayers(rep, runner, spans, opt, timed);

    std::printf("amsc_bench %s seed=%llu threads=%u: %zu timed repeats, "
                "%zu setup samples, %.1f s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.threads,
                timed.size(), setups.size(), nowSeconds() - start);
    for (const std::string &line : rep.lines)
        std::printf("  %s\n", line.c_str());
    std::printf("  error_rate %.6g (%llu failed of %llu attempted)\n",
                static_cast<double>(rep.failed) /
                    static_cast<double>(rep.attempted),
                static_cast<unsigned long long>(rep.failed),
                static_cast<unsigned long long>(rep.attempted));
    std::printf("%s\n", resultJson(rep, traced, opt.allMetrics).c_str());
    std::fflush(stdout);
    return rep.failed == 0 ? 0 : 1;
}

// ---- all-workloads mode ------------------------------------------------

/** Run @p args as a child of this executable; returns its stdout. */
bool
runChild(const std::vector<std::string> &args, std::string &out,
         int &status)
{
    int fds[2];
    if (pipe(fds) != 0)
        return false;
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    const std::string exe = exePath();
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(exe.c_str()));
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    pid_t pid = 0;
    const int rc =
        posix_spawn(&pid, exe.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    if (rc == 0) {
        char buf[4096];
        ssize_t got = 0;
        while ((got = read(fds[0], buf, sizeof buf)) > 0) {
            out.append(buf, static_cast<std::size_t>(got));
            std::fwrite(buf, 1, static_cast<std::size_t>(got), stdout);
        }
        std::fflush(stdout);
    }
    close(fds[0]);
    if (rc != 0)
        return false;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return true;
}

std::string
lastLine(std::string text)
{
    while (!text.empty() && text.back() == '\n')
        text.pop_back();
    return text.substr(text.rfind('\n') + 1); // npos + 1 == 0
}

/** Metric names and units the spec file requires. */
bool
loadSpec(const std::string &path,
         std::vector<std::pair<std::string, std::string>> &names,
         std::string &error)
{
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    obs::JsonValue root;
    if (!f || !obs::parseJson(ss.str(), root, error)) {
        error = path + ": " + (error.empty() ? "unreadable" : error);
        return false;
    }
    for (const char *group : {"end_to_end", "per_layer"}) {
        const obs::JsonValue *list = root.find(group);
        if (!list || !list->isArray()) {
            error = path + ": no " + group + " list";
            return false;
        }
        for (const obs::JsonValue &m : list->items) {
            const obs::JsonValue *name = m.find("name");
            const obs::JsonValue *unit = m.find("unit");
            if (name && unit)
                names.emplace_back(name->text, unit->text);
        }
    }
    return true;
}

int
runAllWorkloads(const Options &opt)
{
    std::vector<std::pair<std::string, std::string>> spec;
    std::string spec_error;
    if (!opt.specPath.empty() && !loadSpec(opt.specPath, spec, spec_error)) {
        std::fprintf(stderr, "amsc_bench: %s\n", spec_error.c_str());
        return 1;
    }
    bool ok = true;
    std::string json = strfmt("{\"seed\": %llu, \"workloads\": {",
                              static_cast<unsigned long long>(opt.seed));
    std::map<std::string, std::map<std::string, double>> table;
    for (const std::string &w : kWorkloads) {
        std::vector<std::string> args = {
            "--workload=" + w,
            strfmt("--seed=%llu", static_cast<unsigned long long>(opt.seed)),
            strfmt("--seconds=%.17g", opt.seconds),
            "--scratch=" + opt.scratchDir, "--all-metrics"};
        if (!opt.traceDir.empty())
            args.push_back("--trace=" + opt.traceDir);
        if (opt.smoke)
            args.push_back("--smoke");
        std::string out;
        int status = 0;
        const bool ran = runChild(args, out, status);
        obs::JsonValue result;
        std::string perr;
        const std::string line = lastLine(out);
        if (!ran || !obs::parseJson(line, result, perr) ||
            !result.find("metrics")) {
            std::fprintf(stderr, "amsc_bench: %s printed no result\n",
                         w.c_str());
            ok = false;
            continue;
        }
        const obs::JsonValue *correct = result.find("correct");
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !correct ||
            !correct->boolean) {
            std::fprintf(stderr, "amsc_bench: %s failed its checks\n",
                         w.c_str());
            ok = false;
        }
        const obs::JsonValue &metrics = *result.find("metrics");
        for (const auto &[name, m] : metrics.members)
            table[name][w] = m.find("value") ? m.find("value")->number : 0;
        for (const auto &[name, unit] : spec) {
            const obs::JsonValue *m = metrics.find(name);
            const obs::JsonValue *u = m ? m->find("unit") : nullptr;
            if (!u || u->text != unit) {
                std::fprintf(stderr,
                             "amsc_bench: %s does not print %s [%s]\n",
                             w.c_str(), name.c_str(), unit.c_str());
                ok = false;
            }
        }
        json += strfmt("%s\"%s\": %s", json.back() == '{' ? "" : ", ",
                       w.c_str(), line.c_str());
    }
    json += "}}\n";

    std::printf("\n%-30s", "metric");
    for (const std::string &w : kWorkloads)
        std::printf(" %12s", w.c_str());
    std::printf("\n");
    for (const MetricDef &m : metricDefs()) {
        if (!table.count(m.name))
            continue;
        std::printf("%-30s", (std::string(m.name) + " [" + m.unit + "]")
                                 .c_str());
        for (const std::string &w : kWorkloads) {
            const auto it = table[m.name].find(w);
            if (it == table[m.name].end())
                std::printf(" %12s", "-");
            else
                std::printf(" %12.5g", it->second);
        }
        std::printf("\n");
    }
    if (!opt.outPath.empty()) {
        std::ofstream f(opt.outPath);
        f << json;
        if (!f) {
            std::fprintf(stderr, "amsc_bench: cannot write %s\n",
                         opt.outPath.c_str());
            ok = false;
        }
    }
    std::printf("\namsc_bench: %s\n", ok ? "all checks passed" : "FAILED");
    return ok ? 0 : 1;
}

// ---- command line ------------------------------------------------------

int
usage()
{
    std::fputs(
        "usage: amsc_bench [--workload=NAME] [--seed=N] [--seconds=S]\n"
        "                  [--trace=DIR] [--scratch=DIR] [--out=FILE]\n"
        "                  [--smoke --spec=BENCHMARK.json]\n"
        "workloads: fig11_sweep dram_stream serve idle_event observed\n",
        stderr);
    return 2;
}

/** --key=value or --key value; --smoke and --all-metrics are flags. */
bool
parseOptions(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke" || arg == "--all-metrics") {
            (arg == "--smoke" ? opt.smoke : opt.allMetrics) = true;
            continue;
        }
        if (arg.rfind("--", 0) != 0)
            return false;
        std::string key = arg.substr(2), value;
        const std::size_t eq = key.find('=');
        if (eq != std::string::npos) {
            value = key.substr(eq + 1);
            key.resize(eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            return false;
        }
        try {
            if (key == "workload")
                opt.workload = value;
            else if (key == "seed")
                opt.seed = std::stoull(value);
            else if (key == "seconds")
                opt.seconds = std::stod(value);
            else if (key == "trace")
                opt.traceDir = value;
            else if (key == "scratch")
                opt.scratchDir = value;
            else if (key == "out")
                opt.outPath = value;
            else if (key == "spec")
                opt.specPath = value;
            else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    return opt.seconds >= 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseOptions(argc, argv, opt))
        return usage();
    opt.threads =
        std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
    if (opt.scratchDir.empty()) {
        opt.scratchDir =
            std::filesystem::path(exePath()).parent_path().string() +
            "/bench_scratch";
    }
    if (opt.smoke) {
        // About 1/20 of every workload, one repeat, traced.
        opt.scale = 0.05;
        opt.seconds = 0;
        opt.minRepeats = 1;
        opt.minSamples = 25;
        if (opt.traceDir.empty())
            opt.traceDir = opt.scratchDir + "/smoke_trace";
    }
    std::error_code ec;
    std::filesystem::create_directories(opt.scratchDir, ec);
    if (!opt.traceDir.empty())
        std::filesystem::create_directories(opt.traceDir, ec);
    return opt.workload.empty() ? runAllWorkloads(opt)
                                : runOneWorkload(opt);
}
