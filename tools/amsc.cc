/**
 * @file
 * The unified amsc command-line interface.
 *
 *   amsc run <scenario.scn> [key=value ...] [--smoke] [--stats]
 *       Execute a scenario (its whole sweep grid) and print its
 *       `report { }` tables -- a paper figure for every figure
 *       scenario -- or a per-point summary table when it has none,
 *       or CSV/JSON with format=csv|json [out=FILE]. --stats appends
 *       each point's full statistics tree to the table;
 *       trace_record=FILE captures a trace of every point.
 *
 *   amsc sweep <scenario.scn> [sweep.key=v1,v2 ...] [key=value ...]
 *       Like run, but defaults to CSV output and reports the grid
 *       expansion; extra sweep axes can be added on the command line.
 *       With --journal=DIR [--shard=i/N] the run is crash-safe: each
 *       finished point is appended to a per-shard journal and
 *       nothing is emitted (that is merge's job).
 *
 *   amsc resume <scenario.scn> --journal=DIR [--shard=i/N]
 *       Re-open a journaled sweep after a crash or kill and run only
 *       the points that are not journaled yet.
 *
 *   amsc merge <scenario.scn> --journal=DIR [format=csv|json]
 *       Fold the shard journals back into the byte-identical CSV or
 *       JSON a single uninterrupted process would have emitted.
 *
 *   amsc fuzz [--points=N] [--seed=S] [out=DIR]
 *       Differential fuzz of the cycle-core drivers: N random
 *       scenarios run under sim_mode=tick and sim_mode=event and
 *       compared bit-for-bit (results, CSV bytes, observer samples,
 *       checkpoint files). A mismatch dumps the failing case as a
 *       reproducible .scn and exits 1.
 *
 *   amsc trace info <file.trc>
 *       A trace's kernel manifest and embedded run summary.
 *
 *   amsc trace verify <scenario.scn> trace_record=FILE [key=value ...]
 *       Run every point twice, recording and then replaying the
 *       trace the way `app { replay = FILE }` does, and compare the
 *       two runs bit for bit: exit 0 if all match, 1 on a
 *       difference, 2 if a differing recording hit max_cycles.
 *
 *   amsc list [workloads|scenarios [dir=DIR]]
 *       The Table-2 workload suite with its synthetic stand-in
 *       parameters, or the .scn files of a directory.
 *
 *   amsc describe [<key>] [--markdown]
 *       The complete SimConfig key registry; --markdown emits
 *       docs/configuration.md.
 *
 * Command-line key=value pairs override scenario settings: bare
 * SimConfig keys (max_cycles=2000) apply as config overrides,
 * sweep.<key>=a,b adds or replaces a sweep axis, and threads=N pins
 * the worker count (default: all cores, or AMSC_SWEEP_THREADS).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#ifdef _WIN32
#include <io.h>
#define AMSC_ISATTY _isatty
#define AMSC_FILENO _fileno
#else
#include <unistd.h>
#define AMSC_ISATTY isatty
#define AMSC_FILENO fileno
#endif

#include "common/error.hh"
#include "common/kvargs.hh"
#include "common/log.hh"
#include "common/strutil.hh"
#include "obs/trace_check.hh"
#include "scenario/diff_fuzz.hh"
#include "scenario/emit.hh"
#include "scenario/scenario.hh"
#include "scenario/schema.hh"
#include "sim/journal.hh"
#include "sim/sweep.hh"
#include "trace/trace_reader.hh"
#include "workloads/suite.hh"

using namespace amsc;
using scenario::ExpandedPoint;
using scenario::Scenario;

namespace
{

/** Keys consumed by the CLI itself, not by the scenario. */
const std::vector<std::string> kCliKeys = {
    "threads", "format", "out", "smoke", "--journal", "--shard"};

int
usage()
{
    std::fputs(
        "usage: amsc <command> [args]\n"
        "\n"
        "  run <file.scn> [key=value ...] [--smoke]   execute a "
        "scenario\n"
        "  sweep <file.scn> [sweep.key=v1,v2 ...]     execute and "
        "emit CSV\n"
        "  resume <file.scn> --journal=DIR            finish a "
        "killed sweep\n"
        "  merge <file.scn> --journal=DIR             fold shard "
        "journals to CSV/JSON\n"
        "  fuzz [--points=N] [--seed=S] [out=DIR]     differential "
        "sim_mode fuzz\n"
        "  trace info <file.trc>                      trace "
        "manifest and summary\n"
        "  trace verify <file.scn> trace_record=FILE  record, "
        "replay and compare\n"
        "  list [workloads|scenarios [dir=DIR]]       what is "
        "available\n"
        "  describe [<key>] [--markdown]              configuration "
        "reference\n"
        "  validate-timeline <trace.json>             check an "
        "emitted trace\n"
        "\n"
        "common keys: threads=N format=table|csv|json out=FILE\n"
        "run/sweep:   --timeline=FILE (Perfetto JSON per point), "
        "--progress,\n"
        "             --stats (full statistics after the table), "
        "trace_record=FILE\n"
        "sweep/resume: --journal=DIR (crash-safe journaled run), "
        "--shard=i/N\n"
        "full reference: docs/configuration.md, "
        "docs/observability.md, docs/robustness.md\n",
        stderr);
    return 2;
}

bool
hasFlag(const KvArgs &args, const std::string &flag)
{
    for (const std::string &p : args.positionals()) {
        if (p == flag)
            return true;
    }
    return false;
}

/** Load scenario + CLI overrides; scenario keys win load order. */
Scenario
loadWithOverrides(const std::string &path, const KvArgs &args)
{
    KvArgs kv = Scenario::parseScnFile(path);
    for (const std::string &key : args.orderedKeys()) {
        if (std::find(kCliKeys.begin(), kCliKeys.end(), key) !=
            kCliKeys.end()) {
            continue;
        }
        if (key == "--timeline") {
            // amsc run --timeline=out.json == timeline_out=out.json.
            Scenario::applyOverride(kv, "timeline_out",
                                    args.getString(key));
            continue;
        }
        Scenario::applyOverride(kv, key, args.getString(key));
    }
    return Scenario::fromKv(std::move(kv), path);
}

/** The points of @p expanded, each with its own output files. */
std::vector<SweepPoint>
pointsOf(const std::vector<ExpandedPoint> &expanded)
{
    std::vector<SweepPoint> points;
    points.reserve(expanded.size());
    for (const ExpandedPoint &ep : expanded)
        points.push_back(ep.point);
    scenario::perPointPaths(points);
    return points;
}

/**
 * Settle the output before any point runs: format= must be
 * table|csv|json, and @return whether the table a run @p emits shows
 * the scenario's reports -- false, after one stderr note, when the
 * grid cannot fill them.
 */
bool
planOutput(const std::string &format, bool emits, const Scenario &scn,
           const std::vector<ExpandedPoint> &expanded)
{
    if (format != "table" && format != "csv" && format != "json")
        throw ConfigError(strfmt("unknown format '%s' (table|csv|json)",
                                 format.c_str()));
    if (!emits || format != "table" || scn.reports().empty())
        return false;
    const std::string gap = scenario::reportGap(
        scn.reports(), scenario::emitPoints(expanded));
    if (gap.empty())
        return true;
    std::fprintf(stderr, "amsc: %s: %s; printing the per-point table\n",
                 scn.name().c_str(), gap.c_str());
    return false;
}

/**
 * Render results as format=table|csv|json (checked by planOutput).
 * Failed points (sweep_on_error=skip) carry their error text in every
 * format; they cannot fill the reports, so a table with any failed
 * point is the per-point one, after one stderr note naming them.
 */
std::string
render(const std::string &format, bool reports, const Scenario &scn,
       const std::vector<ExpandedPoint> &expanded,
       const std::vector<RunResult> &results,
       const std::vector<std::string> &errors)
{
    const auto epts = scenario::emitPoints(expanded);
    if (format == "csv")
        return scenario::emitCsv(epts, results, errors);
    if (format == "json")
        return scenario::emitJson(scn.name(), epts, results, errors);
    std::string failed;
    for (std::size_t i = 0; i < errors.size(); ++i) {
        if (!errors[i].empty())
            failed += (failed.empty() ? "" : ", ") + epts[i].label;
    }
    if (reports && failed.empty())
        return scenario::renderReports(scn.name(), scn.reports(), epts,
                                       results);
    if (reports)
        std::fprintf(stderr,
                     "amsc: %s: failed points cannot fill the reports "
                     "(%s); printing the per-point table\n",
                     scn.name().c_str(), failed.c_str());
    return scenario::renderTable(epts, results, errors);
}

/** Render seconds as "1h02m", "3m20s" or "45s". */
std::string
renderEta(double seconds)
{
    const long s = seconds < 0 ? 0 : static_cast<long>(seconds + 0.5);
    if (s >= 3600)
        return strfmt("%ldh%02ldm", s / 3600, (s % 3600) / 60);
    if (s >= 60)
        return strfmt("%ldm%02lds", s / 60, s % 60);
    return strfmt("%lds", s);
}

/** Parse --shard=i/N (0-based); defaults to 0/1. */
void
parseShard(const KvArgs &args, std::uint32_t &shard,
           std::uint32_t &shard_count)
{
    shard = 0;
    shard_count = 1;
    const std::string spec = args.getString("--shard", "");
    if (spec.empty())
        return;
    unsigned i = 0, n = 0;
    int consumed = 0;
    if (std::sscanf(spec.c_str(), "%u/%u%n", &i, &n, &consumed) !=
            2 ||
        consumed != static_cast<int>(spec.size()) || n == 0 || i >= n)
        throw ConfigError(
            strfmt("bad --shard '%s' (expected i/N with 0 <= i < N)",
                   spec.c_str()));
    shard = i;
    shard_count = n;
}

int
cmdRunSweep(const KvArgs &args, bool is_sweep, bool is_resume)
{
    if (args.positionals().size() < 2)
        return usage();
    const std::string path = args.positionals()[1];
    Scenario scn = loadWithOverrides(path, args);
    const bool smoke =
        hasFlag(args, "--smoke") || args.getBool("smoke", false);
    scn.setSmoke(smoke);

    const std::vector<ExpandedPoint> expanded = scn.expand();
    std::vector<SweepPoint> points = pointsOf(expanded);
    if (points.size() > 1 && !points[0].cfg.timelineOut.empty())
        std::fprintf(stderr, "amsc: timeline per point: %s ...\n",
                     points[0].cfg.timelineOut.c_str());

    // Journaled execution: open (or resume) this shard's journal
    // and mask out foreign-shard and already-journaled points.
    std::uint32_t shard = 0, shard_count = 1;
    parseShard(args, shard, shard_count);
    const std::string journal_dir = args.getString("--journal", "");
    if (is_resume && journal_dir.empty())
        throw ConfigError("amsc resume requires --journal=DIR");
    if (journal_dir.empty() && shard_count != 1)
        throw ConfigError("--shard requires --journal "
                          "(amsc merge reassembles the grid)");
    const std::string format =
        args.getString("format", is_sweep ? "csv" : "table");
    // A journaled run emits nothing: merge does.
    const bool reports =
        planOutput(format, journal_dir.empty(), scn, expanded);

    // --stats: a post hook dumps each point's statistics tree while
    // its GpuSystem is still alive; the dumps follow the table.
    const bool stats = hasFlag(args, "--stats");
    if (stats && (format != "table" || !journal_dir.empty()))
        throw ConfigError("--stats applies to format=table only");
    std::vector<std::string> stat_dumps(stats ? points.size() : 0);
    for (std::size_t i = 0; i < stat_dumps.size(); ++i) {
        points[i].post = [post = points[i].post, &dump = stat_dumps[i]](
                             GpuSystem &gpu, RunResult &r) {
            if (post)
                post(gpu, r);
            StatSet set("amsc");
            gpu.registerStats(set);
            std::ostringstream os;
            set.dump(os);
            dump = os.str();
        };
    }

    std::unique_ptr<SweepJournal> journal;
    std::vector<char> skip;
    std::size_t shard_points = 0, already_done = 0;
    if (!journal_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(journal_dir, ec);
        if (ec)
            throw IoError(journal_dir, "cannot create journal directory: " +
                                           ec.message());
        const JournalHeader header{sweepIdentityHash(points), shard,
                                   shard_count, points.size()};
        const std::string jpath = journal_dir + "/" +
            SweepJournal::shardFileName(shard, shard_count);
        if (is_resume && !std::filesystem::exists(jpath))
            throw ConfigError(strfmt(
                "nothing to resume: %s does not exist", jpath.c_str()));
        journal = std::make_unique<SweepJournal>(jpath, header);
        skip.assign(points.size(), 0);
        for (std::size_t j = 0; j < points.size(); ++j) {
            if (j % shard_count != shard) {
                skip[j] = 1;
                continue;
            }
            ++shard_points;
            if (journal->has(j)) {
                skip[j] = 1;
                ++already_done;
            }
        }
        std::fprintf(stderr,
                     "amsc: journal %s: %zu/%zu shard points "
                     "already done\n",
                     jpath.c_str(), already_done, shard_points);
    }

    const SweepRunner runner(
        static_cast<unsigned>(args.getUint("threads", 0)));
    std::fprintf(stderr,
                 "amsc: %s%s: %zu point%s on %u thread%s%s\n",
                 scn.name().c_str(),
                 scn.description().empty()
                     ? ""
                     : (" (" + scn.description() + ")").c_str(),
                 points.size(), points.size() == 1 ? "" : "s",
                 runner.numThreads(),
                 runner.numThreads() == 1 ? "" : "s",
                 smoke ? ", smoke (quarter-length runs)" : "");

    // Progress: a rich heartbeat (done/total, ETA, the point that
    // just finished) on interactive stderr or with --progress;
    // otherwise the coarse every-tenth lines, so batch logs stay
    // small and hangs are still distinguishable from progress.
    const bool heartbeat = hasFlag(args, "--progress") ||
        AMSC_ISATTY(AMSC_FILENO(stderr)) != 0;
    const std::size_t stride =
        std::max<std::size_t>(1, points.size() / 10);
    const auto t0 = std::chrono::steady_clock::now();
    auto last_beat = t0;
    const auto progress = [&](std::size_t done, std::size_t total,
                              std::size_t index) {
        if (total <= 1)
            return;
        if (!heartbeat) {
            if (done % stride == 0 || done == total)
                std::fprintf(stderr, "amsc: %zu/%zu points done\n",
                             done, total);
            return;
        }
        const auto now = std::chrono::steady_clock::now();
        if (done != total &&
            now - last_beat < std::chrono::seconds(1))
            return;
        last_beat = now;
        const double elapsed =
            std::chrono::duration<double>(now - t0).count();
        const double eta =
            elapsed / static_cast<double>(done) *
            static_cast<double>(total - done);
        std::fprintf(stderr,
                     "amsc: %zu/%zu (%.0f%%) eta %s, last: %s\n",
                     done, total,
                     100.0 * static_cast<double>(done) /
                         static_cast<double>(total),
                     renderEta(eta).c_str(),
                     points[index].label.c_str());
    };
    std::vector<std::string> errors(points.size());
    SweepOptions options;
    options.skip = skip.empty() ? nullptr : &skip;
    options.onResult = [&](std::size_t i, const RunResult &r,
                           const std::string &err) {
        errors[i] = err;
        if (journal)
            journal->append(
                {i, !err.empty(), points[i].label, err, r});
    };
    const std::vector<RunResult> results =
        runner.run(points, options, progress);

    if (journal) {
        // Emission is merge's job: a shard only sees its slice.
        std::fprintf(stderr,
                     "amsc: shard %u/%u complete: %zu/%zu points "
                     "journaled; emit with `amsc merge %s "
                     "--journal=%s`\n",
                     shard, shard_count, journal->numDone(),
                     shard_points, path.c_str(),
                     journal_dir.c_str());
        return 0;
    }

    std::string text =
        render(format, reports, scn, expanded, results, errors);
    for (std::size_t i = 0; i < stat_dumps.size(); ++i)
        text += "\n==== " + points[i].label + ": statistics ====\n" +
            stat_dumps[i];
    scenario::writeOut(text, args.getString("out", ""));
    return 0;
}

/** amsc merge: fold shard journals into the single-process output. */
int
cmdMerge(const KvArgs &args)
{
    if (args.positionals().size() < 2)
        return usage();
    const std::string path = args.positionals()[1];
    const std::string journal_dir = args.getString("--journal", "");
    if (journal_dir.empty())
        throw ConfigError("amsc merge requires --journal=DIR");

    Scenario scn = loadWithOverrides(path, args);
    scn.setSmoke(hasFlag(args, "--smoke") ||
                 args.getBool("smoke", false));
    const std::vector<ExpandedPoint> expanded = scn.expand();
    const std::string format = args.getString("format", "csv");
    const bool reports = planOutput(format, true, scn, expanded);
    const std::uint64_t sweep_hash =
        sweepIdentityHash(pointsOf(expanded));
    const std::size_t num_points = expanded.size();

    // Discover the shard files; all must agree on the shard count.
    std::vector<std::pair<std::uint32_t, std::string>> shards;
    std::uint32_t shard_count = 0;
    std::error_code ec;
    std::filesystem::directory_iterator dir_it(journal_dir, ec);
    if (ec)
        throw IoError(journal_dir, "cannot read journal directory: " +
                                       ec.message());
    for (const auto &entry : dir_it) {
        const std::string name = entry.path().filename().string();
        unsigned i = 0, n = 0;
        int consumed = 0;
        if (std::sscanf(name.c_str(), "shard-%u-of-%u.jnl%n", &i, &n,
                        &consumed) != 2 ||
            consumed != static_cast<int>(name.size()) || n == 0)
            continue;
        if (i >= n)
            throw ConfigError(strfmt(
                "bad journal name %s (shard index out of range)",
                name.c_str()));
        if (shard_count == 0)
            shard_count = n;
        else if (n != shard_count)
            throw ConfigError(
                strfmt("journal dir mixes shard counts (%u and %u)",
                       shard_count, n));
        shards.emplace_back(i, entry.path().string());
    }
    if (shards.empty())
        throw ConfigError(
            strfmt("no shard journals (shard-*-of-*.jnl) in %s",
                   journal_dir.c_str()));
    std::sort(shards.begin(), shards.end());

    std::vector<RunResult> results(num_points);
    std::vector<std::string> errors(num_points);
    std::vector<char> have(num_points, 0);
    for (const auto &[index, file] : shards) {
        const JournalHeader expect{sweep_hash, index, shard_count,
                                   num_points};
        for (const JournalRecord &rec :
             SweepJournal::readAll(file, expect)) {
            if (have[rec.pointIndex])
                continue;
            have[rec.pointIndex] = 1;
            results[rec.pointIndex] = rec.result;
            if (rec.failed) {
                errors[rec.pointIndex] = rec.error.empty()
                    ? "failed"
                    : rec.error;
            }
        }
    }
    std::size_t missing = 0;
    for (const char h : have)
        missing += (h == 0);
    if (missing != 0)
        throw ConfigError(
            strfmt("journal incomplete: %zu of %zu points missing "
                   "(finish with `amsc resume %s --journal=%s`)",
                   missing, num_points, path.c_str(),
                   journal_dir.c_str()));

    scenario::writeOut(
        render(format, reports, scn, expanded, results, errors),
        args.getString("out", ""));
    return 0;
}

int
cmdList(const KvArgs &args)
{
    const std::string what = args.positionals().size() > 1
        ? args.positionals()[1]
        : "workloads";
    if (what == "workloads") {
        std::printf("| abbr | benchmark | class | shared MB | "
                    "kernels (paper/sim) | pattern | shared frac | "
                    "compute/mem | CTAs x warps |\n"
                    "|---|---|---|---|---|---|---|---|---|\n");
        for (const WorkloadSpec &s : WorkloadSuite::all()) {
            std::printf("| %s | %s | %s | %.3f | %u / %u | %s | %.2f | "
                        "%u | %u x %u |\n",
                        s.abbr.c_str(), s.fullName.c_str(),
                        workloadClassName(s.klass).c_str(), s.sharedMb,
                        s.paperKernels, s.simKernels,
                        scenario::patternName(s.trace.pattern),
                        s.trace.sharedFraction, s.trace.computePerMem,
                        s.numCtas, s.warpsPerCta);
        }
        return 0;
    }
    if (what == "scenarios") {
        std::string dir = args.getString("dir", "");
        if (dir.empty()) {
            for (const char *cand : {"scenarios", "../scenarios"}) {
                if (std::filesystem::is_directory(cand)) {
                    dir = cand;
                    break;
                }
            }
        }
        if (dir.empty() || !std::filesystem::is_directory(dir))
            throw ConfigError(
                "no scenario directory found (pass dir=PATH)");
        std::vector<std::filesystem::path> files;
        for (const auto &e :
             std::filesystem::directory_iterator(dir)) {
            if (e.path().extension() == ".scn")
                files.push_back(e.path());
        }
        std::sort(files.begin(), files.end());
        std::printf("| scenario | points | description |\n"
                    "|---|---|---|\n");
        for (const auto &f : files) {
            const Scenario s = Scenario::load(f.string());
            std::printf("| %s | %zu | %s |\n", f.string().c_str(),
                        s.expand().size(), s.description().c_str());
        }
        return 0;
    }
    return usage();
}

int
cmdValidateTimeline(const KvArgs &args)
{
    if (args.positionals().size() < 2)
        return usage();
    int rc = 0;
    for (std::size_t i = 1; i < args.positionals().size(); ++i) {
        const std::string &path = args.positionals()[i];
        const obs::TraceCheckResult r =
            obs::checkPerfettoTraceFile(path);
        if (!r.ok) {
            std::fprintf(stderr, "amsc: %s: INVALID: %s\n",
                         path.c_str(), r.error.c_str());
            rc = 1;
            continue;
        }
        std::printf("%s: ok (%zu events, %zu tracks, %zu phases, "
                    "%zu instants, %zu counters, %zu decisions)\n",
                    path.c_str(), r.events, r.tracks, r.durations,
                    r.instants, r.counters, r.decisions);
    }
    return rc;
}

/** amsc trace info: a trace's manifest and embedded run summary. */
int
cmdTraceInfo(const std::string &path)
{
    const TraceReader reader(path);
    std::printf("trace:   %s (format v%u)\n", reader.path().c_str(),
                reader.version());
    std::printf("kernels: %zu\n", reader.kernels().size());
    for (const TraceKernel &k : reader.kernels()) {
        const std::uint64_t instrs = k.totalInstrs();
        const std::uint64_t bytes = k.totalPayloadBytes();
        std::printf("  %-16s %u CTAs x %u warps, %zu streams, "
                    "%llu instrs, %llu bytes (%.2f B/instr)\n",
                    k.name.c_str(), k.numCtas, k.warpsPerCta,
                    k.warps.size(),
                    static_cast<unsigned long long>(instrs),
                    static_cast<unsigned long long>(bytes),
                    instrs == 0 ? 0.0
                                : static_cast<double>(bytes) /
                            static_cast<double>(instrs));
    }
    const TraceRunSummary &s = reader.summary();
    if (s.valid) {
        std::printf("recorded run: cycles=%llu instrs=%llu "
                    "ipc=%.6f missRate=%.6f\n",
                    static_cast<unsigned long long>(s.cycles),
                    static_cast<unsigned long long>(s.instructions),
                    s.ipc, s.llcReadMissRate);
    }
    return 0;
}

/**
 * amsc trace verify: run every point recording its trace, then again
 * replaying that trace through the `app { replay = FILE }` hook, and
 * require bit-identical results.
 */
int
cmdTraceVerify(const KvArgs &args)
{
    if (args.positionals().size() < 3)
        return usage();
    Scenario scn = loadWithOverrides(args.positionals()[2], args);
    scn.setSmoke(hasFlag(args, "--smoke") ||
                 args.getBool("smoke", false));
    const std::vector<SweepPoint> record = pointsOf(scn.expand());
    std::vector<SweepPoint> replay = record;
    for (SweepPoint &p : replay) {
        if (p.cfg.traceRecordPath.empty())
            throw ConfigError(
                "amsc trace verify requires trace_record=FILE");
        p.setup = scenario::replaySetup(p.cfg.traceRecordPath);
        p.apps.clear();
        p.cfg.traceRecordPath.clear();
    }
    const SweepRunner runner(
        static_cast<unsigned>(args.getUint("threads", 0)));
    const std::vector<RunResult> rec = runner.run(record);
    const std::vector<RunResult> rep = runner.run(replay);

    bool differs = false, inconclusive = false;
    for (std::size_t i = 0; i < record.size(); ++i) {
        const char *verdict = "PASS";
        if (identicalResults(rec[i], rep[i])) {
        } else if (rec[i].finishedWork) {
            verdict = "FAIL";
            differs = true;
        } else {
            // A recording cut at max_cycles truncates warps
            // mid-stream, so its replay legitimately ends early.
            verdict = "INCONCLUSIVE";
            inconclusive = true;
        }
        std::printf("%s: %s (%s): recorded %llu cycles %llu instrs, "
                    "replayed %llu cycles %llu instrs%s\n",
                    record[i].label.c_str(), verdict,
                    record[i].cfg.traceRecordPath.c_str(),
                    static_cast<unsigned long long>(rec[i].cycles),
                    static_cast<unsigned long long>(
                        rec[i].instructions),
                    static_cast<unsigned long long>(rep[i].cycles),
                    static_cast<unsigned long long>(
                        rep[i].instructions),
                    rec[i].finishedWork ? "" : " (horizon reached)");
    }
    if (differs)
        return 1;
    return inconclusive ? 2 : 0;
}

int
cmdTrace(const KvArgs &args)
{
    const std::vector<std::string> &pos = args.positionals();
    if (pos.size() >= 3 && pos[1] == "info")
        return cmdTraceInfo(pos[2]);
    if (pos.size() >= 2 && pos[1] == "verify")
        return cmdTraceVerify(args);
    return usage();
}

/** amsc fuzz: differential tick/event fuzz campaign. */
int
cmdFuzz(const KvArgs &args)
{
    const std::uint32_t points = static_cast<std::uint32_t>(
        args.getUint("--points", args.getUint("points", 200)));
    const std::uint64_t seed =
        args.getUint("--seed", args.getUint("seed", 1));
    const unsigned threads =
        static_cast<unsigned>(args.getUint("threads", 0));
    const std::string out_dir = args.getString("out", ".");
    if (points == 0)
        throw ConfigError("--points must be non-zero");

    std::fprintf(stderr,
                 "amsc: fuzz: %u differential case%s, seed %llu\n",
                 points, points == 1 ? "" : "s",
                 static_cast<unsigned long long>(seed));
    const scenario::FuzzReport report = scenario::runDiffFuzz(
        seed, points, threads,
        [&](const scenario::FuzzCase &c,
            const scenario::FuzzOutcome &o) {
            if (o.ok)
                return;
            const std::string path = out_dir + "/" +
                strfmt("fuzz-fail-%llu-%u.scn",
                       static_cast<unsigned long long>(c.seed),
                       c.index);
            scenario::writeOut(c.scn, path);
            std::fprintf(stderr,
                         "amsc: fuzz case %u FAILED: %s\n"
                         "amsc:   reproduce: amsc run %s\n",
                         c.index, o.detail.c_str(), path.c_str());
        });
    if (report.failures != 0) {
        std::fprintf(stderr, "amsc: fuzz: %u/%u cases FAILED\n",
                     report.failures, report.points);
        return 1;
    }
    std::printf("fuzz: %u cases, seed %llu: tick and event "
                "bit-identical on all\n",
                report.points,
                static_cast<unsigned long long>(seed));
    return 0;
}

int
cmdDescribe(const KvArgs &args)
{
    if (hasFlag(args, "--markdown")) {
        std::fputs(scenario::renderConfigMarkdown().c_str(), stdout);
        return 0;
    }
    if (args.positionals().size() > 1) {
        std::fputs(
            scenario::renderKeyDetail(args.positionals()[1]).c_str(),
            stdout);
        return 0;
    }
    std::fputs(scenario::renderKeyTable().c_str(), stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const KvArgs args = KvArgs::parse(argc, argv);
    if (args.positionals().empty())
        return usage();
    const std::string &cmd = args.positionals()[0];
    try {
        if (cmd == "run")
            return cmdRunSweep(args, false, false);
        if (cmd == "sweep")
            return cmdRunSweep(args, true, false);
        if (cmd == "resume")
            return cmdRunSweep(args, true, true);
        if (cmd == "merge")
            return cmdMerge(args);
        if (cmd == "fuzz")
            return cmdFuzz(args);
        if (cmd == "trace")
            return cmdTrace(args);
        if (cmd == "list")
            return cmdList(args);
        if (cmd == "describe")
            return cmdDescribe(args);
        if (cmd == "validate-timeline")
            return cmdValidateTimeline(args);
    } catch (const SimError &e) {
        std::fprintf(stderr, "amsc: error: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "amsc: unknown command '%s'\n", cmd.c_str());
    return usage();
}
