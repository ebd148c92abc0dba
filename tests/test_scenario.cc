/**
 * @file
 * Scenario-engine tests: the nested KvArgs dialect, parsing and
 * round-tripping of every shipped `.scn` file, sweep-grid expansion
 * (counts, axis ordering, variants, multi-grid, multi-program
 * policies), bit-exact equivalence of the fig11 scenario with a
 * hand-built reference grid, the `report { }` figure tables (parse
 * errors, round trip, fill checks, recomputation on real runs),
 * emitter golden files, the ledger CSVs of quickstart, serving_llm
 * and ablation_reconfig, and unknown-key error messages naming the
 * nearest valid key.
 *
 * Set AMSC_UPDATE_GOLDEN=1 to rewrite tests/golden/ from the current
 * emitters and simulator.
 */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "throw_util.hh"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "common/kvargs.hh"
#include "common/stats.hh"
#include "common/strutil.hh"
#include "scenario/emit.hh"
#include "scenario/report.hh"
#include "scenario/scenario.hh"
#include "scenario/schema.hh"
#include "sim/sweep.hh"
#include "workloads/suite.hh"

using namespace amsc;
using scenario::EmitPoint;
using scenario::ExpandedPoint;
using scenario::Scenario;

namespace
{

const std::string kSourceDir = AMSC_SOURCE_DIR;

/** SimConfig equality through the complete key registry. */
void
expectSameConfig(const SimConfig &a, const SimConfig &b,
                 const std::string &context)
{
    for (const ConfigKeyInfo &k : ConfigRegistry::keys()) {
        EXPECT_EQ(k.get(a), k.get(b))
            << context << ": key '" << k.name << "' differs";
    }
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

std::vector<std::string>
shippedScenarios()
{
    std::vector<std::string> files;
    for (const auto &e : std::filesystem::directory_iterator(
             kSourceDir + "/scenarios")) {
        if (e.path().extension() == ".scn")
            files.push_back(e.path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
}

} // namespace

// ------------------------------------------- nested KvArgs dialect

TEST(ScenarioKv, NestedBlocksFlattenToDottedKeys)
{
    const KvArgs kv = KvArgs::parseText("# comment\n"
                                        "name = demo // trailing\n"
                                        "config {\n"
                                        "  max_cycles = 100\n"
                                        "  noc = hxbar\n"
                                        "}\n"
                                        "quoted = \"a # b\"\n");
    EXPECT_EQ(kv.getString("name", ""), "demo");
    EXPECT_EQ(kv.getString("config.max_cycles", ""), "100");
    EXPECT_EQ(kv.getString("config.noc", ""), "hxbar");
    EXPECT_EQ(kv.getString("quoted", ""), "a # b");
}

TEST(ScenarioKv, RepeatedIndexedBlocksAutoIndex)
{
    const KvArgs kv = KvArgs::parseText("app {\n  workload = AN\n}\n"
                                        "app {\n  workload = LUD\n}\n"
                                        "app {\n  workload = VA\n}\n",
                                        "<text>", {"app"});
    EXPECT_EQ(kv.getString("app.0.workload", ""), "AN");
    EXPECT_EQ(kv.getString("app.1.workload", ""), "LUD");
    EXPECT_EQ(kv.getString("app.2.workload", ""), "VA");
    EXPECT_FALSE(kv.has("app.workload"));
}

TEST(ScenarioKv, SingleBlockKeepsPlainPrefix)
{
    const KvArgs kv = KvArgs::parseText("app {\n  workload = AN\n}\n",
                                        "<text>", {"app"});
    EXPECT_EQ(kv.getString("app.workload", ""), "AN");
}

TEST(ScenarioKv, RepeatedNonIndexedBlocksMerge)
{
    // A second config { } block is a grouping choice, not a new
    // scope: keys merge, later values win.
    const KvArgs kv =
        KvArgs::parseText("config {\n  max_cycles = 100\n}\n"
                          "config {\n  seed = 7\n  max_cycles = 200\n"
                          "}\n");
    EXPECT_EQ(kv.getString("config.max_cycles", ""), "200");
    EXPECT_EQ(kv.getString("config.seed", ""), "7");
    EXPECT_FALSE(kv.has("config.0.max_cycles"));
}

TEST(ScenarioKv, ListsAndInsertionOrder)
{
    const KvArgs kv = KvArgs::parseText(
        "sweep {\n"
        "  workload = LUD, SP , 3DC\n"
        "  llc_policy = shared, private\n"
        "}\n");
    const auto wl = kv.getList("sweep.workload");
    ASSERT_EQ(wl.size(), 3u);
    EXPECT_EQ(wl[1], "SP");
    const auto keys = kv.keysWithPrefix("sweep.");
    ASSERT_EQ(keys.size(), 2u);
    // File order, not alphabetical: workload is the outer axis.
    EXPECT_EQ(keys[0], "sweep.workload");
    EXPECT_EQ(keys[1], "sweep.llc_policy");
}

TEST(ScenarioKvErrors, SyntaxErrorsNameTheLine)
{
    AMSC_EXPECT_THROW_MSG(KvArgs::parseText("config {\n", "f.scn"),
                          FormatError, "unterminated");
    AMSC_EXPECT_THROW_MSG(KvArgs::parseText("}\n", "f.scn"),
                          FormatError, "line 1: unmatched");
    AMSC_EXPECT_THROW_MSG(
        KvArgs::parseText("not an assignment\n", "f.scn"),
        FormatError, "key = value");
}

// ------------------------------------------- shipped .scn files

TEST(Scenario, ShippedFilesParseExpandAndRoundTrip)
{
    const auto files = shippedScenarios();
    ASSERT_GE(files.size(), 11u);
    for (const std::string &path : files) {
        SCOPED_TRACE(path);
        const Scenario s = Scenario::load(path);
        const auto points = s.expand();
        EXPECT_GT(points.size(), 0u);

        // Canonical-dump round trip: dump -> parse -> dump is a
        // fixed point, and the reparsed scenario expands to the same
        // grid (labels and full configurations).
        const std::string dumped = s.dumpText();
        const Scenario reparsed = Scenario::fromKv(
            Scenario::parseScnText(dumped, path + "<dump>"),
            path + "<dump>");
        EXPECT_EQ(dumped, reparsed.dumpText());
        // Reports survive the dump: as many as the file declares, and
        // equal after the reparse.
        std::size_t blocks = 0;
        std::istringstream lines(readFile(path));
        for (std::string line; std::getline(lines, line);)
            blocks += trim(line) == "report {";
        EXPECT_EQ(s.reports().size(), blocks);
        EXPECT_TRUE(s.reports() == reparsed.reports());
        const auto repoints = reparsed.expand();
        ASSERT_EQ(points.size(), repoints.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            EXPECT_EQ(points[i].point.label, repoints[i].point.label);
            expectSameConfig(points[i].point.cfg,
                             repoints[i].point.cfg,
                             points[i].point.label);
        }
    }
}

TEST(Scenario, EveryFigureScenarioHasAReport)
{
    // Every figure and ablation scenario prints its table from its own
    // grid: each carries a report, and the report fills the expanded
    // grid (fabricated results, so no point runs).
    std::size_t figures = 0;
    for (const std::string &path : shippedScenarios()) {
        const std::string stem = std::filesystem::path(path).stem();
        const bool figure = stem.rfind("fig", 0) == 0 ||
            stem.rfind("ablation", 0) == 0 || stem == "serving_llm";
        const Scenario s = Scenario::load(path);
        if (!figure && s.reports().empty())
            continue;
        SCOPED_TRACE(path);
        figures += figure;
        EXPECT_FALSE(s.reports().empty());
        std::vector<EmitPoint> points;
        std::vector<RunResult> results;
        for (const ExpandedPoint &ep : s.expand()) {
            points.push_back({ep.point.label, ep.coords});
            RunResult r;
            r.cycles = 60000;
            r.instructions = 1000000 + 7 * points.size();
            r.ipc = static_cast<double>(r.instructions) / 60000.0;
            r.appIpc.assign(std::max<std::size_t>(1, ep.point.apps.size()),
                            r.ipc / 2.0);
            r.llcReadMissRate = 0.25;
            r.llcResponseRate = 2.0;
            results.push_back(r);
        }
        EXPECT_EQ(scenario::reportGap(s.reports(), points), "");
        const std::string text = scenario::renderReports(
            s.name(), s.reports(), points, results);
        EXPECT_EQ(text.find("## " + s.name() + ": "), 0u);
    }
    EXPECT_EQ(figures, 13u);
}

// ------------------------------------------- fig11 == reference grid

namespace
{

/** The figure scenarios' scaled run: 60K cycles, 5K profile, 50K epoch. */
SimConfig
fig11Config()
{
    SimConfig cfg;
    cfg.maxCycles = 60000;
    cfg.profileLen = 5000;
    cfg.epochLen = 50000;
    cfg.validate();
    return cfg;
}

/**
 * The fig11 grid built by hand from the suite API: workloads in class
 * order, each under shared, private and adaptive.
 */
std::vector<SweepPoint>
fig11ReferencePoints(const SimConfig &cfg)
{
    std::vector<SweepPoint> points;
    for (const WorkloadClass klass :
         {WorkloadClass::SharedFriendly, WorkloadClass::PrivateFriendly,
          WorkloadClass::Neutral}) {
        for (const WorkloadSpec &spec :
             WorkloadSuite::byClass(klass)) {
            for (const LlcPolicy policy :
                 {LlcPolicy::ForceShared, LlcPolicy::ForcePrivate,
                  LlcPolicy::Adaptive}) {
                SweepPoint p;
                p.cfg = cfg;
                p.cfg.llcPolicy = policy;
                p.apps = {spec};
                p.label = spec.abbr + "/" + llcPolicyName(policy);
                points.push_back(std::move(p));
            }
        }
    }
    return points;
}

} // namespace

TEST(Scenario, Fig11GridMatchesBenchPointForPoint)
{
    const Scenario s = Scenario::load(
        kSourceDir + "/scenarios/fig11_performance.scn");
    const auto expanded = s.expand();
    const auto ref = fig11ReferencePoints(fig11Config());
    ASSERT_EQ(expanded.size(), ref.size());
    ASSERT_EQ(expanded.size(), 51u);
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(expanded[i].point.label, ref[i].label);
        expectSameConfig(expanded[i].point.cfg, ref[i].cfg,
                         ref[i].label);
        ASSERT_EQ(expanded[i].point.apps.size(), 1u);
        EXPECT_EQ(expanded[i].point.apps[0].abbr,
                  ref[i].apps[0].abbr);
    }
}

TEST(Scenario, Fig11RunsBitIdenticalToBench)
{
    // Short-horizon spot check that the scenario points don't just
    // look like the reference's -- they *run* identically (the full
    // identicalResults contract, every counter bit-exact).
    KvArgs file_kv = Scenario::parseScnFile(
        kSourceDir + "/scenarios/fig11_performance.scn");
    Scenario::applyOverride(file_kv, "max_cycles", "2500");
    Scenario::applyOverride(file_kv, "profile_len", "600");
    Scenario::applyOverride(file_kv, "epoch_len", "2000");
    const Scenario s =
        Scenario::fromKv(std::move(file_kv), "fig11<short>");
    const auto expanded = s.expand();

    SimConfig cfg = fig11Config();
    cfg.maxCycles = 2500;
    cfg.profileLen = 600;
    cfg.epochLen = 2000;
    const auto ref = fig11ReferencePoints(cfg);
    ASSERT_EQ(expanded.size(), ref.size());
    // One workload per class, all three policies each.
    for (const std::size_t i : {0u, 1u, 2u, 24u, 25u, 26u, 48u, 49u,
                                50u}) {
        SCOPED_TRACE(ref[i].label);
        const RunResult a = SweepRunner::runPoint(expanded[i].point);
        const RunResult b = SweepRunner::runPoint(ref[i]);
        EXPECT_TRUE(identicalResults(a, b));
    }
}

TEST(Scenario, Fig15PairsAreTheSuitesThirtyPairs)
{
    // The fig15 grid lists its pairs by hand; the suite's
    // multiprogramPairs() is the reference, in order, each pair under
    // shared+shared then shared+private after the single-app runs.
    const auto expanded = Scenario::load(
        kSourceDir + "/scenarios/fig15_multiprogram.scn").expand();
    const auto pairs = WorkloadSuite::multiprogramPairs();
    ASSERT_EQ(expanded.size(), 11u + 2 * pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        for (std::size_t k = 0; k < 2; ++k) {
            const SweepPoint &p = expanded[11 + 2 * i + k].point;
            ASSERT_EQ(p.apps.size(), 2u);
            EXPECT_EQ(p.apps[0].abbr, pairs[i].first.abbr);
            EXPECT_EQ(p.apps[1].abbr, pairs[i].second.abbr);
            EXPECT_EQ(p.cfg.llcPolicy, LlcPolicy::ForceShared);
            EXPECT_EQ(p.cfg.extraAppPolicies,
                      std::vector<LlcPolicy>{k == 0
                                                 ? LlcPolicy::ForceShared
                                                 : LlcPolicy::ForcePrivate});
        }
    }
}

// ------------------------------------------- grid expansion

TEST(Scenario, CartesianExpansionFirstAxisSlowest)
{
    const Scenario s = Scenario::fromKv(
        Scenario::parseScnText("workload = VA\n"
                          "sweep {\n"
                          "  num_sms = 16, 32\n"
                          "  llc_policy = shared, private, adaptive\n"
                          "}\n"),
        "inline");
    const auto points = s.expand();
    ASSERT_EQ(points.size(), 6u);
    EXPECT_EQ(points[0].point.label, "16/shared");
    EXPECT_EQ(points[1].point.label, "16/private");
    EXPECT_EQ(points[3].point.label, "32/shared");
    EXPECT_EQ(points[3].point.cfg.numSms, 32u);
    EXPECT_EQ(points[3].point.cfg.llcPolicy, LlcPolicy::ForceShared);
    ASSERT_EQ(points[5].coords.size(), 2u);
    EXPECT_EQ(points[5].coords[0].first, "num_sms");
    EXPECT_EQ(points[5].coords[1].second, "adaptive");
}

TEST(Scenario, VariantsApplyCompositeOverrides)
{
    const Scenario s = Scenario::fromKv(
        Scenario::parseScnText("workload = VA\n"
                          "variant.small {\n"
                          "  num_sms = 40\n"
                          "  num_clusters = 4\n"
                          "  slices_per_mc = 4\n"
                          "}\n"
                          "variant.base {\n"
                          "  mapping = pae\n"
                          "}\n"
                          "sweep {\n"
                          "  variant = base, small\n"
                          "}\n"),
        "inline");
    const auto points = s.expand();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].point.cfg.numSms, 80u);
    EXPECT_EQ(points[1].point.cfg.numSms, 40u);
    EXPECT_EQ(points[1].point.cfg.numClusters, 4u);
}

TEST(Scenario, MultipleGridsConcatenate)
{
    const Scenario s = Scenario::fromKv(
        Scenario::parseScnText("grid {\n"
                          "  llc_policy = shared\n"
                          "  sweep {\n"
                          "    workload = AN, VA\n"
                          "  }\n"
                          "}\n"
                          "grid {\n"
                          "  sweep {\n"
                          "    workload = LUD+AN\n"
                          "    app_policies = shared+shared, "
                          "shared+private\n"
                          "  }\n"
                          "}\n"),
        "inline");
    const auto points = s.expand();
    ASSERT_EQ(points.size(), 4u);
    EXPECT_EQ(points[0].point.apps.size(), 1u);
    EXPECT_EQ(points[0].point.cfg.llcPolicy, LlcPolicy::ForceShared);
    // Grid 2: two programs, per-app policies.
    ASSERT_EQ(points[2].point.apps.size(), 2u);
    EXPECT_EQ(points[2].point.apps[0].abbr, "LUD");
    EXPECT_EQ(points[2].point.apps[1].abbr, "AN");
    EXPECT_EQ(points[2].point.cfg.numApps(), 2u);
    EXPECT_EQ(points[3].point.cfg.llcPolicy, LlcPolicy::ForceShared);
    ASSERT_EQ(points[3].point.cfg.extraAppPolicies.size(), 1u);
    EXPECT_EQ(points[3].point.cfg.extraAppPolicies[0],
              LlcPolicy::ForcePrivate);
}

TEST(Scenario, AppBlocksDescribeSyntheticWorkloads)
{
    const Scenario s = Scenario::fromKv(
        Scenario::parseScnText("app {\n"
                          "  pattern = zipf\n"
                          "  name = Z2\n"
                          "  shared_mb = 2\n"
                          "  zipf_alpha = 0.9\n"
                          "  ctas = 64\n"
                          "  warps = 4\n"
                          "}\n"),
        "inline");
    const auto points = s.expand();
    ASSERT_EQ(points.size(), 1u);
    ASSERT_EQ(points[0].point.apps.size(), 1u);
    const WorkloadSpec &w = points[0].point.apps[0];
    EXPECT_EQ(w.abbr, "Z2");
    EXPECT_EQ(w.trace.pattern, AccessPattern::ZipfShared);
    EXPECT_EQ(w.trace.sharedLines, 2u * 8192u);
    EXPECT_DOUBLE_EQ(w.trace.zipfAlpha, 0.9);
    EXPECT_EQ(w.numCtas, 64u);
    EXPECT_EQ(w.warpsPerCta, 4u);
    // Single unswept point: labelled by the scenario name.
    EXPECT_EQ(points[0].point.label, "inline");
}

TEST(Scenario, ReplayAppsInstallASetupHook)
{
    const Scenario s = Scenario::fromKv(
        Scenario::parseScnText("app {\n  replay = does-not-exist.trc\n}\n"),
        "inline");
    const auto points = s.expand();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_TRUE(static_cast<bool>(points[0].point.setup));
    EXPECT_TRUE(points[0].point.apps.empty());
}

TEST(Scenario, MultiPointGridsWriteDistinctOutputFiles)
{
    // Every worker of a multi-point sweep needs files of its own:
    // one shared checkpoint_path let concurrent atomic writes race on
    // the same temp file (rename failed) and kept only the last
    // point's checkpoint.
    const std::string dir = ::testing::TempDir() + "amsc_grid_";
    const std::string base = "config {\n"
                             "  num_sms = 16\n"
                             "  num_clusters = 4\n"
                             "  num_mcs = 4\n"
                             "  slices_per_mc = 4\n"
                             "  max_cycles = 6000\n"
                             "  profile_len = 1000\n"
                             "}\n"
                             "app {\n"
                             "  pattern = zipf\n"
                             "  shared_lines = 2048\n"
                             "  mem_instrs = 40\n"
                             "  ctas = 32\n"
                             "  warps = 4\n"
                             "}\n";
    const std::string grid =
        "sweep {\n  llc_policy = shared, private, adaptive\n}\n";
    const auto points = [](const std::string &text) {
        std::vector<SweepPoint> out;
        for (const ExpandedPoint &ep :
             Scenario::fromKv(Scenario::parseScnText(text), "inline")
                 .expand())
            out.push_back(ep.point);
        scenario::perPointPaths(out);
        return out;
    };

    const std::string outputs =
        "config {\n"
        "  timeline_out = \"" + dir + "tl.json\"\n"
        "  stats_stream_out = \"" + dir + "st.jsonl\"\n"
        "  checkpoint_path = \"" + dir + "ck.bin\"\n"
        "  trace_record = \"" + dir + "rec.trc\"\n"
        "}\n";
    const std::vector<SweepPoint> named = points(base + grid + outputs);
    ASSERT_EQ(named.size(), 3u);
    std::set<std::string> paths;
    for (const SweepPoint &p : named) {
        for (const std::string &path :
             {p.cfg.timelineOut, p.cfg.statsStreamOut,
              p.cfg.checkpointPath, p.cfg.traceRecordPath})
            paths.insert(path);
    }
    EXPECT_EQ(paths.size(), 12u);
    EXPECT_EQ(named[2].cfg.checkpointPath, dir + "ck.p2.bin");
    // A single point keeps its paths as given.
    EXPECT_EQ(points(base + outputs)[0].cfg.checkpointPath,
              dir + "ck.bin");

    // Run the grid concurrently with periodic checkpoints: every
    // point leaves its own file, and each restores to its run.
    const std::vector<SweepPoint> ck = points(
        base + grid + "config {\n  checkpoint_every = 1000\n"
        "  checkpoint_path = \"" + dir + "ck.bin\"\n}\n");
    const std::vector<RunResult> results = SweepRunner(3).run(ck);
    for (std::size_t i = 0; i < ck.size(); ++i) {
        SimConfig cfg = ck[i].cfg;
        cfg.checkpointEvery = 0;
        GpuSystem gpu(cfg);
        gpu.setWorkload(0, WorkloadSuite::buildKernels(ck[i].apps[0],
                                                       cfg.seed, 0));
        std::ifstream is(cfg.checkpointPath, std::ios::binary);
        ASSERT_TRUE(is.is_open())
            << "no checkpoint " << cfg.checkpointPath;
        gpu.restore(is);
        EXPECT_TRUE(identicalResults(results[i], gpu.run()))
            << ck[i].label;
        std::remove(cfg.checkpointPath.c_str());
    }
}

TEST(Scenario, SmokeQuartersTheHorizon)
{
    Scenario s = Scenario::fromKv(
        Scenario::parseScnText("workload = VA\n"
                          "config {\n"
                          "  max_cycles = 60000\n"
                          "  profile_len = 5000\n"
                          "}\n"),
        "inline");
    s.setSmoke(true);
    const auto points = s.expand();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].point.cfg.maxCycles, 15000u);
    EXPECT_EQ(points[0].point.cfg.profileLen, 1250u);
}

TEST(Scenario, SharingScenariosCollectBucketsViaPostHook)
{
    const Scenario s = Scenario::load(
        kSourceDir + "/scenarios/fig03_intercluster_locality.scn");
    const auto points = s.expand();
    ASSERT_EQ(points.size(), 17u);
    for (const ExpandedPoint &p : points) {
        EXPECT_TRUE(p.point.cfg.trackSharing);
        EXPECT_TRUE(static_cast<bool>(p.point.post));
    }
}

// ------------------------------------------- unknown-key messages

TEST(ScenarioErrors, UnknownKeysNameTheNearestValidKey)
{
    SimConfig cfg;
    AMSC_EXPECT_THROW_MSG(ConfigRegistry::apply(cfg, "nmu_sms", "80"),
                          ConfigError, "num_sms");
    AMSC_EXPECT_THROW_MSG(
        Scenario::fromKv(Scenario::parseScnText("config {\n"
                                           "  lin_bytes = 64\n"
                                           "}\n"),
                         "f.scn"),
        ConfigError, "config.line_bytes");
    AMSC_EXPECT_THROW_MSG(
        Scenario::fromKv(Scenario::parseScnText("workload = VA\n"
                                           "sweep {\n"
                                           "  llc_polcy = shared\n"
                                           "}\n"),
                         "f.scn"),
        ConfigError, "llc_policy");
    AMSC_EXPECT_THROW_MSG(
        Scenario::fromKv(Scenario::parseScnText("worklod = AN\n"),
                         "f.scn"),
        ConfigError, "workload");
    AMSC_EXPECT_THROW_MSG(
        Scenario::fromKv(Scenario::parseScnText("workload = ANX\n"),
                         "f.scn"),
        ConfigError, "nearest is 'AN'");
    AMSC_EXPECT_THROW_MSG(
        Scenario::fromKv(Scenario::parseScnText("app {\n"
                                           "  pattern = zipf\n"
                                           "  zipf_alpa = 0.7\n"
                                           "}\n"),
                         "f.scn"),
        ConfigError, "zipf_alpha");
    // A block name used as a scalar key must produce a suggestion,
    // not a crash.
    AMSC_EXPECT_THROW_MSG(
        Scenario::fromKv(Scenario::parseScnText("app = AN\n"),
                         "f.scn"),
        ConfigError, "app.workload");
    AMSC_EXPECT_THROW_MSG(
        Scenario::fromKv(Scenario::parseScnText("grid = x\n"),
                         "f.scn"),
        ConfigError, "grid.sweep");
}

// ------------------------------------------- report { } blocks

namespace
{

/** fromKv over @p text, for the report error checks. */
Scenario
scenarioOf(const std::string &text)
{
    return Scenario::fromKv(Scenario::parseScnText(text, "r.scn"),
                            "r.scn");
}

const std::string kReportGrid = "workload = VA\n"
                                "variant.small {\n"
                                "  num_sms = 40\n"
                                "}\n"
                                "sweep {\n"
                                "  variant = small\n"
                                "  llc_policy = shared, private\n"
                                "}\n";

/** kReportGrid plus one report block of @p body. */
std::string
withReport(const std::string &body)
{
    return kReportGrid + "report {\n" + body + "}\n";
}

/** The scaled-down geometry that keeps the recompute tests fast. */
void
scaleDown(KvArgs &kv, const std::string &max_cycles)
{
    for (const auto &[key, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"num_sms", "16"},
             {"num_clusters", "4"},
             {"num_mcs", "4"},
             {"slices_per_mc", "4"},
             {"max_cycles", max_cycles},
             {"profile_len", "500"},
             {"epoch_len", "2000"}})
        Scenario::applyOverride(kv, key, value);
}

/** One table row as renderReport() prints it. */
std::string
tableRow(const std::string &label, const std::vector<double> &values)
{
    std::string row = "| " + label;
    for (const double v : values)
        row += " | " + strfmt("%.5f", v);
    return row + " |\n";
}

} // namespace

TEST(ReportErrors, MalformedBlocksFailAtLoad)
{
    // The well-formed block loads.
    EXPECT_EQ(scenarioOf(withReport("  metric = ipc\n"
                                    "  rows = llc_policy\n"))
                  .reports()
                  .size(),
              1u);
    AMSC_EXPECT_THROW_MSG(scenarioOf(withReport("  metric = ipc\n"
                                                "  rows = llc_policy\n"
                                                "  metrc = ipc\n")),
                          ConfigError, "'report.metric'");
    AMSC_EXPECT_THROW_MSG(scenarioOf(withReport("  metric = ipcc\n"
                                                "  rows = llc_policy\n")),
                          ConfigError, "nearest is 'ipc'");
    // Non-numeric columns are not metrics.
    AMSC_EXPECT_THROW_MSG(
        scenarioOf(withReport("  metric = final_llc_mode\n"
                              "  rows = llc_policy\n")),
        ConfigError, "unknown report metric 'final_llc_mode'");
    AMSC_EXPECT_THROW_MSG(scenarioOf(withReport("  metric = ipc / \n"
                                                "  rows = llc_policy\n")),
                          ConfigError, "empty report metric");
    AMSC_EXPECT_THROW_MSG(
        scenarioOf(withReport("  metric = ipc / cycles / cycles\n"
                              "  rows = llc_policy\n")),
        ConfigError, "malformed report metric");
    AMSC_EXPECT_THROW_MSG(scenarioOf(withReport("  metric = ipc\n"
                                                "  rows = llc_policy\n"
                                                "  mean = geometric\n")),
                          ConfigError, "unknown mean 'geometric'");
    // A baseline value its axis cannot take.
    AMSC_EXPECT_THROW_MSG(
        scenarioOf(withReport("  metric = ipc\n"
                              "  rows = variant\n"
                              "  columns = llc_policy\n"
                              "  baseline = llc_policy=sharde\n")),
        ConfigError, "baseline value 'sharde' is not on axis");
    AMSC_EXPECT_THROW_MSG(
        scenarioOf(withReport("  metric = ipc\n"
                              "  rows = llc_policy\n"
                              "  baseline = variant=big\n")),
        ConfigError, "nearest is 'small'");
    AMSC_EXPECT_THROW_MSG(
        scenarioOf(withReport("  metric = ipc\n"
                              "  rows = llc_policy\n"
                              "  baseline = llc_policy\n")),
        ConfigError, "not axis=value");
    // Axes must be sweep axes of the scenario, shown once.
    AMSC_EXPECT_THROW_MSG(scenarioOf(withReport("  metric = ipc\n"
                                                "  rows = llc_polcy\n")),
                          ConfigError, "nearest is 'llc_policy'");
    AMSC_EXPECT_THROW_MSG(scenarioOf(withReport("  metric = ipc\n"
                                                "  rows = llc_policy\n"
                                                "  columns = llc_policy\n")),
                          ConfigError, "shown twice");
    AMSC_EXPECT_THROW_MSG(scenarioOf(withReport("  metric = ipc\n"
                                                "  rows = class\n")),
                          ConfigError, "class needs a workload");
    AMSC_EXPECT_THROW_MSG(scenarioOf(withReport("  rows = llc_policy\n")),
                          ConfigError, "needs metric");
}

TEST(Report, DumpTextRoundTripsReportBlocks)
{
    const Scenario s = scenarioOf(
        withReport("  metric = ipc, llc_bypasses / llc_accesses, "
                   "llc_to_private + llc_to_shared / cycles\n"
                   "  rows = variant\n"
                   "  columns = llc_policy\n"
                   "  baseline = llc_policy=shared\n"
                   "  mean = harmonic\n"
                   "  paper = \"+28.1% avg; up to 38.1%\"\n") +
        "report {\n  metric = stp\n  rows = llc_policy\n}\n");
    ASSERT_EQ(s.reports().size(), 2u);
    const scenario::ReportSpec &r = s.reports()[0];
    ASSERT_EQ(r.metrics.size(), 3u);
    EXPECT_EQ(r.metrics[1].num, std::vector<std::string>{"llc_bypasses"});
    EXPECT_EQ(r.metrics[1].den, std::vector<std::string>{"llc_accesses"});
    EXPECT_EQ(r.metrics[2].num,
              (std::vector<std::string>{"llc_to_private",
                                        "llc_to_shared"}));
    EXPECT_EQ(r.paper, "+28.1% avg; up to 38.1%");

    const Scenario reparsed = Scenario::fromKv(
        Scenario::parseScnText(s.dumpText()), "r.scn<dump>");
    EXPECT_TRUE(s.reports() == reparsed.reports());
    EXPECT_EQ(s.dumpText(), reparsed.dumpText());
    // A scenario without reports dumps no report block.
    EXPECT_EQ(scenarioOf(kReportGrid).dumpText().find("report"),
              std::string::npos);
}

TEST(Report, Fig11ClassMeansAreHarmonicMeansOfRatios)
{
    KvArgs kv = Scenario::parseScnFile(
        kSourceDir + "/scenarios/fig11_performance.scn");
    scaleDown(kv, "3000");
    Scenario::applyOverride(kv, "sweep.workload", "LUD, GEMM, AN, RN, VA");
    const Scenario s = Scenario::fromKv(std::move(kv), "fig11<small>");
    const auto expanded = s.expand();
    std::vector<SweepPoint> points;
    for (const ExpandedPoint &ep : expanded)
        points.push_back(ep.point);
    const std::vector<RunResult> results = SweepRunner(2).run(points);
    const auto epts = scenario::emitPoints(expanded);
    ASSERT_EQ(scenario::reportGap(s.reports(), epts), "");
    const std::string text =
        scenario::renderReports(s.name(), s.reports(), epts, results);

    // Points are workload-major, shared/private/adaptive.
    const std::vector<std::pair<std::string, std::vector<std::size_t>>>
        classes = {{"shared-friendly", {0, 1}},
                   {"private-friendly", {2, 3}},
                   {"neutral", {4}}};
    std::size_t from = 0;
    for (const auto &[klass, workloads] : classes) {
        SCOPED_TRACE(klass);
        from = text.find("### class = " + klass, from);
        ASSERT_NE(from, std::string::npos) << text;
        std::vector<double> priv, adapt;
        for (const std::size_t w : workloads) {
            const double shared = results[3 * w].ipc;
            priv.push_back(results[3 * w + 1].ipc / shared);
            adapt.push_back(results[3 * w + 2].ipc / shared);
            EXPECT_NE(text.find(tableRow(expanded[3 * w].coords[0].second,
                                         {1.0, priv.back(),
                                          adapt.back()}),
                                from),
                      std::string::npos)
                << text;
        }
        const std::string summary =
            tableRow("harmonic mean",
                     {1.0, harmonicMean(priv), harmonicMean(adapt)});
        EXPECT_NE(text.find(summary, from), std::string::npos)
            << summary << text;
    }
}

TEST(Report, Fig15StpIsAppIpcOverSingleAppIpc)
{
    KvArgs kv = Scenario::parseScnFile(
        kSourceDir + "/scenarios/fig15_multiprogram.scn");
    scaleDown(kv, "3000");
    Scenario::applyOverride(kv, "grid.0.sweep.workload", "LUD, AN, RN");
    Scenario::applyOverride(kv, "grid.1.sweep.workload",
                            "LUD+AN, LUD+RN");
    const Scenario s = Scenario::fromKv(std::move(kv), "fig15<small>");
    const auto expanded = s.expand();
    ASSERT_EQ(expanded.size(), 7u);
    std::vector<SweepPoint> points;
    for (const ExpandedPoint &ep : expanded)
        points.push_back(ep.point);
    const std::vector<RunResult> results = SweepRunner(2).run(points);
    const auto epts = scenario::emitPoints(expanded);
    ASSERT_EQ(scenario::reportGap(s.reports(), epts), "");
    const std::string text =
        scenario::renderReports(s.name(), s.reports(), epts, results);

    // Grid 1: LUD, AN, RN alone; grid 2: each pair under shared+shared
    // then shared+private.
    const auto stp = [&](std::size_t i, std::size_t other) {
        return results[i].appIpc[0] / results[0].ipc +
            results[i].appIpc[1] / results[other].ipc;
    };
    const double an_ss = stp(3, 1), an_sp = stp(4, 1);
    const double rn_ss = stp(5, 2), rn_sp = stp(6, 2);
    for (const std::string &row :
         {tableRow("LUD+AN", {an_ss, an_sp}),
          tableRow("LUD+RN", {rn_ss, rn_sp}),
          tableRow("arithmetic mean",
                   {mean({an_ss, rn_ss}), mean({an_sp, rn_sp})}),
          tableRow("LUD+AN", {1.0, an_sp / an_ss}),
          tableRow("arithmetic mean",
                   {1.0, mean({an_sp / an_ss, rn_sp / rn_ss})})}) {
        EXPECT_NE(text.find(row), std::string::npos) << row << text;
    }
}

TEST(Report, GridWithoutTheBaselineTakesTheSkipPath)
{
    // README's timeline example narrows fig11 to adaptive points: no
    // shared point is left to normalize by, so the grid cannot fill
    // the report and amsc prints the per-point table instead.
    KvArgs kv = Scenario::parseScnFile(
        kSourceDir + "/scenarios/fig11_performance.scn");
    Scenario::applyOverride(kv, "sweep.workload", "AN");
    Scenario::applyOverride(kv, "sweep.llc_policy", "adaptive");
    const Scenario s = Scenario::fromKv(std::move(kv), "fig11<AN>");
    const std::string gap = scenario::reportGap(
        s.reports(), scenario::emitPoints(s.expand()));
    EXPECT_NE(gap.find("no baseline point llc_policy=shared"),
              std::string::npos)
        << gap;

    // Points sharing a cell need a mean to fold them.
    const Scenario unfolded = scenarioOf(
        withReport("  metric = ipc\n  rows = variant\n"));
    EXPECT_NE(scenario::reportGap(unfolded.reports(),
                                  scenario::emitPoints(unfolded.expand()))
                  .find("share a cell"),
              std::string::npos);
}

// ------------------------------------------- emitter golden files

namespace
{

RunResult
fabricatedResult(unsigned salt)
{
    RunResult r;
    r.cycles = 60000 + salt;
    r.instructions = 1234567 + salt;
    r.ipc = static_cast<double>(r.instructions) /
        static_cast<double>(r.cycles);
    r.appIpc = {r.ipc / 2.0, r.ipc / 2.0};
    r.appInstructions = {r.instructions / 2, r.instructions / 2};
    r.finishedWork = salt % 2 == 0;
    r.llcReadMissRate = 0.125 + 0.01 * salt;
    r.llcResponseRate = 3.5;
    r.llcAccesses = 100000 + salt;
    r.dramAccesses = 40000 + salt;
    r.dramRowHitRate = 0.5 + 0.01 * salt;
    r.dramRefreshes = 11 + salt;
    r.dramQueueRejects = 7 * salt;
    r.dramWriteDrains = 3 * salt;
    r.avgRequestLatency = 100.5;
    r.avgReplyLatency = 30.25;
    r.finalMode = salt % 2 == 0 ? LlcMode::Shared : LlcMode::Private;
    r.llcCtrl.transitionsToPrivate = salt;
    r.llcCtrl.transitionsToShared = salt / 2;
    r.llcCtrl.reconfigStallCycles = 30 * salt;
    r.sharingBuckets = {0.5, 0.25, 0.125, 0.125};
    return r;
}

void
checkGolden(const std::string &name, const std::string &content)
{
    const std::string path = kSourceDir + "/tests/golden/" + name;
    if (std::getenv("AMSC_UPDATE_GOLDEN")) {
        std::ofstream f(path, std::ios::binary);
        f << content;
        return;
    }
    EXPECT_EQ(readFile(path), content)
        << "golden file " << name
        << " drifted; run with AMSC_UPDATE_GOLDEN=1 to regenerate";
}

} // namespace

TEST(Emit, CsvAndJsonMatchGoldenFiles)
{
    const std::vector<EmitPoint> points = {
        {"LUD/shared", {{"workload", "LUD"}, {"llc_policy", "shared"}}},
        {"AN/private",
         {{"workload", "AN"}, {"llc_policy", "private"}}},
    };
    const std::vector<RunResult> results = {fabricatedResult(0),
                                            fabricatedResult(1)};
    checkGolden("emit.csv", scenario::emitCsv(points, results));
    checkGolden("emit.json",
                scenario::emitJson("golden", points, results));
}

namespace
{

/**
 * The scenario ledger: `amsc sweep scenarios/<name>.scn --smoke
 * format=csv`, regenerated in process and byte-compared with the
 * committed output. A change to any simulated result shows up here;
 * one that is meant updates the file. CI's build-and-test job
 * compares all 16 scenarios the same way through `amsc sweep`.
 */
void
checkLedger(const std::string &name)
{
    Scenario s =
        Scenario::load(kSourceDir + "/scenarios/" + name + ".scn");
    s.setSmoke(true);
    const auto expanded = s.expand();
    std::vector<SweepPoint> points;
    for (const ExpandedPoint &ep : expanded)
        points.push_back(ep.point);
    const std::vector<RunResult> results = SweepRunner(2).run(points);
    checkGolden("scenarios/" + name + ".csv",
                scenario::emitCsv(scenario::emitPoints(expanded),
                                  results));
}

} // namespace

TEST(Ledger, QuickstartSmokeCsvMatchesGolden)
{
    checkLedger("quickstart");
}

TEST(Ledger, ServingLlmSmokeCsvMatchesGolden)
{
    checkLedger("serving_llm");
}

TEST(Ledger, AblationReconfigSmokeCsvMatchesGolden)
{
    checkLedger("ablation_reconfig");
}

TEST(Emit, StableColumnOrder)
{
    const auto &cols = scenario::metricColumns();
    ASSERT_GE(cols.size(), 20u);
    EXPECT_EQ(cols.front(), "cycles");
    EXPECT_EQ(cols[2], "ipc");
    EXPECT_EQ(cols.back(), "sys_energy_uj");
    // The CSV header is the label, the axes, then the metrics.
    const std::vector<EmitPoint> points = {{"p", {{"ax", "1"}}}};
    const std::vector<RunResult> results = {fabricatedResult(0)};
    const std::string csv = scenario::emitCsv(points, results);
    EXPECT_EQ(csv.substr(0, csv.find(',')), "label");
    EXPECT_NE(csv.find("label,ax,cycles"), std::string::npos);
}

TEST(Emit, CsvQuotesFieldsContainingCommas)
{
    const std::vector<EmitPoint> points = {{"a,b", {{"ax", "x\"y"}}}};
    const std::vector<RunResult> results = {fabricatedResult(0)};
    const std::string csv = scenario::emitCsv(points, results);
    // RFC-4180: embedded commas quoted, embedded quotes doubled --
    // the row keeps exactly one cell per header column.
    EXPECT_NE(csv.find("\n\"a,b\",\"x\"\"y\","), std::string::npos);
}
