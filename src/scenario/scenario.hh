/**
 * @file
 * Declarative scenario engine.
 *
 * A Scenario is the in-memory form of a `.scn` file: SimConfig
 * overrides, one or more application workloads (Table-2 benchmarks,
 * synthetic pattern generators, or recorded traces), named variant
 * override sets, sweep axes and figure reports. expand() turns it
 * into the cartesian sweep grid -- a vector of SweepPoints ready for
 * SweepRunner -- with per-point axis coordinates for the CSV/JSON
 * emitters and the `report { }` tables (scenario/report.hh), so every
 * paper figure is a checked-in file (see scenarios/) and new
 * experiments need no C++ driver at all.
 */

#ifndef AMSC_SCENARIO_SCENARIO_HH
#define AMSC_SCENARIO_SCENARIO_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/kvargs.hh"
#include "scenario/report.hh"
#include "sim/sweep.hh"
#include "workloads/trace_gen.hh"

namespace amsc::scenario
{

/** One application of a scenario. */
struct AppSpec
{
    std::string workload; ///< Table-2 abbreviation ("" if not a suite app)
    std::string replay;   ///< trace file to replay ("" if none)
    /** Dynamic workload class ("llm_inference", "" if static). */
    std::string klass;
    bool synthetic = false;
    std::string synName = "syn"; ///< display name of a synthetic app
    TraceParams trace{};         ///< synthetic parameters
    /** CTA/warp counts; 0 = the suite spec's (or 320x8 synthetic). */
    std::uint32_t ctas = 0;
    std::uint32_t warps = 0;
    std::string policy; ///< per-app LLC policy ("" = inherit config)
};

/** One sweep axis: a key and its value list. */
struct SweepAxis
{
    std::string key;
    std::vector<std::string> values;
};

/** One independent sub-grid of a scenario (`grid { }` block). */
struct ScenarioGrid
{
    /** Config overrides applied on top of the scenario's. */
    std::vector<std::pair<std::string, std::string>> overrides;
    /** Grid-local apps; empty = inherit the scenario's. */
    std::vector<AppSpec> apps;
    /** Grid-local axes, nested inside the scenario-level ones. */
    std::vector<SweepAxis> axes;
};

/** One expanded simulation point plus its axis coordinates. */
struct ExpandedPoint
{
    SweepPoint point;
    /** (axis key, value) pairs, axis order. */
    std::vector<std::pair<std::string, std::string>> coords;
};

/** A declarative experiment description. */
class Scenario
{
  public:
    /**
     * Load and parse @p path; throws IoError, or FormatError /
     * ConfigError naming file:line, on errors.
     */
    static Scenario load(const std::string &path);

    /**
     * Parse scenario text/files into flat keys with the scenario
     * dialect's repeatable blocks (`app`, `grid`) auto-indexed.
     */
    static KvArgs parseScnFile(const std::string &path);
    static KvArgs parseScnText(const std::string &text,
                               const std::string &origin = "<scn>");

    /**
     * Build from parsed keys. Every key must be consumed; an unknown
     * key throws ConfigError naming the nearest valid spelling.
     */
    static Scenario fromKv(KvArgs kv, const std::string &origin);

    /**
     * Merge one command-line override into the flat key space: bare
     * SimConfig keys map to `config.<key>`, scenario keys and dotted
     * keys apply as-is.
     */
    static void applyOverride(KvArgs &kv, const std::string &key,
                              const std::string &value);

    const std::string &name() const { return name_; }
    const std::string &description() const { return description_; }

    /** Quarter-length smoke runs (max_cycles/4, profile_len/4). */
    void setSmoke(bool smoke) { smoke_ = smoke; }

    /** The `report { }` blocks, file order. */
    const std::vector<ReportSpec> &reports() const { return reports_; }

    /** Expand every grid into ordered, ready-to-run sweep points. */
    std::vector<ExpandedPoint> expand() const;

    /**
     * Canonical scenario text: parse(dump()) reproduces this
     * scenario exactly (round-trip tested for every shipped file).
     */
    std::string dumpText() const;

  private:
    using KvPairs = std::vector<std::pair<std::string, std::string>>;

    void expandGrid(const ScenarioGrid &grid,
                    std::vector<ExpandedPoint> &out) const;
    ExpandedPoint
    buildPoint(SimConfig cfg, const std::vector<AppSpec> &apps,
               std::vector<std::pair<std::string, std::string>> coords)
        const;
    const KvPairs &variantOverrides(const std::string &name) const;

    std::string name_;
    std::string description_;
    std::string origin_;
    bool smoke_ = false;
    KvPairs config_;                 ///< base overrides, file order
    std::vector<AppSpec> apps_;      ///< scenario-level apps
    std::vector<std::pair<std::string, KvPairs>> variants_;
    std::vector<SweepAxis> axes_;    ///< scenario-level axes
    std::vector<ScenarioGrid> grids_; ///< empty = one implicit grid
    std::vector<ReportSpec> reports_;
};

/** The `app { pattern = }` name of a synthetic access pattern. */
const char *patternName(AccessPattern p);

/** The setup hook of an `app { replay = FILE }` point. */
std::function<void(GpuSystem &)> replaySetup(const std::string &path);

/**
 * Give each point of a multi-point grid its own output files: the
 * point index goes before the extension of timeline_out,
 * stats_stream_out, checkpoint_path and trace_record
 * (ck.bin -> ck.p2.bin), so concurrent workers never share a file
 * or an atomic-write temp file. A single point keeps its paths.
 */
void perPointPaths(std::vector<SweepPoint> &points);

} // namespace amsc::scenario

#endif // AMSC_SCENARIO_SCENARIO_HH
