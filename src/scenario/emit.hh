/**
 * @file
 * Result emitters for scenario sweeps.
 *
 * One metric schema, three renderings: CSV (stable column order,
 * %.17g doubles so values round-trip bit-exactly), JSON (one object
 * per point, axis coordinates included), and a human markdown table
 * for `amsc run`. The NoC power/area and system-energy models are
 * evaluated per point, so the figure reports that derive energy
 * numbers (fig 7/14, scenario/report.hh) need the emitted raw
 * columns alone.
 */

#ifndef AMSC_SCENARIO_EMIT_HH
#define AMSC_SCENARIO_EMIT_HH

#include <string>
#include <utility>
#include <vector>

#include "scenario/scenario.hh"
#include "sim/gpu_system.hh"

namespace amsc::scenario
{

/** Label plus axis coordinates of one emitted row. */
struct EmitPoint
{
    std::string label;
    std::vector<std::pair<std::string, std::string>> coords;
};

/** Emit metadata of expanded scenario points. */
std::vector<EmitPoint>
emitPoints(const std::vector<ExpandedPoint> &points);

/** Ordered union of axis names across @p points. */
std::vector<std::string>
axisColumns(const std::vector<EmitPoint> &points);

/** Metric column names, stable emission order. */
const std::vector<std::string> &metricColumns();

/**
 * Names of the serving columns appended -- after the metric columns,
 * before any "error" column -- when at least one emitted point ran a
 * request-driver workload (RunResult::servingActive). Purely static
 * sweeps keep the historical schema byte-for-byte.
 */
const std::vector<std::string> &servingColumns();

/**
 * The numeric columns among metricColumns() and servingColumns():
 * all but finished, final_llc_mode, app_ipc and app_instructions.
 */
const std::vector<std::string> &numericColumns();

/** The values of numericColumns() for @p r, in that order. */
std::vector<double> numericValues(const RunResult &r);

/*
 * Failure annotations (sweep_on_error=skip): @p errors holds one
 * SimError text per point, "" for a point that ran. When no entry is
 * set -- or @p errors is empty -- the output has no error column;
 * otherwise a trailing "error" column carries each failed point's
 * text (its metric cells are the default-constructed RunResult's).
 */

/** CSV: header plus one row per point. */
std::string emitCsv(const std::vector<EmitPoint> &points,
                    const std::vector<RunResult> &results,
                    const std::vector<std::string> &errors = {});

/** JSON: {"scenario": name, "points": [{label, axes, metrics}]}. */
std::string emitJson(const std::string &scenario,
                     const std::vector<EmitPoint> &points,
                     const std::vector<RunResult> &results,
                     const std::vector<std::string> &errors = {});

/** Markdown summary table (amsc run's default output). */
std::string renderTable(const std::vector<EmitPoint> &points,
                        const std::vector<RunResult> &results,
                        const std::vector<std::string> &errors = {});

/** Write @p content to @p path ("-" or "" = stdout). */
void writeOut(const std::string &content, const std::string &path);

} // namespace amsc::scenario

#endif // AMSC_SCENARIO_EMIT_HH
