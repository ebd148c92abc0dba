/**
 * @file
 * Figure reports: the `report { }` blocks of a scenario.
 *
 * A report folds a scenario's expanded grid into one paper-style
 * markdown table. Each point yields one value per metric expression
 * (an emitted column, a sum of columns, a quotient of two sums, or
 * the multi-program `stp`), optionally divided by the value of its
 * baseline point. Points are laid out as rows x columns in one
 * section per `group` value; `mean` folds every axis the table does
 * not show and adds a summary row per section. `amsc run|sweep|
 * resume|merge` print the reports in place of the per-point table
 * under format=table; the CSV/JSON emitters never see them, and they
 * stay out of the sweep identity hash.
 *
 * Whether a grid fills a report depends on axis coordinates only, so
 * reportGap() can settle it before any point runs: a command-line
 * `sweep.llc_policy=adaptive` that drops a report's baseline shows up
 * there, not after the sweep.
 */

#ifndef AMSC_SCENARIO_REPORT_HH
#define AMSC_SCENARIO_REPORT_HH

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/kvargs.hh"

namespace amsc
{
struct RunResult;
}

namespace amsc::scenario
{

struct EmitPoint;

/** One report metric: a sum of terms, optionally over a second sum. */
struct ReportMetric
{
    std::vector<std::string> num; ///< emitted columns or `stp`
    std::vector<std::string> den; ///< divisor terms; empty = 1
};

/** One `report { }` block. */
struct ReportSpec
{
    std::vector<ReportMetric> metrics;
    std::vector<std::string> rows; ///< axes, or `class`
    std::string columns;           ///< one axis; "" = a column per metric
    /** Each point is divided by the point at these coordinates. */
    std::vector<std::pair<std::string, std::string>> baseline;
    std::string mean;  ///< "harmonic", "arithmetic" or ""
    std::string group; ///< axis or `class`; "" = one section
    std::string paper; ///< reference line printed under the tables
};

bool operator==(const ReportMetric &a, const ReportMetric &b);
bool operator==(const ReportSpec &a, const ReportSpec &b);

/**
 * Parse the report block whose keys live under @p prefix. @p axes
 * lists every sweep axis the scenario declares; @p check_value throws
 * ConfigError when a baseline value is outside its axis's domain.
 * Throws ConfigError on a malformed block; keys it does not know are
 * left unread for the scenario's unknown-key check.
 */
ReportSpec
parseReport(const KvArgs &kv, const std::string &prefix,
            const std::string &origin,
            const std::vector<std::string> &axes,
            const std::function<void(const std::string &,
                                     const std::string &)> &check_value);

/** Canonical `report { }` text (Scenario::dumpText). */
std::string dumpReport(const ReportSpec &r);

/**
 * Why @p points cannot fill one of @p reports, or "" when they fill
 * every one. Depends on coordinates only, never on results.
 */
std::string reportGap(const std::vector<ReportSpec> &reports,
                      const std::vector<EmitPoint> &points);

/** Every report as markdown; requires an empty reportGap(). */
std::string renderReports(const std::string &scenario,
                          const std::vector<ReportSpec> &reports,
                          const std::vector<EmitPoint> &points,
                          const std::vector<RunResult> &results);

} // namespace amsc::scenario

#endif // AMSC_SCENARIO_REPORT_HH
