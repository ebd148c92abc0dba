#include "scenario/report.hh"

#include <algorithm>
#include <limits>
#include <optional>
#include <sstream>

#include "common/error.hh"
#include "common/stats.hh"
#include "common/strutil.hh"
#include "scenario/emit.hh"
#include "workloads/suite.hh"

namespace amsc::scenario
{

namespace
{

/** The derived axis: a point's Table-2 workload class. */
const char *const kClass = "class";
/** The multi-program throughput term. */
const char *const kStp = "stp";
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

using Coords = std::vector<std::pair<std::string, std::string>>;

std::vector<std::string>
parseTerms(const std::string &text, const std::string &origin)
{
    std::vector<std::string> terms;
    for (const std::string &term : splitList(text, '+')) {
        const auto &cols = numericColumns();
        if (term != kStp &&
            std::find(cols.begin(), cols.end(), term) == cols.end()) {
            std::vector<std::string> names = cols;
            names.emplace_back(kStp);
            throw ConfigError(strfmt(
                "%s: unknown report metric '%s'; nearest is '%s' "
                "(numeric emitted columns and stp)",
                origin.c_str(), term.c_str(),
                nearestOf(term, names).c_str()));
        }
        terms.push_back(term);
    }
    if (terms.empty())
        throw ConfigError(strfmt("%s: empty report metric term in '%s'",
                                 origin.c_str(), text.c_str()));
    return terms;
}

ReportMetric
parseMetric(const std::string &text, const std::string &origin)
{
    const auto slash = text.find('/');
    if (slash != std::string::npos &&
        text.find('/', slash + 1) != std::string::npos)
        throw ConfigError(strfmt(
            "%s: malformed report metric '%s' (a + b, or x / y)",
            origin.c_str(), text.c_str()));
    ReportMetric m;
    m.num = parseTerms(text.substr(0, slash), origin);
    if (slash != std::string::npos)
        m.den = parseTerms(text.substr(slash + 1), origin);
    return m;
}

std::string
join(const std::vector<std::string> &items, const char *sep)
{
    std::string out;
    for (const std::string &s : items)
        out += (out.empty() ? "" : sep) + s;
    return out;
}

std::string
metricText(const ReportMetric &m)
{
    std::string out = join(m.num, " + ");
    if (!m.den.empty())
        out += " / " + join(m.den, " + ");
    return out;
}

std::optional<std::string>
lookup(const Coords &coords, const std::string &key)
{
    for (const auto &[k, v] : coords) {
        if (k == key)
            return v;
    }
    return std::nullopt;
}

/** Axis @p key of @p p; `class` derives from a one-app workload. */
std::optional<std::string>
coordOf(const EmitPoint &p, const std::string &key)
{
    if (key != kClass)
        return lookup(p.coords, key);
    const auto workload = lookup(p.coords, "workload");
    if (!workload)
        return std::nullopt;
    for (const WorkloadSpec &s : WorkloadSuite::all()) {
        if (s.abbr == *workload)
            return workloadClassName(s.klass);
    }
    return std::nullopt;
}

/** @p coords with @p overrides set (replaced or appended). */
Coords
withCoords(Coords coords, const Coords &overrides)
{
    for (const auto &[key, value] : overrides) {
        auto it = std::find_if(coords.begin(), coords.end(),
                               [&key = key](const auto &c) {
                                   return c.first == key;
                               });
        if (it == coords.end())
            coords.emplace_back(key, value);
        else
            it->second = value;
    }
    return coords;
}

/**
 * The point standing for @p target: it carries every axis of
 * @p required, agrees with @p target on each axis it carries, and
 * carries more axes than any other such point. A point without an
 * axis of @p target stands for every value of it (fig15's single-app
 * runs carry no app_policies). kNone when no point or a tie.
 */
std::size_t
findPoint(const std::vector<EmitPoint> &points, const Coords &target,
          const Coords &required)
{
    std::size_t best = kNone;
    bool tie = false;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Coords &c = points[i].coords;
        bool fits = std::all_of(
            required.begin(), required.end(),
            [&c](const auto &r) { return lookup(c, r.first) == r.second; });
        for (const auto &[key, value] : c)
            fits = fits && lookup(target, key) == value;
        if (!fits)
            continue;
        if (best == kNone || c.size() > points[best].coords.size()) {
            best = i;
            tie = false;
        } else if (c.size() == points[best].coords.size()) {
            tie = true;
        }
    }
    return tie ? kNone : best;
}

/** "axis=value, ..." of @p r's baseline. */
std::string
baselineText(const ReportSpec &r)
{
    std::vector<std::string> base;
    for (const auto &[key, value] : r.baseline)
        base.push_back(key + "=" + value);
    return join(base, ", ");
}

/** Where a report's points go: settled from coordinates alone. */
struct Plan
{
    std::vector<std::size_t> covered; ///< grid order
    std::vector<std::string> section, row, column; ///< per covered point
    std::vector<std::size_t> base; ///< per point index; kNone = none
    /** Per point index: the single-app point of each of its apps. */
    std::vector<std::vector<std::size_t>> stp;
};

bool
usesStp(const ReportSpec &r)
{
    for (const ReportMetric &m : r.metrics) {
        for (const auto *terms : {&m.num, &m.den}) {
            if (std::find(terms->begin(), terms->end(), kStp) !=
                terms->end())
                return true;
        }
    }
    return false;
}

/** Resolve @p i's single-app reference points; false if one is missing. */
bool
resolveStp(const std::vector<EmitPoint> &points, std::size_t i,
           Plan &plan)
{
    if (!plan.stp[i].empty())
        return true;
    const auto workload = lookup(points[i].coords, "workload");
    if (!workload)
        return false;
    for (const std::string &app : splitList(*workload, '+')) {
        const std::size_t ref = findPoint(
            points, withCoords(points[i].coords, {{"workload", app}}),
            {{"workload", app}});
        if (ref == kNone)
            return false;
        plan.stp[i].push_back(ref);
    }
    return true;
}

/** Lay @p r out over @p points; returns why it cannot, or "". */
std::string
plan(const ReportSpec &r, const std::vector<EmitPoint> &points,
     Plan &out)
{
    std::vector<std::string> shown = r.rows;
    if (!r.columns.empty())
        shown.push_back(r.columns);
    if (!r.group.empty())
        shown.push_back(r.group);

    out = Plan{};
    out.base.assign(points.size(), kNone);
    out.stp.assign(points.size(), {});
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::vector<std::string> values;
        for (const std::string &axis : shown) {
            if (const auto v = coordOf(points[i], axis))
                values.push_back(*v);
        }
        if (values.size() != shown.size())
            continue;
        out.covered.push_back(i);
        out.section.push_back(r.group.empty() ? "" : values.back());
        out.row.push_back(join(
            std::vector<std::string>(values.begin(),
                                     values.begin() +
                                         static_cast<std::ptrdiff_t>(
                                             r.rows.size())),
            "/"));
        out.column.push_back(r.columns.empty() ? ""
                                               : values[r.rows.size()]);
    }
    if (out.covered.empty())
        return "no point carries " + join(shown, ", ");

    if (r.mean.empty()) {
        for (std::size_t a = 0; a < out.covered.size(); ++a) {
            for (std::size_t b = a + 1; b < out.covered.size(); ++b) {
                if (out.section[a] == out.section[b] &&
                    out.row[a] == out.row[b] &&
                    out.column[a] == out.column[b])
                    return "points " + points[out.covered[a]].label +
                        " and " + points[out.covered[b]].label +
                        " share a cell (fold them with mean =)";
            }
        }
    }
    const bool stp = usesStp(r);
    for (const std::size_t i : out.covered) {
        if (!r.baseline.empty()) {
            out.base[i] = findPoint(
                points, withCoords(points[i].coords, r.baseline),
                r.baseline);
            if (out.base[i] == kNone)
                return "point " + points[i].label +
                    " has no baseline point " + baselineText(r);
        }
        if (stp && !(resolveStp(points, i, out) &&
                     (out.base[i] == kNone ||
                      resolveStp(points, out.base[i], out))))
            return "point " + points[i].label +
                " lacks a single-app point for stp";
    }
    return "";
}

double
ratio(double x, double y)
{
    return y == 0.0 ? 0.0 : x / y;
}

/** Metric values per point, from the emitted columns. */
class Evaluator
{
  public:
    Evaluator(const std::vector<RunResult> &results, const Plan &plan)
        : results_(results), plan_(plan), values_(results.size())
    {}

    /** Metric @p m at point @p i, over its baseline if it has one. */
    double
    operator()(const ReportMetric &m, std::size_t i)
    {
        const double v = plain(m, i);
        return plan_.base[i] == kNone ? v
                                      : ratio(v, plain(m, plan_.base[i]));
    }

  private:
    double
    plain(const ReportMetric &m, std::size_t i)
    {
        return m.den.empty() ? sum(m.num, i)
                             : ratio(sum(m.num, i), sum(m.den, i));
    }

    double
    sum(const std::vector<std::string> &terms, std::size_t i)
    {
        double s = 0.0;
        for (const std::string &t : terms)
            s += t == kStp ? stp(i) : column(t, i);
        return s;
    }

    double
    column(const std::string &name, std::size_t i)
    {
        if (values_[i].empty())
            values_[i] = numericValues(results_[i]);
        const auto &cols = numericColumns();
        return values_[i][static_cast<std::size_t>(
            std::find(cols.begin(), cols.end(), name) - cols.begin())];
    }

    /** Sum over apps of app IPC over the app's IPC when run alone. */
    double
    stp(std::size_t i)
    {
        const std::vector<double> &app_ipc = results_[i].appIpc;
        double s = 0.0;
        for (std::size_t a = 0; a < plan_.stp[i].size(); ++a) {
            s += ratio(a < app_ipc.size() ? app_ipc[a] : 0.0,
                       results_[plan_.stp[i][a]].ipc);
        }
        return s;
    }

    const std::vector<RunResult> &results_;
    const Plan &plan_;
    std::vector<std::vector<double>> values_;
};

double
fold(const std::string &mean, const std::vector<double> &v)
{
    if (mean == "arithmetic")
        return amsc::mean(v);
    for (const double x : v) {
        if (!(x > 0.0))
            return std::numeric_limits<double>::quiet_NaN();
    }
    return harmonicMean(v);
}

/** Values in first-appearance order. */
std::vector<std::string>
distinct(const std::vector<std::string> &values)
{
    std::vector<std::string> out;
    for (const std::string &v : values) {
        if (std::find(out.begin(), out.end(), v) == out.end())
            out.push_back(v);
    }
    return out;
}

std::string
heading(const std::string &scenario, const ReportSpec &r)
{
    std::vector<std::string> metrics;
    for (const ReportMetric &m : r.metrics)
        metrics.push_back(metricText(m));
    std::string out = "## " + scenario + ": " + join(metrics, ", ");
    if (!r.baseline.empty())
        out += " relative to " + baselineText(r);
    if (!r.mean.empty())
        out += ", " + r.mean + " mean";
    return out + "\n\n";
}

void
renderReport(std::ostringstream &os, const std::string &scenario,
             const ReportSpec &r, const Plan &p,
             const std::vector<RunResult> &results)
{
    Evaluator value(results, p);
    const std::vector<std::string> cols = distinct(p.column);

    os << heading(scenario, r);
    for (const std::string &section : distinct(p.section)) {
        if (!r.group.empty())
            os << "### " << r.group << " = " << section << "\n\n";
        os << "| " << join(r.rows, "/");
        for (const ReportMetric &m : r.metrics) {
            for (const std::string &c : cols) {
                os << " | "
                   << (r.metrics.size() == 1 && !c.empty() ? c
                       : c.empty() ? metricText(m)
                                   : metricText(m) + " [" + c + "]");
            }
        }
        os << " |\n|---";
        for (std::size_t k = 0; k < r.metrics.size() * cols.size(); ++k)
            os << "|---";
        os << "|\n";

        // One line per row, then the summary line (row "" = all).
        std::vector<std::string> rows;
        for (std::size_t k = 0; k < p.covered.size(); ++k) {
            if (p.section[k] == section)
                rows.push_back(p.row[k]);
        }
        rows = distinct(rows);
        if (!r.mean.empty())
            rows.emplace_back();
        for (std::size_t n = 0; n < rows.size(); ++n) {
            const bool summary = n + 1 == rows.size() && !r.mean.empty();
            os << "| " << (summary ? r.mean + " mean" : rows[n]);
            for (const ReportMetric &m : r.metrics) {
                for (const std::string &c : cols) {
                    std::vector<double> v;
                    for (std::size_t k = 0; k < p.covered.size(); ++k) {
                        if (p.section[k] == section &&
                            p.column[k] == c &&
                            (summary || p.row[k] == rows[n]))
                            v.push_back(value(m, p.covered[k]));
                    }
                    os << " | "
                       << (v.empty()       ? std::string("-")
                           : v.size() == 1 ? strfmt("%.5f", v[0])
                                           : strfmt("%.5f",
                                                    fold(r.mean, v)));
                }
            }
            os << " |\n";
        }
        os << "\n";
    }
    if (!r.paper.empty())
        os << "Paper: " << r.paper << "\n\n";
}

} // namespace

bool
operator==(const ReportMetric &a, const ReportMetric &b)
{
    return a.num == b.num && a.den == b.den;
}

bool
operator==(const ReportSpec &a, const ReportSpec &b)
{
    return a.metrics == b.metrics && a.rows == b.rows &&
        a.columns == b.columns && a.baseline == b.baseline &&
        a.mean == b.mean && a.group == b.group && a.paper == b.paper;
}

ReportSpec
parseReport(const KvArgs &kv, const std::string &prefix,
            const std::string &origin,
            const std::vector<std::string> &axes,
            const std::function<void(const std::string &,
                                     const std::string &)> &check_value)
{
    const std::string where = origin + ": " + prefix;
    const auto K = [&prefix](const char *key) {
        return prefix + "." + key;
    };
    const auto checkAxis = [&](const std::string &axis, bool derived) {
        const bool declared =
            std::find(axes.begin(), axes.end(), axis) != axes.end();
        if (derived && axis == kClass) {
            if (std::find(axes.begin(), axes.end(), "workload") ==
                axes.end())
                throw ConfigError(where +
                                  ": class needs a workload sweep axis");
            return;
        }
        if (!declared)
            throw ConfigError(strfmt(
                "%s: '%s' is not a sweep axis of this scenario; "
                "nearest is '%s'",
                where.c_str(), axis.c_str(),
                nearestOf(axis, axes).c_str()));
    };

    ReportSpec r;
    for (const std::string &text : kv.getList(K("metric")))
        r.metrics.push_back(parseMetric(text, where));
    if (r.metrics.empty())
        throw ConfigError(where + ": a report needs metric =");
    r.rows = kv.getList(K("rows"));
    if (r.rows.empty())
        throw ConfigError(where + ": a report needs rows =");
    r.columns = kv.getString(K("columns"), "");
    r.group = kv.getString(K("group"), "");
    std::vector<std::string> shown = r.rows;
    for (const std::string &axis : r.rows)
        checkAxis(axis, true);
    if (!r.columns.empty()) {
        checkAxis(r.columns, false);
        shown.push_back(r.columns);
    }
    if (!r.group.empty()) {
        checkAxis(r.group, true);
        shown.push_back(r.group);
    }
    for (std::size_t i = 0; i < shown.size(); ++i) {
        if (std::find(shown.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                      shown.end(), shown[i]) != shown.end())
            throw ConfigError(strfmt("%s: axis '%s' is shown twice",
                                     where.c_str(), shown[i].c_str()));
    }

    for (const std::string &item : kv.getList(K("baseline"))) {
        const auto eq = item.find('=');
        const std::string key = trim(item.substr(0, eq));
        const std::string value =
            eq == std::string::npos ? "" : trim(item.substr(eq + 1));
        if (value.empty())
            throw ConfigError(strfmt(
                "%s: baseline '%s' is not axis=value", where.c_str(),
                item.c_str()));
        checkAxis(key, false);
        if (lookup(r.baseline, key))
            throw ConfigError(strfmt("%s: baseline names '%s' twice",
                                     where.c_str(), key.c_str()));
        try {
            check_value(key, value);
        } catch (const ConfigError &e) {
            throw ConfigError(strfmt(
                "%s: baseline value '%s' is not on axis '%s': %s",
                where.c_str(), value.c_str(), key.c_str(), e.what()));
        }
        r.baseline.emplace_back(key, value);
    }

    r.mean = kv.getString(K("mean"), "");
    if (!r.mean.empty() && r.mean != "harmonic" &&
        r.mean != "arithmetic")
        throw ConfigError(strfmt(
            "%s: unknown mean '%s' (harmonic|arithmetic)",
            where.c_str(), r.mean.c_str()));
    r.paper = kv.getString(K("paper"), "");
    return r;
}

std::string
dumpReport(const ReportSpec &r)
{
    std::vector<std::string> metrics;
    for (const ReportMetric &m : r.metrics)
        metrics.push_back(metricText(m));
    std::ostringstream os;
    os << "report {\n  metric = " << join(metrics, ", ")
       << "\n  rows = " << join(r.rows, ", ") << "\n";
    if (!r.columns.empty())
        os << "  columns = " << r.columns << "\n";
    if (!r.baseline.empty())
        os << "  baseline = " << baselineText(r) << "\n";
    if (!r.mean.empty())
        os << "  mean = " << r.mean << "\n";
    if (!r.group.empty())
        os << "  group = " << r.group << "\n";
    if (!r.paper.empty())
        os << "  paper = \"" << r.paper << "\"\n";
    os << "}\n";
    return os.str();
}

std::string
reportGap(const std::vector<ReportSpec> &reports,
          const std::vector<EmitPoint> &points)
{
    Plan p;
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const std::string why = plan(reports[i], points, p);
        if (!why.empty())
            return strfmt("report %zu cannot be filled: ", i + 1) + why;
    }
    return "";
}

std::string
renderReports(const std::string &scenario,
              const std::vector<ReportSpec> &reports,
              const std::vector<EmitPoint> &points,
              const std::vector<RunResult> &results)
{
    std::ostringstream os;
    Plan p;
    for (const ReportSpec &r : reports) {
        if (!plan(r, points, p).empty())
            throw ConfigError("report cannot be filled by this grid");
        renderReport(os, scenario, r, p, results);
    }
    return os.str();
}

} // namespace amsc::scenario
