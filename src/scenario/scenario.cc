#include "scenario/scenario.hh"

#include <algorithm>
#include <sstream>

#include "common/error.hh"
#include "common/log.hh"
#include "common/strutil.hh"
#include "scenario/schema.hh"
#include "trace/trace_reader.hh"
#include "workloads/llm_inference.hh"
#include "workloads/suite.hh"

namespace amsc::scenario
{

namespace
{

/** Filename stem: "scenarios/fig11.scn" -> "fig11". */
std::string
stem(const std::string &path)
{
    const auto slash = path.find_last_of("/\\");
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const auto dot = base.find_last_of('.');
    if (dot != std::string::npos && dot > 0)
        base = base.substr(0, dot);
    return base;
}

/** path.ext -> path.p<i>.ext (per-point output files). */
std::string
perPointPath(const std::string &path, std::size_t i)
{
    const std::size_t dot = path.rfind('.');
    const std::size_t slash = path.find_last_of("/\\");
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return path + ".p" + std::to_string(i);
    return path.substr(0, dot) + ".p" + std::to_string(i) +
        path.substr(dot);
}

/**
 * Prefixes of the `base { }` blocks in @p kv: {"app"} for a single
 * block, {"app.0", "app.1", ...} for repeated ones (numeric order).
 */
std::vector<std::string>
blockPrefixes(const KvArgs &kv, const std::string &base)
{
    const auto keys = kv.keysWithPrefix(base + ".");
    if (keys.empty())
        return {};
    std::vector<int> indices;
    for (const auto &key : keys) {
        const std::string rest = key.substr(base.size() + 1);
        const auto dot = rest.find('.');
        const std::string head =
            dot == std::string::npos ? rest : rest.substr(0, dot);
        if (!head.empty() &&
            head.find_first_not_of("0123456789") == std::string::npos) {
            const int idx = std::atoi(head.c_str());
            if (std::find(indices.begin(), indices.end(), idx) ==
                indices.end())
                indices.push_back(idx);
        }
    }
    if (indices.empty())
        return {base};
    std::sort(indices.begin(), indices.end());
    std::vector<std::string> out;
    for (const int idx : indices)
        out.push_back(base + "." + std::to_string(idx));
    return out;
}

AccessPattern
parsePattern(const std::string &pattern, const std::string &origin)
{
    if (pattern == "broadcast")
        return AccessPattern::Broadcast;
    if (pattern == "zipf")
        return AccessPattern::ZipfShared;
    if (pattern == "tiled")
        return AccessPattern::TiledShared;
    if (pattern == "stream")
        return AccessPattern::PrivateStream;
    throw ConfigError(strfmt("%s: unknown pattern '%s' (broadcast|zipf|tiled|stream)",
          origin.c_str(), pattern.c_str()));
}

/** Suite lookup with a nearest-abbreviation error message. */
const WorkloadSpec &
suiteByName(const std::string &abbr, const std::string &origin)
{
    for (const WorkloadSpec &s : WorkloadSuite::all()) {
        if (s.abbr == abbr)
            return s;
    }
    std::vector<std::string> names;
    for (const WorkloadSpec &s : WorkloadSuite::all())
        names.push_back(s.abbr);
    throw ConfigError(strfmt("%s: unknown workload '%s'; nearest is '%s' (amsc list "
          "workloads)",
          origin.c_str(), abbr.c_str(),
          nearestOf(abbr, names).c_str()));
}

/** '+'-joined suite abbreviations -> one AppSpec per program. */
std::vector<AppSpec>
appsFromWorkload(const std::string &value, const std::string &origin)
{
    std::vector<AppSpec> apps;
    for (const std::string &abbr : splitList(value, '+')) {
        suiteByName(abbr, origin); // validate early
        AppSpec a;
        a.workload = abbr;
        apps.push_back(std::move(a));
    }
    if (apps.empty())
        throw ConfigError(strfmt("%s: empty workload value", origin.c_str()));
    return apps;
}

AppSpec
parseApp(const KvArgs &kv, const std::string &prefix,
         const std::string &origin)
{
    const auto K = [&prefix](const char *key) {
        return prefix + "." + key;
    };
    AppSpec a;
    a.workload = kv.getString(K("workload"), "");
    a.replay = kv.getString(K("replay"), "");
    a.klass = kv.getString(K("class"), "");
    const std::string pattern = kv.getString(K("pattern"), "");
    const int modes = (a.workload.empty() ? 0 : 1) +
        (a.replay.empty() ? 0 : 1) + (pattern.empty() ? 0 : 1) +
        (a.klass.empty() ? 0 : 1);
    if (modes != 1)
        throw ConfigError(strfmt("%s: block '%s' needs exactly one of workload=, "
              "pattern=, replay= or class=",
              origin.c_str(), prefix.c_str()));
    if (!a.klass.empty() && a.klass != "llm_inference")
        throw ConfigError(strfmt("%s: unknown workload class '%s' "
              "(llm_inference)",
              origin.c_str(), a.klass.c_str()));
    if (!a.workload.empty())
        suiteByName(a.workload, origin);
    a.ctas = static_cast<std::uint32_t>(kv.getUint(K("ctas"), 0));
    a.warps = static_cast<std::uint32_t>(kv.getUint(K("warps"), 0));
    if (!a.klass.empty() && (a.ctas != 0 || a.warps != 0))
        throw ConfigError(strfmt("%s: block '%s': ctas/warps are derived by the "
              "request driver for class= apps",
              origin.c_str(), prefix.c_str()));
    a.policy = kv.getString(K("policy"), "");
    if (!a.policy.empty())
        parseLlcPolicy(a.policy); // validate early
    if (pattern.empty())
        return a;

    a.synthetic = true;
    a.synName = kv.getString(K("name"), "syn");
    TraceParams &t = a.trace;
    t.pattern = parsePattern(pattern, origin);
    if (kv.has(K("shared_mb")))
        t.sharedLines = static_cast<std::uint64_t>(
            kv.getDouble(K("shared_mb"), 0.0) * 8192.0);
    t.sharedLines = kv.getUint(K("shared_lines"), t.sharedLines);
    t.privateLinesPerCta =
        kv.getUint(K("private_lines"), t.privateLinesPerCta);
    t.sharedFraction =
        kv.getDouble(K("shared_fraction"), t.sharedFraction);
    t.zipfAlpha = kv.getDouble(K("zipf_alpha"), t.zipfAlpha);
    t.broadcastMix = kv.getDouble(K("broadcast_mix"), t.broadcastMix);
    t.broadcastWindow = static_cast<std::uint32_t>(
        kv.getUint(K("broadcast_window"), t.broadcastWindow));
    t.phaseCyclesPerLine = static_cast<std::uint32_t>(
        kv.getUint(K("phase_cycles"), t.phaseCyclesPerLine));
    t.hotLines = static_cast<std::uint32_t>(
        kv.getUint(K("hot_lines"), t.hotLines));
    t.hotFraction = kv.getDouble(K("hot_fraction"), t.hotFraction);
    t.hotAlpha = kv.getDouble(K("hot_alpha"), t.hotAlpha);
    t.tileLines = static_cast<std::uint32_t>(
        kv.getUint(K("tile_lines"), t.tileLines));
    t.ctasPerTile = static_cast<std::uint32_t>(
        kv.getUint(K("ctas_per_tile"), t.ctasPerTile));
    t.writeFraction =
        kv.getDouble(K("write_fraction"), t.writeFraction);
    t.atomicFraction =
        kv.getDouble(K("atomic_fraction"), t.atomicFraction);
    t.computePerMem = static_cast<std::uint32_t>(
        kv.getUint(K("compute_per_mem"), t.computePerMem));
    t.accessesPerInstr = static_cast<std::uint32_t>(
        kv.getUint(K("accesses_per_instr"), t.accessesPerInstr));
    t.memInstrsPerWarp =
        kv.getUint(K("mem_instrs"), t.memInstrsPerWarp);
    return a;
}

/** Axis keys: any config key, or the scenario-level axis keys. */
void
validateAxisKey(const std::string &key, const std::string &origin)
{
    if (ConfigRegistry::find(key))
        return;
    for (const SchemaKey &k : axisKeys()) {
        if (key == k.name)
            return;
    }
    throw ConfigError(strfmt("%s: unknown sweep axis '%s'; nearest is '%s'",
          origin.c_str(), key.c_str(),
          suggestScenarioKey("sweep." + key).c_str()));
}

std::string
f64s(double v)
{
    return strfmt("%.17g", v);
}

} // namespace

const char *
patternName(AccessPattern p)
{
    switch (p) {
      case AccessPattern::Broadcast:
        return "broadcast";
      case AccessPattern::ZipfShared:
        return "zipf";
      case AccessPattern::TiledShared:
        return "tiled";
      case AccessPattern::PrivateStream:
        return "stream";
    }
    return "?";
}

namespace
{
/** Block names that may repeat in a scenario file. */
const std::vector<std::string> kRepeatableBlocks = {"app", "grid",
                                                    "report"};
} // namespace

KvArgs
Scenario::parseScnFile(const std::string &path)
{
    return KvArgs::parseFile(path, kRepeatableBlocks);
}

KvArgs
Scenario::parseScnText(const std::string &text,
                       const std::string &origin)
{
    return KvArgs::parseText(text, origin, kRepeatableBlocks);
}

Scenario
Scenario::load(const std::string &path)
{
    return fromKv(parseScnFile(path), path);
}

void
Scenario::applyOverride(KvArgs &kv, const std::string &key,
                        const std::string &value)
{
    if (ConfigRegistry::find(key)) {
        kv.set("config." + key, value);
        return;
    }
    kv.set(key, value);
}

Scenario
Scenario::fromKv(KvArgs kv, const std::string &origin)
{
    Scenario s;
    s.origin_ = origin;
    s.name_ = kv.getString("name", stem(origin));
    s.description_ = kv.getString("description", "");

    for (const std::string &key : kv.keysWithPrefix("config.")) {
        const std::string leaf = key.substr(7);
        if (!ConfigRegistry::find(leaf))
            throw ConfigError(strfmt("%s: unknown configuration key '%s'; nearest is "
                  "'config.%s' (see docs/configuration.md)",
                  origin.c_str(), key.c_str(),
                  ConfigRegistry::suggest(leaf).c_str()));
        s.config_.emplace_back(leaf, kv.getString(key));
    }

    const std::string workload = kv.getString("workload", "");
    const auto app_prefixes = blockPrefixes(kv, "app");
    if (!workload.empty() && !app_prefixes.empty())
        throw ConfigError(strfmt("%s: use either workload= or app { } blocks, not both",
              origin.c_str()));
    if (!workload.empty())
        s.apps_ = appsFromWorkload(workload, origin);
    for (const std::string &prefix : app_prefixes)
        s.apps_.push_back(parseApp(kv, prefix, origin));

    for (const std::string &key : kv.keysWithPrefix("variant.")) {
        const std::string rest = key.substr(8);
        const auto dot = rest.find('.');
        if (dot == std::string::npos || dot == 0)
            throw ConfigError(strfmt("%s: malformed variant key '%s' (expected "
                  "variant.<name>.<config key>)",
                  origin.c_str(), key.c_str()));
        const std::string vname = rest.substr(0, dot);
        const std::string leaf = rest.substr(dot + 1);
        if (!ConfigRegistry::find(leaf))
            throw ConfigError(strfmt("%s: unknown configuration key '%s' in variant "
                  "'%s'; nearest is '%s'",
                  origin.c_str(), leaf.c_str(), vname.c_str(),
                  ConfigRegistry::suggest(leaf).c_str()));
        auto it = std::find_if(
            s.variants_.begin(), s.variants_.end(),
            [&vname](const auto &v) { return v.first == vname; });
        if (it == s.variants_.end()) {
            s.variants_.emplace_back(vname, KvPairs{});
            it = s.variants_.end() - 1;
        }
        it->second.emplace_back(leaf, kv.getString(key));
    }

    for (const std::string &key : kv.keysWithPrefix("sweep.")) {
        const std::string leaf = key.substr(6);
        validateAxisKey(leaf, origin);
        SweepAxis axis;
        axis.key = leaf;
        axis.values = kv.getList(key);
        if (axis.values.empty())
            throw ConfigError(strfmt("%s: sweep axis '%s' has no values", origin.c_str(),
                  leaf.c_str()));
        s.axes_.push_back(std::move(axis));
    }

    for (const std::string &gp : blockPrefixes(kv, "grid")) {
        ScenarioGrid g;
        for (const std::string &key : kv.keysWithPrefix(gp + ".")) {
            const std::string leaf = key.substr(gp.size() + 1);
            if (startsWith(leaf, "sweep.")) {
                const std::string axis_key = leaf.substr(6);
                validateAxisKey(axis_key, origin);
                SweepAxis axis;
                axis.key = axis_key;
                axis.values = kv.getList(key);
                if (axis.values.empty())
                    throw ConfigError(strfmt("%s: sweep axis '%s' has no values",
                          origin.c_str(), axis_key.c_str()));
                g.axes.push_back(std::move(axis));
            } else if (leaf == "workload") {
                g.apps = appsFromWorkload(kv.getString(key), origin);
            } else if (ConfigRegistry::find(leaf)) {
                g.overrides.emplace_back(leaf, kv.getString(key));
            } else {
                throw ConfigError(strfmt("%s: unknown key '%s' in grid block; nearest "
                      "is '%s'",
                      origin.c_str(), key.c_str(),
                      suggestScenarioKey(key).c_str()));
            }
        }
        s.grids_.push_back(std::move(g));
    }

    const auto report_prefixes = blockPrefixes(kv, "report");
    if (!report_prefixes.empty()) {
        std::vector<std::string> axes;
        for (const SweepAxis &a : s.axes_)
            axes.push_back(a.key);
        for (const ScenarioGrid &g : s.grids_) {
            for (const SweepAxis &a : g.axes)
                axes.push_back(a.key);
        }
        // A baseline value must be one its axis can take; whether
        // this grid holds it is reportGap()'s question.
        const auto check_value = [&s, &origin](const std::string &key,
                                               const std::string &value) {
            if (key == "workload")
                appsFromWorkload(value, origin);
            else if (key == "variant")
                s.variantOverrides(value);
            else {
                SimConfig scratch;
                ConfigRegistry::apply(scratch, key, value);
            }
        };
        for (const std::string &prefix : report_prefixes)
            s.reports_.push_back(
                parseReport(kv, prefix, origin, axes, check_value));
    }

    for (const std::string &key : kv.unusedKeys())
        throw ConfigError(strfmt("%s: unknown scenario key '%s'; nearest is '%s'",
              origin.c_str(), key.c_str(),
              suggestScenarioKey(key).c_str()));
    return s;
}

const Scenario::KvPairs &
Scenario::variantOverrides(const std::string &name) const
{
    for (const auto &[vname, overrides] : variants_) {
        if (vname == name)
            return overrides;
    }
    std::vector<std::string> names;
    for (const auto &[vname, overrides] : variants_)
        names.push_back(vname);
    throw ConfigError(strfmt("%s: unknown variant '%s'; nearest is '%s'",
          origin_.c_str(), name.c_str(),
          nearestOf(name, names).c_str()));
}

ExpandedPoint
Scenario::buildPoint(
    SimConfig cfg, const std::vector<AppSpec> &apps,
    std::vector<std::pair<std::string, std::string>> coords) const
{
    if (apps.empty())
        throw ConfigError(strfmt("%s: scenario '%s' defines no workload (workload=, "
              "app { } or a workload sweep axis)",
              origin_.c_str(), name_.c_str()));

    // Per-app policies: app 0 maps onto llc_policy, the rest onto
    // the extra-app policy vector (sized to the app count; apps
    // without an explicit policy= inherit the config).
    if (!apps[0].policy.empty())
        cfg.llcPolicy = parseLlcPolicy(apps[0].policy);
    std::vector<LlcPolicy> extras;
    for (std::size_t i = 1; i < apps.size(); ++i) {
        if (!apps[i].policy.empty())
            extras.push_back(parseLlcPolicy(apps[i].policy));
        else if (i - 1 < cfg.extraAppPolicies.size())
            extras.push_back(cfg.extraAppPolicies[i - 1]);
        else
            extras.push_back(cfg.llcPolicy);
    }
    cfg.extraAppPolicies = std::move(extras);
    cfg.validate();

    ExpandedPoint ep;
    SweepPoint &p = ep.point;
    p.cfg = cfg;
    const bool any_class = std::any_of(
        apps.begin(), apps.end(),
        [](const AppSpec &a) { return !a.klass.empty(); });
    for (const AppSpec &a : apps) {
        if (!a.replay.empty()) {
            if (apps.size() != 1)
                throw ConfigError(strfmt("%s: replay= apps must run alone",
                      origin_.c_str()));
            p.setup = replaySetup(a.replay);
            break;
        }
        WorkloadSpec spec;
        if (!a.klass.empty()) {
            // Placeholder spec: installation happens through the
            // setup closure below (request drivers are programs, not
            // kernel lists), but the slot keeps app indices aligned
            // for the per-app policy mapping and sweep labels.
            spec.abbr = a.klass;
            spec.fullName = "open-loop serving (" + a.klass + ")";
            spec.paperKernels = spec.simKernels = 0;
        } else if (a.synthetic) {
            spec.abbr = a.synName;
            spec.fullName =
                std::string("synthetic ") + patternName(a.trace.pattern);
            spec.sharedMb = static_cast<double>(a.trace.sharedLines) *
                128.0 / 1048576.0;
            spec.paperKernels = spec.simKernels = 1;
            spec.trace = a.trace;
        } else {
            spec = suiteByName(a.workload, origin_);
        }
        if (a.ctas != 0)
            spec.numCtas = a.ctas;
        if (a.warps != 0)
            spec.warpsPerCta = a.warps;
        p.apps.push_back(std::move(spec));
    }
    if (any_class && !p.setup) {
        // Any class= app switches the whole point to program
        // installation: class apps get the request driver, static
        // co-runners keep their usual suite/synthetic kernel build.
        std::vector<char> is_class;
        for (const AppSpec &a : apps)
            is_class.push_back(a.klass.empty() ? 0 : 1);
        const std::vector<WorkloadSpec> specs = p.apps;
        p.setup = [is_class, specs](GpuSystem &gpu) {
            for (AppId a = 0;
                 a < static_cast<AppId>(specs.size()); ++a) {
                if (is_class[a]) {
                    gpu.setProgram(
                        a, makeLlmInferenceProgram(
                               llmServingParamsFromConfig(
                                   gpu.config(), a)));
                } else {
                    gpu.setWorkload(
                        a, WorkloadSuite::buildKernels(
                               specs[a], gpu.config().seed, a));
                }
            }
        };
    }

    // Label: axis coordinates ("LUD/shared"), or the scenario name
    // for a single unswept point.
    for (const auto &[key, value] : coords) {
        if (!p.label.empty())
            p.label += "/";
        p.label += value;
    }
    if (p.label.empty())
        p.label = name_;

    // Inter-cluster sharing runs collect their Fig-3 buckets through
    // a post hook that closes the final tracker window; without it
    // collect() reads the buckets mid-window.
    if (cfg.trackSharing) {
        const Cycle flush_at = cfg.maxCycles + 1000;
        p.post = [flush_at](GpuSystem &gpu, RunResult &r) {
            gpu.llc().sharingTracker().flush(flush_at);
            for (std::size_t b = 0; b < 4; ++b) {
                r.sharingBuckets[b] =
                    gpu.llc().sharingTracker().bucketFraction(b);
            }
        };
    }
    ep.coords = std::move(coords);
    return ep;
}

void
Scenario::expandGrid(const ScenarioGrid &grid,
                     std::vector<ExpandedPoint> &out) const
{
    std::vector<SweepAxis> axes = axes_;
    axes.insert(axes.end(), grid.axes.begin(), grid.axes.end());

    std::vector<std::size_t> idx(axes.size(), 0);
    for (;;) {
        SimConfig cfg;
        for (const auto &[key, value] : config_)
            ConfigRegistry::apply(cfg, key, value);
        for (const auto &[key, value] : grid.overrides)
            ConfigRegistry::apply(cfg, key, value);
        std::vector<AppSpec> apps =
            grid.apps.empty() ? apps_ : grid.apps;

        std::vector<std::pair<std::string, std::string>> coords;
        for (std::size_t a = 0; a < axes.size(); ++a) {
            const std::string &value = axes[a].values[idx[a]];
            coords.emplace_back(axes[a].key, value);
            if (axes[a].key == "workload") {
                apps = appsFromWorkload(value, origin_);
            } else if (axes[a].key == "variant") {
                for (const auto &[key, v] : variantOverrides(value))
                    ConfigRegistry::apply(cfg, key, v);
            } else {
                ConfigRegistry::apply(cfg, axes[a].key, value);
            }
        }
        if (smoke_) {
            cfg.maxCycles = std::max<Cycle>(1, cfg.maxCycles / 4);
            cfg.profileLen = std::max<Cycle>(1, cfg.profileLen / 4);
        }
        out.push_back(buildPoint(std::move(cfg), apps,
                                 std::move(coords)));

        // Odometer increment, last axis fastest: the first axis in
        // the file varies slowest, like nested loops.
        std::size_t a = axes.size();
        while (a > 0) {
            if (++idx[a - 1] < axes[a - 1].values.size())
                break;
            idx[a - 1] = 0;
            --a;
        }
        if (a == 0)
            break;
    }
}

std::vector<ExpandedPoint>
Scenario::expand() const
{
    std::vector<ExpandedPoint> out;
    if (grids_.empty()) {
        expandGrid(ScenarioGrid{}, out);
    } else {
        for (const ScenarioGrid &g : grids_)
            expandGrid(g, out);
    }
    return out;
}

namespace
{

/** Quote a value for dumpText() when it needs protection. */
std::string
dumpValue(const std::string &v)
{
    if (v.empty() || v.find('#') != std::string::npos ||
        v.find("//") != std::string::npos || v != trim(v))
        return "\"" + v + "\"";
    return v;
}

void
dumpApp(std::ostringstream &os, const AppSpec &a)
{
    os << "app {\n";
    if (!a.workload.empty())
        os << "  workload = " << a.workload << "\n";
    if (!a.replay.empty())
        os << "  replay = " << dumpValue(a.replay) << "\n";
    if (!a.klass.empty())
        os << "  class = " << a.klass << "\n";
    if (a.synthetic) {
        const TraceParams &t = a.trace;
        os << "  pattern = " << patternName(t.pattern) << "\n";
        if (a.synName != "syn")
            os << "  name = " << a.synName << "\n";
        os << "  shared_lines = " << t.sharedLines << "\n";
        os << "  private_lines = " << t.privateLinesPerCta << "\n";
        os << "  shared_fraction = " << f64s(t.sharedFraction) << "\n";
        os << "  zipf_alpha = " << f64s(t.zipfAlpha) << "\n";
        os << "  broadcast_mix = " << f64s(t.broadcastMix) << "\n";
        os << "  broadcast_window = " << t.broadcastWindow << "\n";
        os << "  phase_cycles = " << t.phaseCyclesPerLine << "\n";
        os << "  hot_lines = " << t.hotLines << "\n";
        os << "  hot_fraction = " << f64s(t.hotFraction) << "\n";
        os << "  hot_alpha = " << f64s(t.hotAlpha) << "\n";
        os << "  tile_lines = " << t.tileLines << "\n";
        os << "  ctas_per_tile = " << t.ctasPerTile << "\n";
        os << "  write_fraction = " << f64s(t.writeFraction) << "\n";
        os << "  atomic_fraction = " << f64s(t.atomicFraction) << "\n";
        os << "  compute_per_mem = " << t.computePerMem << "\n";
        os << "  accesses_per_instr = " << t.accessesPerInstr << "\n";
        os << "  mem_instrs = " << t.memInstrsPerWarp << "\n";
    }
    if (a.ctas != 0)
        os << "  ctas = " << a.ctas << "\n";
    if (a.warps != 0)
        os << "  warps = " << a.warps << "\n";
    if (!a.policy.empty())
        os << "  policy = " << a.policy << "\n";
    os << "}\n";
}

void
dumpAxes(std::ostringstream &os, const std::vector<SweepAxis> &axes,
         const std::string &indent)
{
    if (axes.empty())
        return;
    os << indent << "sweep {\n";
    for (const SweepAxis &axis : axes) {
        os << indent << "  " << axis.key << " = ";
        for (std::size_t i = 0; i < axis.values.size(); ++i)
            os << (i ? ", " : "") << axis.values[i];
        os << "\n";
    }
    os << indent << "}\n";
}

} // namespace

std::string
Scenario::dumpText() const
{
    std::ostringstream os;
    os << "name = " << name_ << "\n";
    if (!description_.empty())
        os << "description = \"" << description_ << "\"\n";
    if (!config_.empty()) {
        os << "config {\n";
        for (const auto &[key, value] : config_)
            os << "  " << key << " = " << dumpValue(value) << "\n";
        os << "}\n";
    }
    for (const auto &[vname, overrides] : variants_) {
        os << "variant." << vname << " {\n";
        for (const auto &[key, value] : overrides)
            os << "  " << key << " = " << dumpValue(value) << "\n";
        os << "}\n";
    }
    for (const AppSpec &a : apps_)
        dumpApp(os, a);
    dumpAxes(os, axes_, "");
    for (const ScenarioGrid &g : grids_) {
        os << "grid {\n";
        for (const auto &[key, value] : g.overrides)
            os << "  " << key << " = " << dumpValue(value) << "\n";
        if (!g.apps.empty()) {
            os << "  workload = ";
            for (std::size_t i = 0; i < g.apps.size(); ++i)
                os << (i ? "+" : "") << g.apps[i].workload;
            os << "\n";
        }
        dumpAxes(os, g.axes, "  ");
        os << "}\n";
    }
    for (const ReportSpec &r : reports_)
        os << dumpReport(r);
    return os.str();
}

std::function<void(GpuSystem &)>
replaySetup(const std::string &path)
{
    return [path](GpuSystem &gpu) {
        const auto reader = std::make_shared<const TraceReader>(path);
        gpu.setWorkload(0, WorkloadSuite::buildReplayKernels(reader));
    };
}

void
perPointPaths(std::vector<SweepPoint> &points)
{
    if (points.size() <= 1)
        return;
    for (std::size_t i = 0; i < points.size(); ++i) {
        SimConfig &cfg = points[i].cfg;
        for (std::string *path :
             {&cfg.timelineOut, &cfg.statsStreamOut,
              &cfg.checkpointPath, &cfg.traceRecordPath}) {
            if (!path->empty())
                *path = perPointPath(*path, i);
        }
    }
}

} // namespace amsc::scenario
