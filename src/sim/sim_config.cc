#include "sim/sim_config.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <utility>

#include "cache/replacement.hh"
#include "common/bitutils.hh"
#include "common/error.hh"
#include "common/log.hh"
#include "common/strutil.hh"
#include "noc/network_factory.hh"

namespace amsc
{

MappingParams
SimConfig::buildMappingParams() const
{
    MappingParams mp;
    mp.scheme = mappingScheme;
    mp.numMcs = numMcs;
    mp.banksPerMc = banksPerMc;
    mp.linesPerRow = dramRowBytes / lineBytes;
    mp.slicesPerMc = slicesPerMc;
    return mp;
}

DramParams
SimConfig::buildDramParams() const
{
    DramParams dp;
    dp.timings = dramTimings;
    dp.banksPerMc = banksPerMc;
    dp.bankGroups = dramBankGroups;
    dp.busBytesPerCycle = dramBusBytesPerCycle;
    dp.lineBytes = lineBytes;
    dp.rowBytes = dramRowBytes;
    dp.queueCapacity = dramQueueCap;
    return dp;
}

void
applyMemBackend(SimConfig &cfg, MemBackend backend)
{
    const MemBackendPreset &p = memBackendPreset(backend);
    cfg.memBackend = backend;
    cfg.dramTimings = p.timings;
    cfg.banksPerMc = p.banksPerMc;
    cfg.dramBankGroups = p.bankGroups;
    cfg.dramBusBytesPerCycle = p.busBytesPerCycle;
    cfg.dramRowBytes = p.rowBytes;
}

NocParams
SimConfig::buildNocParams() const
{
    NocParams np;
    np.topology = topology;
    np.numSms = numSms;
    np.numClusters = numClusters;
    np.numMcs = numMcs;
    np.slicesPerMc = slicesPerMc;
    np.channelWidthBytes = channelWidthBytes;
    np.concentration = concentration;
    np.vcDepthFlits = vcDepthFlits;
    np.routerPipelineLatency = routerPipelineLatency;
    np.shortLinkLatency = shortLinkLatency;
    np.longLinkLatency = longLinkLatency;
    np.injectQueueCap = injectQueueCap;
    np.ejectQueueCap = ejectQueueCap;
    np.idealLatency = idealNocLatency;
    np.packet.lineBytes = lineBytes;
    return np;
}

SmParams
SimConfig::buildSmParams(SmId id) const
{
    SmParams sp;
    sp.id = id;
    sp.cluster = id / smsPerCluster();
    sp.numSchedulers = numSchedulers;
    sp.maxResidentCtas = maxResidentCtas;
    sp.maxResidentWarps = maxResidentWarps;
    sp.l1.name = "l1";
    sp.l1.sizeBytes = l1SizeBytes;
    sp.l1.assoc = l1Assoc;
    sp.l1.lineBytes = lineBytes;
    sp.l1.writePolicy = WritePolicy::WriteThrough;
    sp.l1.writeAlloc = WriteAllocPolicy::NoAllocate;
    sp.l1.seed = seed + id;
    sp.l1Latency = l1Latency;
    sp.l1Mshrs = l1Mshrs;
    sp.l1MshrTargets = l1MshrTargets;
    sp.packet.lineBytes = lineBytes;
    return sp;
}

LlcParams
SimConfig::buildLlcParams() const
{
    LlcParams lp;
    lp.appPolicies.clear();
    lp.appPolicies.push_back(llcPolicy);
    for (const LlcPolicy p : extraAppPolicies)
        lp.appPolicies.push_back(p);

    lp.slice.numSets = static_cast<std::uint32_t>(
        llcSliceBytes / lineBytes / llcAssoc);
    lp.slice.assoc = llcAssoc;
    lp.slice.hitLatency = llcHitLatency;
    lp.slice.missLatency = llcMissLatency;
    lp.slice.mshrs = llcMshrs;
    lp.slice.mshrTargets = llcMshrTargets;
    lp.slice.repl = llcRepl;
    lp.slice.bypass = llcBypass;
    lp.slice.duelSets = llcDuelSets;
    lp.slice.bypassApp = buildBypassAppMask();
    // llc_bypass_apps=on force-enables the stream predictor for the
    // marked apps even when llc_bypass=none -- otherwise "on" would
    // be silently inert.
    if (lp.slice.bypass == BypassPolicy::None) {
        for (const std::uint8_t on : lp.slice.bypassApp) {
            if (on != 0) {
                lp.slice.bypass = BypassPolicy::Stream;
                break;
            }
        }
    }
    lp.slice.packet.lineBytes = lineBytes;
    lp.slice.seed = seed + 1000;

    lp.profileLen = profileLen;
    lp.epochLen = epochLen;
    lp.missTolerance = missTolerance;
    lp.bwMargin = bwMargin;
    lp.gateDelay = gateDelay;
    lp.trackSharing = trackSharing;

    lp.profiler.numSlices = numSlices();
    lp.profiler.numClusters = numClusters;
    lp.profiler.numMcs = numMcs;
    lp.profiler.llcSliceBw = channelWidthBytes;
    lp.profiler.memBw =
        static_cast<double>(numMcs) * dramBusBytesPerCycle;
    lp.profiler.atd.sliceSets = lp.slice.numSets;
    lp.profiler.atd.assoc = llcAssoc;
    lp.profiler.atd.sampledSets = 8;
    lp.profiler.atd.numRouters = numClusters;
    // The ATD must model the same replacement policy as the main
    // tags, or the Rule #1 private-vs-shared comparison is biased
    // (tests/test_perf_invariance.cc pins this).
    lp.profiler.atd.repl = llcRepl;
    lp.profiler.atd.duelSets = llcDuelSets;
    lp.profiler.atd.seed = seed + 2000;
    return lp;
}

std::vector<std::uint8_t>
SimConfig::buildBypassAppMask() const
{
    std::vector<std::uint8_t> mask;
    if (llcBypassApps.empty())
        return mask;
    const std::vector<std::string> names =
        splitList(llcBypassApps, '+');
    if (names.size() > numApps())
        throw ConfigError(
            strfmt("llc_bypass_apps lists %zu apps but the run has %u",
                   names.size(), numApps()));
    mask.assign(numApps(), llcBypass != BypassPolicy::None ? 1 : 0);
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (names[i] == "on")
            mask[i] = 1;
        else if (names[i] == "off")
            mask[i] = 0;
        else if (names[i] != "inherit")
            throw ConfigError(
                strfmt("llc_bypass_apps: unknown value '%s' "
                       "(on|off|inherit)",
                       names[i].c_str()));
    }
    return mask;
}

// ---- key registry ----------------------------------------------------

namespace
{

} // namespace

SweepOnError
parseSweepOnError(const std::string &name)
{
    if (name == "abort")
        return SweepOnError::Abort;
    if (name == "skip")
        return SweepOnError::Skip;
    throw ConfigError(
        strfmt("unknown sweep_on_error '%s' (abort|skip)",
               name.c_str()));
}

std::string
sweepOnErrorName(SweepOnError v)
{
    return v == SweepOnError::Abort ? "abort" : "skip";
}

SimMode
parseSimMode(const std::string &name)
{
    if (name == "tick")
        return SimMode::Tick;
    if (name == "event")
        return SimMode::Event;
    throw ConfigError(
        strfmt("unknown sim_mode '%s' (tick|event)", name.c_str()));
}

std::string
simModeName(SimMode v)
{
    return v == SimMode::Tick ? "tick" : "event";
}

namespace
{

MappingScheme
parseMapping(const std::string &m)
{
    if (m == "pae")
        return MappingScheme::Pae;
    if (m == "hynix")
        return MappingScheme::Hynix;
    throw ConfigError(
        strfmt("unknown mapping '%s' (pae|hynix)", m.c_str()));
}

std::string
u64s(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
f64s(double v)
{
    return strfmt("%g", v);
}

std::string
bs(bool v)
{
    return v ? "true" : "false";
}

/** Parseable cta_policy spelling. */
std::string
ctaPolicyKey(CtaPolicy p)
{
    switch (p) {
      case CtaPolicy::TwoLevelRR:
        return "rr";
      case CtaPolicy::Bcs:
        return "bcs";
      case CtaPolicy::Dcs:
        return "dcs";
    }
    return "?";
}

std::string
mappingKey(MappingScheme m)
{
    return m == MappingScheme::Pae ? "pae" : "hynix";
}

/** All app policies ('+'-joined): llcPolicy plus the extras. */
std::string
appPoliciesValue(const SimConfig &c)
{
    std::string out = llcPolicyName(c.llcPolicy);
    for (const LlcPolicy p : c.extraAppPolicies)
        out += "+" + llcPolicyName(p);
    return out;
}

void
setAppPolicies(SimConfig &c, const std::string &value)
{
    const std::vector<std::string> names = splitList(value, '+');
    if (names.empty())
        throw ConfigError("empty value for key 'app_policies'");
    c.llcPolicy = parseLlcPolicy(names[0]);
    c.extraAppPolicies.clear();
    for (std::size_t i = 1; i < names.size(); ++i)
        c.extraAppPolicies.push_back(parseLlcPolicy(names[i]));
}

#define AMSC_U32_KEY(key, field, doc)                                  \
    {                                                                  \
        key, "uint", "", doc,                                          \
            [](const SimConfig &c) { return u64s(c.field); },          \
            [](SimConfig &c, const std::string &v) {                   \
                c.field = static_cast<std::uint32_t>(parseUintValue(key, v)); \
            }                                                          \
    }

#define AMSC_U64_KEY(key, field, doc)                                  \
    {                                                                  \
        key, "uint", "", doc,                                          \
            [](const SimConfig &c) { return u64s(c.field); },          \
            [](SimConfig &c, const std::string &v) {                   \
                c.field = parseUintValue(key, v);                            \
            }                                                          \
    }

#define AMSC_F64_KEY(key, field, doc)                                  \
    {                                                                  \
        key, "double", "", doc,                                        \
            [](const SimConfig &c) { return f64s(c.field); },          \
            [](SimConfig &c, const std::string &v) {                   \
                c.field = parseDoubleValue(key, v);                            \
            }                                                          \
    }

#define AMSC_BOOL_KEY(key, field, doc)                                 \
    {                                                                  \
        key, "bool", "", doc,                                          \
            [](const SimConfig &c) { return bs(c.field); },            \
            [](SimConfig &c, const std::string &v) {                   \
                c.field = parseBoolValue(key, v);                              \
            }                                                          \
    }

std::vector<ConfigKeyInfo>
buildRegistry()
{
    return {
        // ---- GPU cores ------------------------------------------------
        AMSC_U32_KEY("num_sms", numSms,
                     "Number of streaming multiprocessors (Table 1: 80)."),
        AMSC_U32_KEY("num_clusters", numClusters,
                     "SM clusters; the H-Xbar co-design requires "
                     "slices_per_mc == num_clusters."),
        AMSC_U32_KEY("num_schedulers", numSchedulers,
                     "GTO warp schedulers per SM."),
        AMSC_U32_KEY("max_ctas", maxResidentCtas,
                     "Maximum resident CTAs per SM."),
        AMSC_U32_KEY("max_warps", maxResidentWarps,
                     "Maximum resident warps per SM."),
        // ---- L1 -------------------------------------------------------
        {"l1_kb", "uint", "",
         "L1 data cache size per SM, in KB (Table 1: 48).",
         [](const SimConfig &c) { return u64s(c.l1SizeBytes / 1024); },
         [](SimConfig &c, const std::string &v) {
             c.l1SizeBytes = parseUintValue("l1_kb", v) * 1024;
         }},
        AMSC_U32_KEY("l1_assoc", l1Assoc, "L1 associativity."),
        AMSC_U32_KEY("line_bytes", lineBytes,
                     "Cache-line size in bytes, all levels (Table 1: "
                     "128)."),
        AMSC_U32_KEY("l1_latency", l1Latency, "L1 hit latency, cycles."),
        AMSC_U32_KEY("l1_mshrs", l1Mshrs, "L1 MSHR entries."),
        AMSC_U32_KEY("l1_mshr_targets", l1MshrTargets,
                     "Secondary misses merged per L1 MSHR."),
        // ---- LLC ------------------------------------------------------
        AMSC_U32_KEY("num_mcs", numMcs,
                     "Memory controllers (Table 1: 8)."),
        AMSC_U32_KEY("slices_per_mc", slicesPerMc,
                     "LLC slices per memory controller (Table 1: 8)."),
        {"llc_slice_kb", "uint", "",
         "LLC slice size in KB (Table 1: 96).",
         [](const SimConfig &c) {
             return u64s(c.llcSliceBytes / 1024);
         },
         [](SimConfig &c, const std::string &v) {
             c.llcSliceBytes = parseUintValue("llc_slice_kb", v) * 1024;
         }},
        AMSC_U32_KEY("llc_assoc", llcAssoc, "LLC associativity."),
        AMSC_U32_KEY("llc_hit_latency", llcHitLatency,
                     "LLC slice hit latency, cycles."),
        AMSC_U32_KEY("llc_miss_latency", llcMissLatency,
                     "LLC miss-detection latency, cycles."),
        AMSC_U32_KEY("llc_mshrs", llcMshrs, "LLC MSHR entries."),
        AMSC_U32_KEY("llc_mshr_targets", llcMshrTargets,
                     "Secondary misses merged per LLC MSHR."),
        {"llc_repl", "enum", "lru|fifo|random|srrip|brrip|drrip",
         "LLC replacement policy, main tags and ATD (Table 1: lru).",
         [](const SimConfig &c) { return replPolicyName(c.llcRepl); },
         [](SimConfig &c, const std::string &v) {
             c.llcRepl = parseReplPolicy(v);
         }},
        {"llc_bypass", "enum", "none|stream",
         "LLC fill-bypass policy: no-allocate for sources with no "
         "observed reuse (docs/DESIGN.md).",
         [](const SimConfig &c) { return bypassPolicyName(c.llcBypass); },
         [](SimConfig &c, const std::string &v) {
             c.llcBypass = parseBypassPolicy(v);
         }},
        AMSC_U32_KEY("llc_duel_sets", llcDuelSets,
                     "DRRIP set-dueling leader sets per constituency "
                     "per slice."),
        {"llc_bypass_apps", "list", "on|off|inherit, '+'-joined",
         "Per-application bypass overrides for multi-program runs "
         "(e.g. on+off); empty = all apps follow llc_bypass, 'on' "
         "force-enables the stream bypass for that app even when "
         "llc_bypass=none.",
         [](const SimConfig &c) { return c.llcBypassApps; },
         [](SimConfig &c, const std::string &v) {
             c.llcBypassApps = v;
         }},
        // ---- adaptive controller --------------------------------------
        {"llc_policy", "enum", "shared|private|adaptive",
         "LLC management policy of application 0.",
         [](const SimConfig &c) { return llcPolicyName(c.llcPolicy); },
         [](SimConfig &c, const std::string &v) {
             c.llcPolicy = parseLlcPolicy(v);
         }},
        {"app_policies", "list", "shared|private|adaptive, '+'-joined",
         "Per-application policies for multi-program runs "
         "(e.g. shared+private); overrides llc_policy for app 0.",
         [](const SimConfig &c) { return appPoliciesValue(c); },
         [](SimConfig &c, const std::string &v) {
             setAppPolicies(c, v);
         }},
        AMSC_U64_KEY("profile_len", profileLen,
                     "Profiling window length, cycles (paper: 50K)."),
        AMSC_U64_KEY("epoch_len", epochLen,
                     "Adaptive-controller epoch length, cycles "
                     "(paper: 1M)."),
        AMSC_F64_KEY("miss_tolerance", missTolerance,
                     "Rule #1 miss-rate tolerance."),
        AMSC_F64_KEY("bw_margin", bwMargin,
                     "Rule #2 bandwidth hysteresis factor (1.0 = the "
                     "paper's bare rule)."),
        AMSC_U64_KEY("gate_delay", gateDelay,
                     "Router power-gate/wake delay, cycles."),
        AMSC_BOOL_KEY("track_sharing", trackSharing,
                      "Track inter-cluster line sharing (Fig 3 "
                      "buckets; adds overhead)."),
        // ---- NoC ------------------------------------------------------
        {"noc", "enum", "ideal|full|cxbar|hxbar",
         "NoC topology.",
         [](const SimConfig &c) { return topologyName(c.topology); },
         [](SimConfig &c, const std::string &v) {
             c.topology = parseTopology(v);
         }},
        AMSC_U32_KEY("channel_width", channelWidthBytes,
                     "NoC channel width in bytes (Table 1: 32)."),
        AMSC_U32_KEY("concentration", concentration,
                     "Concentration factor of the C-Xbar topology."),
        AMSC_U32_KEY("vc_depth", vcDepthFlits,
                     "Virtual-channel buffer depth, flits."),
        AMSC_U32_KEY("router_latency", routerPipelineLatency,
                     "Router pipeline latency, cycles."),
        AMSC_U64_KEY("short_link_latency", shortLinkLatency,
                     "Short (intra-group) link latency, cycles."),
        AMSC_U64_KEY("long_link_latency", longLinkLatency,
                     "Long (cross-chip) link latency, cycles."),
        AMSC_U64_KEY("inject_queue_cap", injectQueueCap,
                     "NoC injection queue capacity, packets."),
        AMSC_U64_KEY("eject_queue_cap", ejectQueueCap,
                     "NoC ejection queue capacity, packets."),
        AMSC_U64_KEY("ideal_noc_latency", idealNocLatency,
                     "Fixed latency of the ideal NoC model, cycles."),
        // ---- DRAM -----------------------------------------------------
        // mem_backend precedes the dram_* keys so that explicit
        // timing overrides win over the preset: applyKv applies keys
        // in registry order, scenarios in declaration order.
        {"mem_backend", "enum", "gddr5|hbm2|scm",
         "Memory-technology preset: rewrites the DRAM timing block, "
         "banks, bank groups, bus width and row size; later dram_* "
         "keys override individual fields (docs/DESIGN.md).",
         [](const SimConfig &c) { return memBackendName(c.memBackend); },
         [](SimConfig &c, const std::string &v) {
             applyMemBackend(c, parseMemBackend(v));
         }},
        {"mem_sched", "enum", "fr_fcfs|fcfs|write_drain",
         "Memory-controller scheduling policy (Table 1: fr_fcfs).",
         [](const SimConfig &c) { return memSchedName(c.memSched); },
         [](SimConfig &c, const std::string &v) {
             c.memSched = parseMemSched(v);
         }},
        AMSC_U32_KEY("dram_tcl", dramTimings.tCL,
                     "DRAM CAS latency, core cycles."),
        AMSC_U32_KEY("dram_tcwl", dramTimings.tCWL,
                     "DRAM CAS write latency (column command to "
                     "write data), core cycles."),
        AMSC_U32_KEY("dram_trp", dramTimings.tRP,
                     "DRAM row precharge time, core cycles."),
        AMSC_U32_KEY("dram_trc", dramTimings.tRC,
                     "DRAM row cycle time, core cycles."),
        AMSC_U32_KEY("dram_tras", dramTimings.tRAS,
                     "DRAM activate-to-precharge minimum, core "
                     "cycles."),
        AMSC_U32_KEY("dram_trcd", dramTimings.tRCD,
                     "DRAM row-to-column delay, core cycles."),
        AMSC_U32_KEY("dram_trrd", dramTimings.tRRD,
                     "DRAM activate-to-activate spacing per MC, core "
                     "cycles."),
        AMSC_U32_KEY("dram_tfaw", dramTimings.tFAW,
                     "DRAM four-activate window per MC, core cycles "
                     "(0 disables)."),
        AMSC_U32_KEY("dram_tccd", dramTimings.tCCD,
                     "DRAM column-to-column spacing per bank, core "
                     "cycles."),
        AMSC_U32_KEY("dram_tccd_l", dramTimings.tCCD_L,
                     "DRAM column spacing within a bank group, core "
                     "cycles (dram_bank_groups > 1)."),
        AMSC_U32_KEY("dram_tccd_s", dramTimings.tCCD_S,
                     "DRAM column spacing across bank groups, core "
                     "cycles (dram_bank_groups > 1)."),
        AMSC_U32_KEY("dram_twr", dramTimings.tWR,
                     "DRAM write recovery (last write data to "
                     "precharge), core cycles."),
        AMSC_U32_KEY("dram_twtr", dramTimings.tWTR,
                     "DRAM write-to-read turnaround per MC, core "
                     "cycles."),
        AMSC_U32_KEY("dram_trefi", dramTimings.tREFI,
                     "DRAM refresh interval per MC, core cycles (0 "
                     "disables refresh)."),
        AMSC_U32_KEY("dram_trfc", dramTimings.tRFC,
                     "DRAM all-bank refresh cycle time, core cycles."),
        AMSC_U32_KEY("banks_per_mc", banksPerMc,
                     "DRAM banks per memory controller (Table 1: 16)."),
        AMSC_U32_KEY("dram_bank_groups", dramBankGroups,
                     "DRAM bank groups per MC; 1 disables the "
                     "tCCD_L/tCCD_S constraints."),
        AMSC_U32_KEY("dram_bus_bytes", dramBusBytesPerCycle,
                     "DRAM data-bus bytes per core cycle per MC."),
        AMSC_U32_KEY("dram_row_bytes", dramRowBytes,
                     "DRAM row-buffer size, bytes."),
        AMSC_U32_KEY("dram_queue_cap", dramQueueCap,
                     "Memory-controller request queue capacity."),
        {"mapping", "enum", "pae|hynix",
         "Physical address to channel/bank mapping scheme.",
         [](const SimConfig &c) { return mappingKey(c.mappingScheme); },
         [](SimConfig &c, const std::string &v) {
             c.mappingScheme = parseMapping(v);
         }},
        // ---- scheduling -----------------------------------------------
        {"cta_policy", "enum", "rr|bcs|dcs",
         "CTA scheduling policy (two-level round-robin, BCS, DCS).",
         [](const SimConfig &c) { return ctaPolicyKey(c.ctaPolicy); },
         [](SimConfig &c, const std::string &v) {
             c.ctaPolicy = parseCtaPolicy(v);
         }},
        // ---- run control ----------------------------------------------
        AMSC_U64_KEY("max_cycles", maxCycles,
                     "Simulated-cycle horizon per run."),
        AMSC_U64_KEY("max_instructions", maxInstructions,
                     "Instruction budget per run (0 = unlimited)."),
        AMSC_U64_KEY("seed", seed, "Master RNG seed."),
        {"sim_mode", "enum", "tick|event",
         "Cycle-core driver: per-cycle tick loop, or event-driven "
         "clock jumps to the earliest advertised component event. "
         "Bit-identical results and streams either way "
         "(docs/performance.md).",
         [](const SimConfig &c) { return simModeName(c.simMode); },
         [](SimConfig &c, const std::string &v) {
             c.simMode = parseSimMode(v);
         }},
        AMSC_U64_KEY("checkpoint_every", checkpointEvery,
                     "Write a crash-recovery checkpoint every N "
                     "cycles (0 = off; requires checkpoint_path; "
                     "docs/robustness.md)."),
        {"checkpoint_path", "string", "",
         "Checkpoint output file, atomically overwritten at each "
         "checkpoint_every boundary (docs/robustness.md).",
         [](const SimConfig &c) { return c.checkpointPath; },
         [](SimConfig &c, const std::string &v) {
             c.checkpointPath = v;
         }},
        {"sweep_on_error", "enum", "abort|skip",
         "Sweep-point failure policy: abort the whole sweep on the "
         "first error (seed behaviour) or mark the point failed and "
         "keep going (docs/robustness.md).",
         [](const SimConfig &c) {
             return sweepOnErrorName(c.sweepOnError);
         },
         [](SimConfig &c, const std::string &v) {
             c.sweepOnError = parseSweepOnError(v);
         }},
        {"trace_record", "string", "",
         "Record the point's warp streams to this trace file; the "
         "point must run one suite or synthetic app. Replay it with "
         "an `app { replay = FILE }` block (docs/trace_format.md).",
         [](const SimConfig &c) { return c.traceRecordPath; },
         [](SimConfig &c, const std::string &v) {
             c.traceRecordPath = v;
         }},
        // ---- observability --------------------------------------------
        AMSC_BOOL_KEY("timeline", timeline,
                      "Capture the run's timeline (epoch phases, "
                      "Rule #1/#2/#3 decisions, counters); with "
                      "timeline_out empty the events feed a null "
                      "sink (docs/observability.md)."),
        {"timeline_out", "string", "",
         "Perfetto/chrome-tracing JSON output path; setting it "
         "implies timeline=true (docs/observability.md).",
         [](const SimConfig &c) { return c.timelineOut; },
         [](SimConfig &c, const std::string &v) {
             c.timelineOut = v;
             if (!v.empty())
                 c.timeline = true;
         }},
        {"stats_stream_out", "string", "",
         "Windowed stats-delta JSONL output path, one record every "
         "stats_stream_period cycles (docs/observability.md).",
         [](const SimConfig &c) { return c.statsStreamOut; },
         [](SimConfig &c, const std::string &v) {
             c.statsStreamOut = v;
         }},
        AMSC_U64_KEY("stats_stream_period", statsStreamPeriod,
                     "Counter-sampling and stats-window period in "
                     "cycles; inert unless timeline or "
                     "stats_stream_out enables an observer."),
        // ---- open-loop serving ----------------------------------------
        AMSC_F64_KEY("serving_rate", servingRate,
                     "Mean request arrivals per 1000 cycles of the "
                     "open-loop Poisson driver (docs/workloads.md)."),
        AMSC_U32_KEY("serving_tenants", servingTenants,
                     "Tenant (model instance) population of the "
                     "request driver, Zipf-distributed."),
        AMSC_F64_KEY("serving_zipf_alpha", servingZipfAlpha,
                     "Zipf skew of the tenant popularity "
                     "distribution (0 = uniform)."),
        AMSC_U32_KEY("serving_batch", servingBatch,
                     "Maximum requests batched into one "
                     "prefill/decode/kv-append phase chain."),
        AMSC_U32_KEY("serving_requests", servingRequests,
                     "Total requests the driver admits before "
                     "finishing (0 = open-ended, run to the cycle "
                     "horizon)."),
        AMSC_U32_KEY("serving_ctx", servingCtx,
                     "Prompt (context) length in tokens; scales the "
                     "prefill phase and the KV footprint."),
        AMSC_U32_KEY("serving_decode", servingDecode,
                     "Generated tokens per request; scales the "
                     "decode phase."),
        AMSC_U32_KEY("llm_d_model", llmDModel,
                     "Model hidden dimension of the llm_inference "
                     "workload class (weight/KV footprint)."),
        AMSC_U32_KEY("llm_layers", llmLayers,
                     "Transformer layer count of the llm_inference "
                     "workload class (weight/KV footprint)."),
    };
}

#undef AMSC_U32_KEY
#undef AMSC_U64_KEY
#undef AMSC_F64_KEY
#undef AMSC_BOOL_KEY

} // namespace

const std::vector<ConfigKeyInfo> &
ConfigRegistry::keys()
{
    static const std::vector<ConfigKeyInfo> registry = buildRegistry();
    return registry;
}

const ConfigKeyInfo *
ConfigRegistry::find(const std::string &name)
{
    for (const ConfigKeyInfo &k : keys()) {
        if (name == k.name)
            return &k;
    }
    return nullptr;
}

std::string
ConfigRegistry::suggest(const std::string &name)
{
    std::vector<std::string> names;
    names.reserve(keys().size());
    for (const ConfigKeyInfo &k : keys())
        names.emplace_back(k.name);
    return nearestOf(name, names);
}

void
ConfigRegistry::apply(SimConfig &cfg, const std::string &name,
                      const std::string &value)
{
    const ConfigKeyInfo *key = find(name);
    if (!key)
        throw ConfigError(
            strfmt("unknown configuration key '%s'; nearest is '%s' "
                   "(see docs/configuration.md)",
                   name.c_str(), suggest(name).c_str()));
    key->set(cfg, value);
}

void
SimConfig::applyKv(const KvArgs &args)
{
    for (const ConfigKeyInfo &k : ConfigRegistry::keys()) {
        if (args.has(k.name))
            k.set(*this, args.getString(k.name));
    }
    validate();
}

void
SimConfig::validate() const
{
    if (numSms == 0 || numClusters == 0 || numMcs == 0 ||
        slicesPerMc == 0)
        throw ConfigError("config: zero structural parameter");
    // Each application owns a share of every cluster's SMs; an app
    // with no share would have nowhere to launch its kernels.
    if (numApps() > smsPerCluster())
        throw ConfigError(strfmt("config: %u applications need at least "
                                 "%u SMs per cluster (have %u)",
                                 numApps(), numApps(), smsPerCluster()));
    if (topology == NocTopology::Hierarchical &&
        slicesPerMc != numClusters)
        throw ConfigError(strfmt("config: H-Xbar co-design requires "
                                 "slices_per_mc (%u) == num_clusters (%u)",
                                 slicesPerMc, numClusters));
    // The set-geometry checks below divide by these.
    if (lineBytes == 0 || llcAssoc == 0 || l1Assoc == 0)
        throw ConfigError(
            "config: line_bytes, llc_assoc and l1_assoc must be non-zero");
    if (llcSliceBytes % (static_cast<std::uint64_t>(lineBytes) *
                         llcAssoc) != 0)
        throw ConfigError("config: LLC slice size not divisible into sets");
    if (l1SizeBytes % (static_cast<std::uint64_t>(lineBytes) *
                       l1Assoc) != 0)
        throw ConfigError("config: L1 size not divisible into sets");
    if (dramRowBytes % lineBytes != 0)
        throw ConfigError(
            "config: DRAM row not a multiple of the line size");
    if (dramBusBytesPerCycle == 0)
        throw ConfigError("config: dram_bus_bytes must be non-zero");
    if (dramBankGroups == 0 || dramBankGroups > banksPerMc ||
        banksPerMc % dramBankGroups != 0)
        throw ConfigError(strfmt("config: dram_bank_groups (%u) must "
                                 "divide banks_per_mc (%u)",
                                 dramBankGroups, banksPerMc));
    if (dramTimings.tREFI != 0 && dramTimings.tRFC >= dramTimings.tREFI)
        throw ConfigError(strfmt("config: dram_trfc (%u) must be below "
                                 "dram_trefi (%u)",
                                 dramTimings.tRFC, dramTimings.tREFI));
    if (dramQueueCap == 0)
        throw ConfigError("config: dram_queue_cap must be non-zero");
    if (checkpointEvery != 0 && checkpointPath.empty())
        throw ConfigError(
            "config: checkpoint_every requires checkpoint_path");
    if (checkpointEvery != 0 && !traceRecordPath.empty())
        throw ConfigError("config: checkpoint_every and trace_record are "
                          "exclusive (recording generators are not "
                          "checkpointable)");
    if (statsStreamPeriod == 0)
        throw ConfigError("config: stats_stream_period must be non-zero");
    if (llcDuelSets == 0)
        throw ConfigError("config: llc_duel_sets must be non-zero");
    if (!(servingRate > 0.0))
        throw ConfigError("config: serving_rate must be positive");
    if (servingZipfAlpha < 0.0)
        throw ConfigError(
            "config: serving_zipf_alpha must be non-negative");
    if (servingTenants == 0 || servingBatch == 0 || servingCtx == 0 ||
        servingDecode == 0 || llmDModel == 0 || llmLayers == 0)
        throw ConfigError("config: serving/llm parameters must be "
                          "non-zero (serving_tenants, serving_batch, "
                          "serving_ctx, serving_decode, llm_d_model, "
                          "llm_layers)");
    // A zero width divides by zero when packetizing; zero buffer or
    // queue slots leave the NoC without credits and the run hangs; a
    // zero concentration gives the C-Xbar no SM ports.
    const std::pair<const char *, std::uint64_t> noc_sizes[] = {
        {"channel_width", channelWidthBytes},
        {"vc_depth", vcDepthFlits},
        {"inject_queue_cap", injectQueueCap},
        {"eject_queue_cap", ejectQueueCap},
        {"concentration", concentration},
    };
    for (const auto &[key, value] : noc_sizes) {
        if (value == 0)
            throw ConfigError(strfmt("%s must be non-zero", key));
    }
    buildBypassAppMask(); // throws on malformed llc_bypass_apps
}

} // namespace amsc
