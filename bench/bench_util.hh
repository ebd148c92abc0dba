/**
 * @file
 * Shared helpers for the figure/table reproduction benches.
 *
 * Every bench accepts SimConfig key=value overrides plus:
 *   max_cycles=N   simulated cycles per run (default 60000)
 *   quick=1        quarter-length runs for smoke testing
 *   threads=N      sweep worker threads (default: all cores, or
 *                  AMSC_SWEEP_THREADS)
 *
 * Benches build their whole (config, workload) grid as SweepPoints,
 * execute it on the SweepRunner thread pool, and print GitHub-
 * flavoured markdown tables plus ASCII bars from the order-stable
 * results, so the series can be compared against the paper's figures
 * directly. Results are bit-identical at any thread count.
 */

#ifndef AMSC_BENCH_BENCH_UTIL_HH
#define AMSC_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/kvargs.hh"
#include "scenario/emit.hh"
#include "sim/gpu_system.hh"
#include "sim/sweep.hh"
#include "workloads/suite.hh"

namespace amsc::bench
{

/** Baseline bench configuration: Table 1 at reduced runtime. */
inline SimConfig
benchConfig(const KvArgs &args)
{
    SimConfig cfg;
    // Scaled run lengths: the profiling window and epoch shrink
    // together with the simulated horizon (paper: 50 K / 1 M at 1 B
    // instructions).
    cfg.maxCycles = 60000;
    cfg.profileLen = 5000;
    cfg.epochLen = 50000;
    cfg.applyKv(args);
    if (args.getBool("quick", false)) {
        cfg.maxCycles /= 4;
        cfg.profileLen /= 4;
    }
    return cfg;
}

/** Sweep executor honouring the bench-level `threads=N` override. */
inline SweepRunner
benchRunner(const KvArgs &args)
{
    return SweepRunner(
        static_cast<unsigned>(args.getUint("threads", 0)));
}

/**
 * Run the whole grid and additionally honour `json=FILE` / `csv=FILE`
 * overrides: every bench can dump its raw per-point metrics in the
 * scenario emitters' stable column format next to its table output.
 */
inline std::vector<RunResult>
runAndEmit(const KvArgs &args, const SweepRunner &runner,
           const std::vector<SweepPoint> &points)
{
    std::vector<RunResult> results = runner.run(points);
    scenario::maybeEmit(args, points, results);
    return results;
}

/** Sweep point: one workload under one LLC policy. */
inline SweepPoint
policyPoint(SimConfig cfg, const WorkloadSpec &spec, LlcPolicy policy)
{
    cfg.llcPolicy = policy;
    SweepPoint p;
    p.label = spec.abbr + "/" + llcPolicyName(policy);
    p.cfg = std::move(cfg);
    p.apps = {spec};
    return p;
}

/**
 * Indices of one workload's {shared, private, adaptive} sweep points
 * inside the grid they were pushed into.
 */
struct PolicyTriple
{
    std::size_t shared;
    std::size_t priv;
    std::size_t adaptive;
};

/**
 * Append shared/private/adaptive points for @p spec to @p points and
 * return their indices, so result consumption cannot drift from the
 * grid construction order.
 */
inline PolicyTriple
pushPolicyTriple(std::vector<SweepPoint> &points, const SimConfig &cfg,
                 const WorkloadSpec &spec)
{
    const PolicyTriple t{points.size(), points.size() + 1,
                         points.size() + 2};
    points.push_back(policyPoint(cfg, spec, LlcPolicy::ForceShared));
    points.push_back(policyPoint(cfg, spec, LlcPolicy::ForcePrivate));
    points.push_back(policyPoint(cfg, spec, LlcPolicy::Adaptive));
    return t;
}

/** Render a fixed-width ASCII bar for value in [0, max]. */
inline std::string
bar(double value, double max, int width = 24)
{
    if (max <= 0.0)
        max = 1.0;
    int n = static_cast<int>(value / max * width + 0.5);
    if (n < 0)
        n = 0;
    if (n > width)
        n = width;
    return std::string(static_cast<std::size_t>(n), '#');
}

/** Print a markdown table separator row of @p cols columns. */
inline void
printRule(int cols)
{
    for (int i = 0; i < cols; ++i)
        std::printf("|---");
    std::printf("|\n");
}

/** Pretty class name used in the figure groupings. */
inline const char *
className(WorkloadClass c)
{
    switch (c) {
      case WorkloadClass::SharedFriendly:
        return "shared cache friendly";
      case WorkloadClass::PrivateFriendly:
        return "private cache friendly";
      case WorkloadClass::Neutral:
        return "shared/private neutral";
    }
    return "?";
}

} // namespace amsc::bench

#endif // AMSC_BENCH_BENCH_UTIL_HH
