/**
 * @file
 * Ablation: accuracy of the section-4.4 decision models, through the
 * library API.
 *
 * For a representative subset of workloads, compares the profiler's
 * shared-mode predictions (ATD private miss rate, LSP, bandwidth
 * model) against ground truth measured by actually running the
 * private organization, and reports which rule drove each decision.
 * The predictions live in the LLC's last ProfileSnapshot, which no
 * emitted column carries, so a SweepPoint post hook reads it while
 * the adaptive run's GpuSystem is still alive.
 *
 * Usage: ablation_profiler [threads=N] [max_cycles=N] [key=value ...]
 */

#include <cstdio>

#include "common/kvargs.hh"
#include "sim/sweep.hh"
#include "workloads/suite.hh"

using namespace amsc;

namespace
{

/** One-workload sweep point under @p policy. */
SweepPoint
policyPoint(SimConfig cfg, const WorkloadSpec &spec, LlcPolicy policy)
{
    cfg.llcPolicy = policy;
    SweepPoint p;
    p.label = spec.abbr + "/" + llcPolicyName(policy);
    p.cfg = std::move(cfg);
    p.apps = {spec};
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    const KvArgs args = KvArgs::parse(argc, argv);
    // The figure scenarios' scaled run: profiling window and epoch
    // shrink with the horizon (paper: 50 K / 1 M).
    SimConfig base;
    base.maxCycles = 60000;
    base.profileLen = 5000;
    base.epochLen = 50000;
    base.applyKv(args);
    const SweepRunner runner(
        static_cast<unsigned>(args.getUint("threads", 0)));

    const char *const names[] = {"LUD", "GEMM", "BP", "AN",
                                 "NN",  "MM",   "BS", "VA"};
    constexpr std::size_t kApps = sizeof(names) / sizeof(names[0]);

    // Per workload: adaptive (capturing the profile snapshot),
    // private and shared ground-truth runs.
    std::vector<SweepPoint> points;
    std::vector<ProfileSnapshot> snaps(kApps);
    for (std::size_t i = 0; i < kApps; ++i) {
        const WorkloadSpec &spec = WorkloadSuite::byName(names[i]);
        SweepPoint adaptive =
            policyPoint(base, spec, LlcPolicy::Adaptive);
        ProfileSnapshot *out = &snaps[i];
        adaptive.post = [out](GpuSystem &gpu, RunResult &) {
            *out = gpu.llc().lastSnapshot();
        };
        points.push_back(std::move(adaptive));
        points.push_back(
            policyPoint(base, spec, LlcPolicy::ForcePrivate));
        points.push_back(
            policyPoint(base, spec, LlcPolicy::ForceShared));
    }
    const std::vector<RunResult> results = runner.run(points);

    std::printf("# Ablation: profiler prediction accuracy (section "
                "4.4 models)\n\n");
    std::printf("| app | class | miss_s meas | miss_p pred | miss_p "
                "meas | LSP_s | LSP_p pred | decision | rule |\n"
                "|---|---|---|---|---|---|---|---|---|\n");

    for (std::size_t i = 0; i < kApps; ++i) {
        const WorkloadSpec &spec = WorkloadSuite::byName(names[i]);
        const RunResult &ra = results[3 * i];
        const RunResult &rp = results[3 * i + 1];
        const RunResult &rs = results[3 * i + 2];
        const ProfileSnapshot &snap = snaps[i];

        const char *rule = ra.llcCtrl.rule1Fires > 0 ? "#1"
            : ra.llcCtrl.rule2Fires > 0              ? "#2"
                                                     : "-";
        std::printf("| %-5s | %-16s | %.3f | %.3f | %.3f | %4.1f | "
                    "%4.1f | %-7s | %s |\n",
                    spec.abbr.c_str(),
                    workloadClassName(spec.klass).c_str(),
                    rs.llcReadMissRate, snap.privateMissRate,
                    rp.llcReadMissRate, snap.sharedLsp,
                    snap.privateLsp,
                    ra.llcCtrl.decisionsPrivate > 0 ? "private"
                                                    : "shared",
                    rule);
    }
    std::printf("\nA decision is correct when the chosen organization "
                "matches the class (private-friendly -> private, "
                "shared-friendly -> shared, neutral -> private for "
                "power).\n");
    args.warnUnused();
    return 0;
}
