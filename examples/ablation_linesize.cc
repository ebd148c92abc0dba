/**
 * @file
 * Ablation: cache-line size (paper section 5), through the library
 * API.
 *
 * The paper evaluates 256 B lines and reports ~10% more sharers per
 * cache line, noting that more sharers exacerbate the LLC bandwidth
 * problem adaptive caching addresses. This example measures, for
 * 128 B and 256 B lines: the average sharer count of LLC-resident
 * lines, and the shared/private/adaptive IPC of a private-friendly
 * workload. It shows the two hooks a scenario cannot express: a
 * generator decorator installed by a SweepPoint setup hook, and a
 * post hook that reads state no emitted column carries (the sharer
 * masks of resident lines).
 *
 * Usage: ablation_linesize [threads=N] [max_cycles=N] [key=value ...]
 */

#include <array>
#include <cstdio>
#include <memory>

#include "common/bitutils.hh"
#include "common/kvargs.hh"
#include "sim/sweep.hh"
#include "workloads/suite.hh"

using namespace amsc;

namespace
{

/**
 * Coarsens a 128 B-granular address stream to wider lines: adjacent
 * granules merge into one line, which is how wider lines acquire more
 * sharers.
 */
class CoarsenedGen : public WarpTraceGen
{
  public:
    CoarsenedGen(std::unique_ptr<WarpTraceGen> inner, unsigned shift)
        : inner_(std::move(inner)), shift_(shift)
    {}

    bool
    nextInstr(WarpInstr &out, Cycle now) override
    {
        if (!inner_->nextInstr(out, now))
            return false;
        for (std::uint32_t i = 0; i < out.numAccesses; ++i)
            out.addrs[i] >>= shift_;
        return true;
    }

  private:
    std::unique_ptr<WarpTraceGen> inner_;
    unsigned shift_;
};

std::vector<KernelInfo>
coarsenedKernels(const WorkloadSpec &spec, std::uint64_t seed,
                 unsigned shift)
{
    std::vector<KernelInfo> kernels =
        WorkloadSuite::buildKernels(spec, seed);
    if (shift == 0)
        return kernels;
    for (KernelInfo &k : kernels) {
        const WarpGenFactory inner = k.makeGen;
        k.makeGen = [inner, shift](CtaId cta, std::uint32_t warp) {
            return std::make_unique<CoarsenedGen>(inner(cta, warp),
                                                  shift);
        };
    }
    return kernels;
}

double
avgSharers(GpuSystem &gpu)
{
    std::uint64_t lines = 0;
    std::uint64_t sharers = 0;
    for (SliceId s = 0; s < gpu.llc().numSlices(); ++s) {
        gpu.llc().slice(s).tags().forEachLine(
            [&](const CacheLine &l) {
                ++lines;
                sharers += popCount(l.accessorMask);
            });
    }
    return lines == 0 ? 0.0
                      : static_cast<double>(sharers) /
            static_cast<double>(lines);
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
    const WorkloadSpec &spec = WorkloadSuite::byName("NN");

    // 2 line sizes x 3 policies; the shared points additionally
    // sample the LLC's resident sharer counts after the run.
    const LlcPolicy policies[] = {LlcPolicy::ForceShared,
                                  LlcPolicy::ForcePrivate,
                                  LlcPolicy::Adaptive};
    std::vector<SweepPoint> points;
    std::array<double, 2> sharer_slots{};
    std::size_t slot = 0;
    for (const std::uint32_t line_bytes : {128u, 256u}) {
        const unsigned shift = line_bytes == 128 ? 0 : 1;
        for (const LlcPolicy policy : policies) {
            SweepPoint p;
            p.cfg = base;
            p.cfg.lineBytes = line_bytes;
            // Keep geometry legal: 48 KB L1 6-way (64/32 sets), 96 KB
            // slice 16-way (48/24 sets), 2 KB rows (16/8 lines).
            p.cfg.llcPolicy = policy;
            const std::uint64_t seed = p.cfg.seed;
            p.setup = [&spec, seed, shift](GpuSystem &gpu) {
                gpu.setWorkload(0,
                                coarsenedKernels(spec, seed, shift));
            };
            if (policy == LlcPolicy::ForceShared) {
                double *out = &sharer_slots[slot++];
                p.post = [out](GpuSystem &gpu, RunResult &) {
                    *out = avgSharers(gpu);
                };
            }
            p.label = spec.abbr + "@" + std::to_string(line_bytes);
            points.push_back(std::move(p));
        }
    }
    const std::vector<RunResult> results = runner.run(points);

    std::printf("# Ablation: cache line size (workload NN)\n\n");
    std::printf("| line size | avg sharers/line | shared IPC | "
                "private/shared | adaptive/shared |\n"
                "|---|---|---|---|---|\n");

    const double sharers128 = sharer_slots[0];
    const double sharers256 = sharer_slots[1];
    std::size_t idx = 0;
    for (const std::uint32_t line_bytes : {128u, 256u}) {
        const double shared_ipc = results[idx].ipc;
        const double rp = results[idx + 1].ipc / shared_ipc;
        const double ra = results[idx + 2].ipc / shared_ipc;
        std::printf("| %u B | %.2f | %.1f | %.2f | %.2f |\n",
                    line_bytes,
                    line_bytes == 128 ? sharers128 : sharers256,
                    shared_ipc, rp, ra);
        idx += 3;
    }
    std::printf("\nSharer increase at 256 B: %+.1f%% (paper: ~+10%%, "
                "\"more sharers per line further exacerbates the LLC "
                "bandwidth problem\")\n",
                (sharers256 / sharers128 - 1.0) * 100.0);
    args.warnUnused();
    return 0;
}
