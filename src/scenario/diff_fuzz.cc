#include "scenario/diff_fuzz.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>

#include "common/error.hh"
#include "common/strutil.hh"
#include "scenario/emit.hh"
#include "scenario/scenario.hh"
#include "sim/sweep.hh"

namespace amsc::scenario
{

namespace
{

/**
 * splitmix64: tiny, deterministic and platform-independent, so a
 * (seed, index) pair names the same case on every machine. The
 * standard <random> distributions are explicitly not
 * implementation-defined-free; none of them are used here.
 */
struct Rng
{
    std::uint64_t s;

    std::uint64_t
    next()
    {
        s += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = s;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform integer in [lo, hi]. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + next() % (hi - lo + 1);
    }

    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    bool chance(double p) { return unit() < p; }

    template <typename T>
    T
    pick(std::initializer_list<T> options)
    {
        return options.begin()[next() % options.size()];
    }
};

/** One `key = value` line at block indentation. */
void
kvLine(std::ostringstream &os, const char *key, const std::string &value)
{
    os << "  " << key << " = " << value << "\n";
}

void
kvLine(std::ostringstream &os, const char *key, std::uint64_t value)
{
    kvLine(os, key, std::to_string(value));
}

void
kvLine(std::ostringstream &os, const char *key, double value)
{
    kvLine(os, key, strfmt("%g", value));
}

/** Emit one randomized synthetic app block. */
void
emitApp(std::ostringstream &os, Rng &rng, std::uint32_t app_index,
        bool multi_app)
{
    const char *pattern =
        rng.pick({"stream", "zipf", "tiled", "broadcast"});
    os << "app {\n";
    kvLine(os, "pattern", std::string(pattern));
    kvLine(os, "name",
           strfmt("F%c", static_cast<char>('A' + app_index)));
    kvLine(os, "ctas", rng.range(1, 12));
    kvLine(os, "warps", rng.pick<std::uint64_t>({1, 2, 4}));
    kvLine(os, "mem_instrs", rng.range(40, 300));
    kvLine(os, "compute_per_mem", rng.pick<std::uint64_t>({0, 1, 4}));
    kvLine(os, "write_fraction", rng.pick({0.0, 0.05, 0.3}));
    if (rng.chance(0.15))
        kvLine(os, "atomic_fraction", 0.02);
    kvLine(os, "accesses_per_instr", rng.pick<std::uint64_t>({1, 2}));
    if (std::string(pattern) == "stream") {
        kvLine(os, "private_lines",
               rng.pick<std::uint64_t>({64, 512, 4096}));
    } else {
        kvLine(os, "shared_lines",
               rng.pick<std::uint64_t>({2048, 8192}));
        kvLine(os, "shared_fraction", rng.pick({0.5, 0.8}));
    }
    if (std::string(pattern) == "zipf") {
        kvLine(os, "zipf_alpha", rng.pick({0.5, 0.9}));
        kvLine(os, "broadcast_mix", rng.pick({0.0, 0.2}));
    }
    if (std::string(pattern) == "tiled") {
        kvLine(os, "tile_lines", rng.pick<std::uint64_t>({64, 192}));
        kvLine(os, "ctas_per_tile", rng.pick<std::uint64_t>({2, 4}));
    }
    if (std::string(pattern) == "broadcast") {
        kvLine(os, "hot_lines", rng.pick<std::uint64_t>({256, 1024}));
        kvLine(os, "broadcast_window",
               rng.pick<std::uint64_t>({8, 16}));
    }
    // The adaptive controller drives a single application; multi-
    // program runs use forced per-app modes (paper Fig 9/15).
    if (multi_app && rng.chance(0.5))
        kvLine(os, "policy",
               std::string(rng.pick({"shared", "private"})));
    os << "}\n";
}

} // namespace

FuzzCase
makeFuzzCase(std::uint64_t seed, std::uint32_t index)
{
    // Two mixing rounds separate campaign seed and case index.
    Rng rng{seed * 0x9e3779b97f4a7c15ull + index};
    rng.next();
    rng.next();

    const bool multi_app = rng.chance(0.25);
    // Serving stratum, stratified like the NoC axis below: every
    // third case drives app 0 with the open-loop llm_inference
    // request driver instead of a static synthetic app, so any
    // fixed-seed campaign of >= 3 points provably covers the
    // runtime-appended-work paths (queue wake-ups, event-core arrival
    // jumps, mid-queue checkpoints) under both cycle cores.
    const bool serving = index % 3 == 2;
    // The NoC-topology axis is stratified by case index, not sampled:
    // any campaign of >= 4 points provably covers all four topologies
    // (and every flit-level router/channel/port event path),
    // so no fixed seed can silently under-test a NoC.
    static const char *const kNocs[] = {"ideal", "full", "cxbar",
                                        "hxbar"};
    const std::string noc = kNocs[index % 4];
    const std::uint64_t clusters =
        multi_app ? rng.pick<std::uint64_t>({2, 4})
                  : rng.pick<std::uint64_t>({1, 2, 4});
    // Multi-program partitioning splits each cluster between the
    // apps, so a 2-app case needs >= 2 SMs per cluster.
    const std::uint64_t sms_per_cluster =
        multi_app ? rng.pick<std::uint64_t>({2, 4})
                  : rng.pick<std::uint64_t>({1, 2, 4});

    std::ostringstream os;
    os << strfmt("name = fuzz-%llu-%u\n",
                 static_cast<unsigned long long>(seed), index);
    os << "description = \"differential sim_mode case "
          "(scenario/diff_fuzz.cc)\"\n";
    os << "config {\n";
    kvLine(os, "noc", noc);
    kvLine(os, "num_clusters", clusters);
    kvLine(os, "num_sms", clusters * sms_per_cluster);
    kvLine(os, "num_mcs", rng.pick<std::uint64_t>({1, 2, 4}));
    // The H-Xbar co-design requires slices_per_mc == num_clusters.
    kvLine(os, "slices_per_mc",
           noc == "hxbar" ? clusters
                          : rng.pick<std::uint64_t>({1, 2, 4}));
    kvLine(os, "l1_kb", rng.pick<std::uint64_t>({12, 24, 48}));
    kvLine(os, "l1_latency", rng.pick<std::uint64_t>({4, 12, 28}));
    kvLine(os, "l1_mshrs", rng.pick<std::uint64_t>({4, 8, 32}));
    kvLine(os, "llc_slice_kb", rng.pick<std::uint64_t>({16, 32, 96}));
    kvLine(os, "llc_hit_latency", rng.pick<std::uint64_t>({10, 30}));
    kvLine(os, "llc_miss_latency", rng.pick<std::uint64_t>({4, 10}));
    kvLine(os, "llc_mshrs", rng.pick<std::uint64_t>({16, 64}));
    kvLine(os, "llc_repl",
           std::string(rng.pick({"lru", "fifo", "random", "srrip",
                                 "brrip", "drrip"})));
    if (rng.chance(0.25))
        kvLine(os, "llc_bypass", std::string("stream"));
    const std::string policy = multi_app
        ? rng.pick<const char *>({"shared", "private"})
        : rng.pick<const char *>({"shared", "private", "adaptive"});
    kvLine(os, "llc_policy", policy);
    if (policy == "adaptive" || multi_app) {
        kvLine(os, "profile_len",
               rng.pick<std::uint64_t>({400, 1000, 2500}));
        kvLine(os, "epoch_len",
               rng.pick<std::uint64_t>({3000, 8000, 20000}));
        kvLine(os, "gate_delay", rng.pick<std::uint64_t>({10, 30}));
    }
    if (rng.chance(0.15))
        kvLine(os, "track_sharing", std::string("true"));
    kvLine(os, "channel_width", rng.pick<std::uint64_t>({16, 32}));
    kvLine(os, "router_latency", rng.pick<std::uint64_t>({1, 3}));
    if (noc == "cxbar")
        kvLine(os, "concentration", rng.pick<std::uint64_t>({1, 2, 4}));
    kvLine(os, "ideal_noc_latency",
           rng.pick<std::uint64_t>({5, 10, 40}));
    kvLine(os, "mem_backend",
           std::string(rng.pick({"gddr5", "hbm2", "scm"})));
    kvLine(os, "mem_sched",
           std::string(rng.pick({"fr_fcfs", "fcfs", "write_drain"})));
    kvLine(os, "banks_per_mc", rng.pick<std::uint64_t>({8, 16}));
    kvLine(os, "dram_queue_cap", rng.pick<std::uint64_t>({8, 64}));
    kvLine(os, "mapping", std::string(rng.pick({"pae", "hynix"})));
    kvLine(os, "cta_policy",
           std::string(rng.pick({"rr", "bcs", "dcs"})));
    kvLine(os, "max_cycles", rng.range(6000, 24000));
    kvLine(os, "seed", rng.range(1, 1000000));
    if (rng.chance(0.3))
        kvLine(os, "max_instructions", rng.range(2000, 20000));
    if (rng.chance(0.2))
        kvLine(os, "timeline", std::string("true"));
    kvLine(os, "stats_stream_period",
           rng.pick<std::uint64_t>({256, 1024, 4096, 10000}));
    if (serving) {
        kvLine(os, "serving_rate", rng.pick({1.0, 4.0, 12.0}));
        kvLine(os, "serving_tenants",
               rng.pick<std::uint64_t>({1, 2, 8}));
        kvLine(os, "serving_zipf_alpha", rng.pick({0.0, 0.8}));
        kvLine(os, "serving_batch", rng.pick<std::uint64_t>({1, 2, 8}));
        kvLine(os, "serving_requests", rng.range(4, 24));
        kvLine(os, "serving_ctx", rng.pick<std::uint64_t>({32, 128}));
        kvLine(os, "serving_decode", rng.pick<std::uint64_t>({4, 16}));
        kvLine(os, "llm_d_model", rng.pick<std::uint64_t>({256, 512}));
        kvLine(os, "llm_layers", rng.pick<std::uint64_t>({2, 4}));
    }
    if (rng.chance(0.2)) {
        kvLine(os, "checkpoint_every",
               rng.pick<std::uint64_t>({1024, 2048, 4096}));
        // Placeholder; runFuzzCase() rewrites it to a per-mode
        // temporary file and byte-compares the two.
        kvLine(os, "checkpoint_path", std::string("fuzz_ckpt.bin"));
    }
    os << "}\n";

    if (serving) {
        os << "app {\n";
        kvLine(os, "class", std::string("llm_inference"));
        if (multi_app && rng.chance(0.5))
            kvLine(os, "policy",
                   std::string(rng.pick({"shared", "private"})));
        os << "}\n";
    } else {
        emitApp(os, rng, 0, multi_app);
    }
    if (multi_app)
        emitApp(os, rng, 1, multi_app);

    os << "sweep {\n  sim_mode = tick, event\n}\n";

    FuzzCase c;
    c.seed = seed;
    c.index = index;
    c.scn = os.str();
    return c;
}

namespace
{

/** (cycle, instruction-count) samples of one run's observer. */
using ObsSamples =
    std::vector<std::pair<Cycle, std::uint64_t>>;

/** Read a whole file; empty optional-style flag via @p ok. */
std::string
slurp(const std::string &path, bool &ok)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        ok = false;
        return {};
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    ok = true;
    return ss.str();
}

} // namespace

FuzzOutcome
runFuzzCase(const FuzzCase &c)
{
    FuzzOutcome out;
    const std::string origin =
        strfmt("fuzz-%llu-%u",
               static_cast<unsigned long long>(c.seed), c.index);
    std::vector<std::string> ckpt_paths;
    try {
        Scenario scn = Scenario::fromKv(
            Scenario::parseScnText(c.scn, origin), origin);
        std::vector<ExpandedPoint> expanded = scn.expand();
        if (expanded.size() != 2) {
            out.ok = false;
            out.detail = strfmt("expected 2 points, got %zu",
                                expanded.size());
            return out;
        }

        RunResult results[2];
        ObsSamples samples[2];
        std::string ckpt_bytes[2];
        for (int m = 0; m < 2; ++m) {
            SweepPoint &p = expanded[m].point;
            if (p.cfg.checkpointEvery != 0) {
                const std::string path =
                    (std::filesystem::temp_directory_path() /
                     strfmt("amsc_%s_%s.ckpt", origin.c_str(),
                            m == 0 ? "tick" : "event"))
                        .string();
                p.cfg.checkpointPath = path;
                ckpt_paths.push_back(path);
            }
            // The run's own sampling observer: with timeline off the
            // observer slot is free, and the sample stream (cycles
            // and the instruction counter at each) must land on
            // exactly the same cycles under both drivers. Pull-only,
            // so the amsc-run reproduction without it is unaffected.
            ObsSamples *sink = &samples[m];
            if (!p.cfg.timeline && p.cfg.timelineOut.empty()) {
                const Cycle period = p.cfg.statsStreamPeriod;
                p.onBuilt = [sink, period](GpuSystem &sys) {
                    sys.setCycleObserver(
                        period, [sink, &sys](Cycle now) {
                            sink->emplace_back(
                                now, sys.totalInstructions());
                        });
                };
            }
            results[m] = SweepRunner::runPoint(p);
            if (p.cfg.checkpointEvery != 0) {
                bool ok = false;
                ckpt_bytes[m] = slurp(p.cfg.checkpointPath, ok);
                // A run can legitimately finish before the first
                // checkpoint grid cycle; both modes must then agree
                // that no file was written, so the placeholder must
                // not embed the (mode-specific) path.
                if (!ok)
                    ckpt_bytes[m] = "<no checkpoint written>";
            }
        }
        out.tickCycles = results[0].cycles;

        if (!identicalResults(results[0], results[1])) {
            out.ok = false;
            out.detail = "RunResult differs between tick and event";
        } else if ([&] {
                       const EmitPoint ep{"case", {}};
                       return emitCsv({ep}, {results[0]}) !=
                           emitCsv({ep}, {results[1]});
                   }()) {
            out.ok = false;
            out.detail = "emitted CSV bytes differ";
        } else if (samples[0] != samples[1]) {
            out.ok = false;
            out.detail = strfmt(
                "observer samples differ (%zu vs %zu samples)",
                samples[0].size(), samples[1].size());
        } else if (ckpt_bytes[0] != ckpt_bytes[1]) {
            out.ok = false;
            out.detail = "periodic checkpoint file bytes differ";
        }
    } catch (const SimError &e) {
        out.ok = false;
        out.detail = strfmt("error: %s", e.what());
    }
    for (const std::string &path : ckpt_paths) {
        std::error_code ec;
        std::filesystem::remove(path, ec);
    }
    return out;
}

FuzzReport
runDiffFuzz(std::uint64_t seed, std::uint32_t points, unsigned threads,
            const std::function<void(const FuzzCase &,
                                     const FuzzOutcome &)> &onCase)
{
    std::vector<FuzzCase> cases(points);
    std::vector<FuzzOutcome> outcomes(points);
    const SweepRunner runner(threads);
    runner.parallelFor(points, [&](std::size_t i) {
        cases[i] = makeFuzzCase(seed, static_cast<std::uint32_t>(i));
        outcomes[i] = runFuzzCase(cases[i]);
    });

    FuzzReport report;
    report.points = points;
    for (std::uint32_t i = 0; i < points; ++i) {
        if (!outcomes[i].ok) {
            ++report.failures;
            report.failing.push_back(cases[i]);
        }
        if (onCase)
            onCase(cases[i], outcomes[i]);
    }
    return report;
}

} // namespace amsc::scenario
