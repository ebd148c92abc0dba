#include "sim/sweep.hh"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common/error.hh"
#include "common/log.hh"
#include "obs/recorder.hh"
#include "trace/trace_writer.hh"

namespace amsc
{

SweepRunner::SweepRunner(unsigned num_threads)
    : threads_(num_threads == 0 ? defaultThreads() : num_threads)
{
}

unsigned
SweepRunner::defaultThreads()
{
    if (const char *env = std::getenv("AMSC_SWEEP_THREADS")) {
        const long n = std::atol(env);
        if (n > 0)
            return static_cast<unsigned>(n);
        warn("AMSC_SWEEP_THREADS='%s' ignored", env);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

void
SweepRunner::parallelFor(
    std::size_t n, const std::function<void(std::size_t)> &fn) const
{
    if (n == 0)
        return;
    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(threads_, n));
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::exception_ptr first_error;
    std::mutex error_mutex;

    const auto worker = [&]() {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
                // Stop handing out further work.
                next.store(n, std::memory_order_relaxed);
                return;
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

RunResult
SweepRunner::runPoint(const SweepPoint &point)
{
    // trace_record captures the one generated app's warp streams.
    // The writer outlives the GpuSystem, whose destructor flushes
    // every live RecordingGen before the file is sealed.
    std::shared_ptr<TraceWriter> writer;
    if (!point.cfg.traceRecordPath.empty()) {
        if (point.setup || point.apps.size() != 1)
            throw ConfigError(
                point.label + ": trace_record needs a point with "
                "exactly one suite or synthetic app (not replay=, "
                "class= or several apps)");
        writer =
            std::make_shared<TraceWriter>(point.cfg.traceRecordPath);
    }
    RunResult r;
    {
        GpuSystem gpu(point.cfg);
        if (point.setup) {
            point.setup(gpu);
        } else if (writer) {
            gpu.setWorkload(0, WorkloadSuite::buildRecordedKernels(
                                   point.apps[0], point.cfg.seed,
                                   writer));
        } else {
            for (AppId a = 0;
                 a < static_cast<AppId>(point.apps.size()); ++a) {
                gpu.setWorkload(a, WorkloadSuite::buildKernels(
                                       point.apps[a], point.cfg.seed,
                                       a));
            }
        }
        if (point.onBuilt)
            point.onBuilt(gpu);
        // Observability is per point: the recorder exists only when
        // this point's config enables it, and the sinks are
        // pull-only, so results stay bit-identical either way
        // (tests/test_obs.cc).
        const auto recorder = obs::TimelineRecorder::fromConfig(gpu);
        r = gpu.run();
        if (recorder)
            recorder->finish();
        if (point.post)
            point.post(gpu, r);
    }
    if (writer) {
        writer->setRunSummary(summarizeRun(r));
        writer->finalize();
        if (!r.finishedWork)
            warn("%s: recording hit max_cycles; warps mid-stream were "
                 "truncated and a replay will finish early",
                 point.cfg.traceRecordPath.c_str());
    }
    return r;
}

std::vector<RunResult>
SweepRunner::run(const std::vector<SweepPoint> &points,
                 const std::function<void(std::size_t, std::size_t,
                                          std::size_t)> &progress)
    const
{
    return run(points, SweepOptions{}, progress);
}

std::vector<RunResult>
SweepRunner::run(const std::vector<SweepPoint> &points,
                 const SweepOptions &options,
                 const std::function<void(std::size_t, std::size_t,
                                          std::size_t)> &progress)
    const
{
    if (options.skip && options.skip->size() != points.size())
        throw SimError("sweep skip mask size mismatch");
    std::size_t live = points.size();
    if (options.skip) {
        for (const char s : *options.skip)
            live -= (s != 0);
    }
    std::vector<RunResult> results(points.size());
    std::atomic<std::size_t> done{0};
    std::mutex hook_mutex;
    parallelFor(points.size(), [&](std::size_t i) {
        if (options.skip && (*options.skip)[i])
            return;
        std::string error;
        if (points[i].cfg.sweepOnError == SweepOnError::Skip) {
            try {
                results[i] = runPoint(points[i]);
            } catch (const SimError &e) {
                results[i] = RunResult{};
                error = e.what();
            }
        } else {
            results[i] = runPoint(points[i]);
        }
        if (options.onResult || progress) {
            const std::size_t n =
                done.fetch_add(1, std::memory_order_relaxed) + 1;
            std::lock_guard<std::mutex> lock(hook_mutex);
            if (options.onResult)
                options.onResult(i, results[i], error);
            if (progress)
                progress(n, live, i);
        }
    });
    return results;
}

} // namespace amsc
