/**
 * @file
 * Host-time instruments of amsc_bench: in-memory spans around the
 * simulator's public calls, and a SIGPROF leaf-PC sampler that
 * attributes the simulator's own CPU time to its src/<module>/
 * directories. Both observe from outside; nothing in src/ changes.
 */

#ifndef AMSC_BENCHMARK_HOST_PROFILE_HH
#define AMSC_BENCHMARK_HOST_PROFILE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace amsc::bench
{

/** Steady-clock seconds since the first call in this process. */
double nowSeconds();

/**
 * Spans kept in memory and written at exit as chrome-tracing JSON
 * (one B/E track per thread). A span has an id, its parent's id (0
 * for a root) and the sweep point it belongs to (-1 for none). While
 * disabled, begin() returns 0 and end(0) is a no-op.
 */
class SpanRecorder
{
  public:
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Open a span on the calling thread. */
    std::uint32_t begin(const char *name, std::uint32_t parent = 0,
                        std::int64_t point = -1);
    /** Close span @p id (opened on the calling thread). */
    void end(std::uint32_t id);

    std::size_t size() const;

    /** Write every closed span to @p path; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        const char *name = "";
        std::uint32_t parent = 0;
        std::int64_t point = -1;
        unsigned track = 0;
        double t0 = 0.0;
        double t1 = -1.0;
    };

    bool enabled_ = false;
    mutable std::mutex mutex_;
    std::vector<Span> spans_; ///< span id = index + 1
};

/** RAII span: begin on construction, end on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const char *name,
               std::uint32_t parent = 0, std::int64_t point = -1)
        : rec_(rec), id_(rec.begin(name, parent, point))
    {}
    ~ScopedSpan() { rec_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint32_t id() const { return id_; }

  private:
    SpanRecorder &rec_;
    std::uint32_t id_;
};

/**
 * Process-wide SIGPROF sampler. While running it records the
 * interrupted PC of every profiling tick that lands on a thread
 * marked active (setThreadActive), i.e. inside GpuSystem::run.
 */
namespace sampler
{

/** Install the handler and arm ITIMER_PROF every @p interval_us. */
void start(unsigned interval_us);
/** Disarm the timer and restore the previous handler. */
void stop();
/** Mark the calling thread as inside (or outside) the sampled call. */
void setThreadActive(bool active);
/** Recorded PCs (drains the buffer). */
std::vector<std::uintptr_t> take();

} // namespace sampler

/** Sample counts per layer ("noc", "gpu", ..., "ext", "other"). */
using LayerSamples = std::map<std::string, std::uint64_t>;

/**
 * Attribute each PC to the src/<module>/ of its enclosing
 * non-inlined function (batched `addr2line -a -i` over this
 * executable; @p work_dir holds the address list). PCs in shared
 * libraries count as "ext", code outside src/ as "other". Returns
 * false with @p error set when addr2line cannot be run.
 */
bool attributeSamples(const std::vector<std::uintptr_t> &pcs,
                      const std::string &work_dir, LayerSamples &out,
                      std::string &error);

/** The layer names attributeSamples() can produce, report order. */
const std::vector<std::string> &hostLayers();

} // namespace amsc::bench

#endif // AMSC_BENCHMARK_HOST_PROFILE_HH
