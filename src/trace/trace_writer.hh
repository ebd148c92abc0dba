/**
 * @file
 * Buffered streaming writer of binary warp-trace files.
 *
 * Warp payloads arrive in warp-completion order (a RecordingGen
 * flushes its stream when the warp retires) and are appended to the
 * file immediately, so writer memory stays proportional to the index
 * -- a few dozen bytes per warp -- not to the trace. finalize()
 * appends the per-kernel manifest and patches the header's index
 * offset; a file without a finalized index is rejected by TraceReader
 * as truncated.
 *
 * Lifetime idiom: declare the shared writer *before* the GpuSystem
 * that runs the recording factories. The system's destructor flushes
 * every live RecordingGen, after which the writer's destructor (or an
 * explicit finalize()) seals the file.
 */

#ifndef AMSC_TRACE_TRACE_WRITER_HH
#define AMSC_TRACE_TRACE_WRITER_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace amsc
{

/**
 * Whole-run metrics embedded in the trace index, letting `amsc trace
 * info` report the recorded run without re-running the recording.
 */
struct TraceRunSummary
{
    bool valid = false;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t llcAccesses = 0;
    std::uint64_t dramAccesses = 0;
    double llcReadMissRate = 0.0;
    double ipc = 0.0;
};

struct RunResult;

/** Condense a finished run's metrics into an embeddable summary. */
TraceRunSummary summarizeRun(const RunResult &r);

/** Streaming trace-file writer. */
class TraceWriter
{
  public:
    /** Create/truncate @p path; IoError if it cannot be opened. */
    explicit TraceWriter(const std::string &path);

    /**
     * Finalizes the file if finalize() has not been called; a write
     * error there is only warned about (call finalize() to see it).
     */
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /**
     * Register a kernel and return its manifest index. Call once per
     * kernel, before any of its warp blocks are written.
     */
    std::uint32_t beginKernel(const std::string &name,
                              std::uint32_t num_ctas,
                              std::uint32_t warps_per_cta);

    /**
     * Append the finished stream of one warp.
     *
     * @param payload  delta+varint encoded records (encodeInstr()).
     */
    void writeWarpBlock(std::uint32_t kernel, CtaId cta,
                        std::uint32_t warp, std::uint64_t num_instrs,
                        const std::vector<std::uint8_t> &payload);

    /** Attach run metrics; must precede finalize(). */
    void setRunSummary(const TraceRunSummary &summary);

    /** Write the index, patch the header and close the file. */
    void finalize();

    const std::string &path() const { return path_; }
    bool finalized() const { return finalized_; }
    std::uint64_t blocksWritten() const { return blocks_; }

  private:
    struct WarpEntry
    {
        std::uint32_t cta;
        std::uint32_t warp;
        std::uint64_t offset;
        std::uint64_t numInstrs;
        std::uint64_t payloadBytes;
    };

    struct KernelEntry
    {
        std::string name;
        std::uint32_t numCtas;
        std::uint32_t warpsPerCta;
        std::vector<WarpEntry> warps;
    };

    void writeRaw(const std::vector<std::uint8_t> &bytes);

    std::string path_;
    std::ofstream out_;
    std::vector<KernelEntry> kernels_;
    TraceRunSummary summary_{};
    std::uint64_t offset_ = 0; ///< current append position
    std::uint64_t blocks_ = 0;
    bool finalized_ = false;
};

} // namespace amsc

#endif // AMSC_TRACE_TRACE_WRITER_HH
