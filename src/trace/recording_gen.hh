/**
 * @file
 * Transparent capture of warp instruction streams.
 *
 * RecordingGen decorates any WarpTraceGen: every batch the inner
 * generator produces is forwarded unchanged to the SM and
 * delta+varint encoded into a per-warp buffer. When the stream ends
 * (or the generator is destroyed at a kernel boundary / cycle
 * horizon), the buffer is flushed to the shared TraceWriter as one
 * warp block. Recording therefore perturbs the simulated run in no
 * way: the recorded trace is exactly the stream the run consumed.
 *
 * wrapKernelsForRecording() lifts this to whole workloads, so any
 * existing kernel factory -- synthetic or otherwise -- can be
 * captured without modification.
 */

#ifndef AMSC_TRACE_RECORDING_GEN_HH
#define AMSC_TRACE_RECORDING_GEN_HH

#include <memory>
#include <vector>

#include "gpu/trace.hh"
#include "trace/trace_writer.hh"

namespace amsc
{

/** Decorator capturing one warp's stream into a TraceWriter. */
class RecordingGen : public WarpTraceGen
{
  public:
    RecordingGen(std::unique_ptr<WarpTraceGen> inner,
                 std::shared_ptr<TraceWriter> writer,
                 std::uint32_t kernel, CtaId cta, std::uint32_t warp);

    /** Flushes the (possibly partial) stream if still pending. */
    ~RecordingGen() override;

    bool nextInstr(WarpInstr &out, Cycle now) override;

  private:
    void flush();

    std::unique_ptr<WarpTraceGen> inner_;
    std::shared_ptr<TraceWriter> writer_;
    std::uint32_t kernel_;
    CtaId cta_;
    std::uint32_t warp_;
    CkptWriter buf_; ///< the stream's encoded records
    Addr prev_ = 0;
    std::uint64_t numInstrs_ = 0;
    bool flushed_ = false;
};

/**
 * Wrap one kernel so every warp stream it creates is recorded.
 * Registers the kernel in @p writer's manifest immediately.
 */
KernelInfo wrapKernelForRecording(
    const KernelInfo &kernel,
    const std::shared_ptr<TraceWriter> &writer);

/** Wrap a whole kernel sequence (see wrapKernelForRecording). */
std::vector<KernelInfo> wrapKernelsForRecording(
    const std::vector<KernelInfo> &kernels,
    const std::shared_ptr<TraceWriter> &writer);

} // namespace amsc

#endif // AMSC_TRACE_RECORDING_GEN_HH
