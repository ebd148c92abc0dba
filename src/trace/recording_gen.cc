#include "trace/recording_gen.hh"

#include "common/log.hh"
#include "trace/trace_format.hh"

namespace amsc
{

RecordingGen::RecordingGen(std::unique_ptr<WarpTraceGen> inner,
                           std::shared_ptr<TraceWriter> writer,
                           std::uint32_t kernel, CtaId cta,
                           std::uint32_t warp)
    : inner_(std::move(inner)), writer_(std::move(writer)),
      kernel_(kernel), cta_(cta), warp_(warp)
{
    if (!inner_)
        panic("RecordingGen: null inner generator");
}

RecordingGen::~RecordingGen()
{
    // Kernel boundaries and cycle horizons destroy warp generators
    // mid-stream; capture whatever the run actually consumed.
    flush();
}

bool
RecordingGen::nextInstr(WarpInstr &out, Cycle now)
{
    if (!inner_->nextInstr(out, now)) {
        flush();
        return false;
    }
    encodeInstr(buf_, out, prev_);
    ++numInstrs_;
    return true;
}

void
RecordingGen::flush()
{
    if (flushed_)
        return;
    flushed_ = true;
    writer_->writeWarpBlock(kernel_, cta_, warp_, numInstrs_,
                            buf_.buffer());
    buf_ = CkptWriter(); // release the stream's bytes
}

KernelInfo
wrapKernelForRecording(const KernelInfo &kernel,
                       const std::shared_ptr<TraceWriter> &writer)
{
    KernelInfo wrapped = kernel;
    const std::uint32_t index = writer->beginKernel(
        kernel.name, kernel.numCtas, kernel.warpsPerCta);
    const WarpGenFactory inner = kernel.makeGen;
    wrapped.makeGen = [inner, writer, index](CtaId cta,
                                             std::uint32_t warp) {
        return std::make_unique<RecordingGen>(inner(cta, warp),
                                              writer, index, cta,
                                              warp);
    };
    return wrapped;
}

std::vector<KernelInfo>
wrapKernelsForRecording(const std::vector<KernelInfo> &kernels,
                        const std::shared_ptr<TraceWriter> &writer)
{
    std::vector<KernelInfo> out;
    out.reserve(kernels.size());
    for (const KernelInfo &k : kernels)
        out.push_back(wrapKernelForRecording(k, writer));
    return out;
}

} // namespace amsc
