#include "trace/trace_writer.hh"

#include "common/ckpt.hh"
#include "common/error.hh"
#include "common/log.hh"
#include "sim/gpu_system.hh"
#include "trace/trace_format.hh"

namespace amsc
{

TraceRunSummary
summarizeRun(const RunResult &r)
{
    TraceRunSummary s;
    s.valid = true;
    s.cycles = r.cycles;
    s.instructions = r.instructions;
    s.llcAccesses = r.llcAccesses;
    s.dramAccesses = r.dramAccesses;
    s.llcReadMissRate = r.llcReadMissRate;
    s.ipc = r.ipc;
    return s;
}

TraceWriter::TraceWriter(const std::string &path) : path_(path)
{
    out_.open(path, std::ios::binary | std::ios::trunc);
    if (!out_)
        throw IoError(path, "cannot open trace for writing");

    // Header with a zero index offset; patched by finalize(). A
    // reader seeing offset 0 knows the recording was cut short.
    CkptWriter hdr;
    hdr.bytes(kTraceMagic, 8);
    hdr.u32(kTraceVersion);
    hdr.u32(kTraceHeaderBytes);
    hdr.u64(0); // index offset
    hdr.u64(0); // reserved
    writeRaw(hdr.buffer());
}

TraceWriter::~TraceWriter()
{
    if (finalized_)
        return;
    // Reached while a point unwinds (say, a constructor rejected its
    // configuration): a throw here would terminate the process.
    try {
        finalize();
    } catch (const SimError &e) {
        warn("%s", e.what());
    }
}

std::uint32_t
TraceWriter::beginKernel(const std::string &name,
                         std::uint32_t num_ctas,
                         std::uint32_t warps_per_cta)
{
    if (finalized_)
        panic("trace: beginKernel on finalized writer");
    KernelEntry k;
    k.name = name;
    k.numCtas = num_ctas;
    k.warpsPerCta = warps_per_cta;
    kernels_.push_back(std::move(k));
    return static_cast<std::uint32_t>(kernels_.size() - 1);
}

void
TraceWriter::writeWarpBlock(std::uint32_t kernel, CtaId cta,
                            std::uint32_t warp,
                            std::uint64_t num_instrs,
                            const std::vector<std::uint8_t> &payload)
{
    if (finalized_)
        panic("trace: writeWarpBlock on finalized writer");
    if (kernel >= kernels_.size())
        panic("trace: warp block for unregistered kernel %u", kernel);

    // Self-describing block framing ahead of the payload, so a
    // sequential scan can recover streams even without the index.
    CkptWriter frame;
    frame.varint(kernel);
    frame.varint(cta);
    frame.varint(warp);
    frame.varint(num_instrs);
    frame.varint(payload.size());
    writeRaw(frame.buffer());

    WarpEntry e;
    e.cta = cta;
    e.warp = warp;
    e.offset = offset_; // payload position, after the framing
    e.numInstrs = num_instrs;
    e.payloadBytes = payload.size();
    kernels_[kernel].warps.push_back(e);

    writeRaw(payload);
    ++blocks_;
}

void
TraceWriter::setRunSummary(const TraceRunSummary &summary)
{
    summary_ = summary;
}

void
TraceWriter::finalize()
{
    if (finalized_)
        return;
    finalized_ = true;

    const std::uint64_t index_offset = offset_;
    CkptWriter idx;
    idx.varint(kernels_.size());
    for (const KernelEntry &k : kernels_) {
        idx.str(k.name);
        idx.varint(k.numCtas);
        idx.varint(k.warpsPerCta);
        idx.varint(k.warps.size());
        for (const WarpEntry &w : k.warps) {
            idx.varint(w.cta);
            idx.varint(w.warp);
            idx.varint(w.offset);
            idx.varint(w.numInstrs);
            idx.varint(w.payloadBytes);
        }
    }
    idx.b(summary_.valid);
    idx.varint(summary_.cycles);
    idx.varint(summary_.instructions);
    idx.varint(summary_.llcAccesses);
    idx.varint(summary_.dramAccesses);
    idx.d(summary_.llcReadMissRate);
    idx.d(summary_.ipc);
    idx.bytes(kTraceEndMagic, 8);
    writeRaw(idx.buffer());

    // Patch the header's index offset.
    out_.seekp(16);
    CkptWriter patch;
    patch.u64(index_offset);
    out_.write(reinterpret_cast<const char *>(patch.buffer().data()),
               static_cast<std::streamsize>(patch.size()));
    out_.close();
    if (!out_)
        throw IoError(path_, "error finalizing trace");
}

void
TraceWriter::writeRaw(const std::vector<std::uint8_t> &bytes)
{
    out_.write(reinterpret_cast<const char *>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    if (!out_)
        throw IoError(path_, "trace write error");
    offset_ += bytes.size();
}

} // namespace amsc
