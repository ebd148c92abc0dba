#include "trace/replay_gen.hh"

#include <algorithm>
#include <cstring>

#include "trace/trace_format.hh"

namespace amsc
{

namespace
{

/** Per-warp streaming buffer size; >> kMaxEncodedInstrBytes. */
constexpr std::size_t kReplayChunkBytes = 4096;

} // namespace

ReplayGen::ReplayGen(std::shared_ptr<const TraceReader> reader,
                     std::uint32_t kernel, CtaId cta,
                     std::uint32_t warp)
    : reader_(std::move(reader))
{
    const TraceWarpBlock *block =
        reader_->findWarp(kernel, cta, warp);
    if (block == nullptr)
        return; // empty stream
    instrsLeft_ = block->numInstrs;
    fileOffset_ = block->offset;
    fileBytesLeft_ = block->payloadBytes;
}

void
ReplayGen::refill()
{
    if (buf_.empty())
        buf_.resize(kReplayChunkBytes);
    // Keep any undecoded tail, then top the buffer up from disk.
    const std::size_t tail = avail_ - pos_;
    std::memmove(buf_.data(), buf_.data() + pos_, tail);
    pos_ = 0;
    avail_ = tail;
    const std::size_t want = std::min<std::uint64_t>(
        buf_.size() - avail_, fileBytesLeft_);
    if (want > 0) {
        reader_->readAt(fileOffset_, buf_.data() + avail_, want);
        fileOffset_ += want;
        fileBytesLeft_ -= want;
        avail_ += want;
    }
}

bool
ReplayGen::nextInstr(WarpInstr &out, Cycle)
{
    if (instrsLeft_ == 0)
        return false;
    if (avail_ - pos_ < kMaxEncodedInstrBytes && fileBytesLeft_ > 0)
        refill();

    // The buffered bytes end at file offset fileOffset_, so errors
    // carry absolute file offsets.
    CkptReader r(buf_.data() + pos_, avail_ - pos_, reader_->path(),
                 fileOffset_ - (avail_ - pos_));
    decodeInstr(r, out, prev_);
    pos_ = avail_ - r.remaining();
    --instrsLeft_;
    return true;
}

std::vector<KernelInfo>
makeReplayKernels(const std::shared_ptr<const TraceReader> &reader)
{
    std::vector<KernelInfo> out;
    const auto &kernels = reader->kernels();
    out.reserve(kernels.size());
    for (std::uint32_t k = 0;
         k < static_cast<std::uint32_t>(kernels.size()); ++k) {
        KernelInfo info;
        info.name = kernels[k].name;
        info.numCtas = kernels[k].numCtas;
        info.warpsPerCta = kernels[k].warpsPerCta;
        info.makeGen = [reader, k](CtaId cta, std::uint32_t warp) {
            return std::make_unique<ReplayGen>(reader, k, cta, warp);
        };
        out.push_back(std::move(info));
    }
    return out;
}

} // namespace amsc
