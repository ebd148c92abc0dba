#include "trace/trace_reader.hh"

#include <cstring>

#include "common/ckpt.hh"
#include "common/error.hh"
#include "common/log.hh"
#include "trace/trace_format.hh"

namespace amsc
{

std::uint64_t
TraceKernel::totalInstrs() const
{
    std::uint64_t n = 0;
    for (const auto &kv : warps)
        n += kv.second.numInstrs;
    return n;
}

std::uint64_t
TraceKernel::totalPayloadBytes() const
{
    std::uint64_t n = 0;
    for (const auto &kv : warps)
        n += kv.second.payloadBytes;
    return n;
}

TraceReader::TraceReader(const std::string &path) : path_(path)
{
    in_.open(path, std::ios::binary);
    if (!in_)
        throw IoError(path, "cannot open trace");
    in_.seekg(0, std::ios::end);
    fileSize_ = static_cast<std::uint64_t>(in_.tellg());
    if (fileSize_ < kTraceHeaderBytes)
        throw FormatError(path, fileSize_,
                          "shorter than the file header");

    std::uint8_t hdr[kTraceHeaderBytes];
    readAt(0, hdr, sizeof(hdr));
    CkptReader r(hdr, sizeof(hdr), path_);
    char magic[8];
    r.bytes(magic, 8);
    if (std::memcmp(magic, kTraceMagic, 8) != 0)
        throw FormatError(path, 0,
                          "not a warp-trace file (bad magic)");
    version_ = r.u32();
    if (version_ != kTraceVersion)
        throw FormatError(
            path, 8,
            strfmt("unsupported version %u (reader supports %u)",
                   version_, kTraceVersion));
    const std::uint32_t header_bytes = r.u32();
    const std::uint64_t index_offset = r.u64();
    if (header_bytes < kTraceHeaderBytes)
        throw FormatError(path, 12, "malformed header");
    if (index_offset == 0)
        throw FormatError(path, 16,
                          "never finalized (recording interrupted?)");
    if (index_offset + 8 > fileSize_)
        throw FormatError(path, 16,
                          "truncated (index offset beyond EOF)");

    std::vector<std::uint8_t> index(
        static_cast<std::size_t>(fileSize_ - index_offset));
    readAt(index_offset, index.data(), index.size());
    if (index.size() < 8 ||
        std::memcmp(index.data() + index.size() - 8, kTraceEndMagic,
                    8) != 0)
        throw FormatError(path, index_offset,
                          "truncated (index end marker missing)");
    index.resize(index.size() - 8);
    parseIndex(index, index_offset);
}

void
TraceReader::parseIndex(const std::vector<std::uint8_t> &index,
                        std::uint64_t index_offset)
{
    CkptReader r(index.data(), index.size(), path_, index_offset);
    const std::uint64_t num_kernels = r.varint();
    for (std::uint64_t k = 0; k < num_kernels; ++k) {
        TraceKernel kernel;
        kernel.name = r.str();
        kernel.numCtas = static_cast<std::uint32_t>(r.varint());
        kernel.warpsPerCta = static_cast<std::uint32_t>(r.varint());
        const std::uint64_t num_warps = r.varint();
        for (std::uint64_t w = 0; w < num_warps; ++w) {
            const std::uint64_t cta = r.varint();
            const std::uint64_t warp = r.varint();
            TraceWarpBlock block;
            block.offset = r.varint();
            block.numInstrs = r.varint();
            block.payloadBytes = r.varint();
            if (block.offset > fileSize_ ||
                block.payloadBytes > fileSize_ - block.offset)
                r.fail("corrupt index (warp block beyond EOF)");
            kernel.warps[(cta << 32) | warp] = block;
        }
        kernels_.push_back(std::move(kernel));
    }

    summary_.valid = r.u8() != 0;
    summary_.cycles = r.varint();
    summary_.instructions = r.varint();
    summary_.llcAccesses = r.varint();
    summary_.dramAccesses = r.varint();
    summary_.llcReadMissRate = r.d();
    summary_.ipc = r.d();
    if (!r.atEnd())
        r.fail("corrupt index (trailing bytes)");
}

const TraceWarpBlock *
TraceReader::findWarp(std::uint32_t kernel, CtaId cta,
                      std::uint32_t warp) const
{
    if (kernel >= kernels_.size())
        return nullptr;
    const auto &warps = kernels_[kernel].warps;
    const auto it =
        warps.find((static_cast<std::uint64_t>(cta) << 32) | warp);
    return it == warps.end() ? nullptr : &it->second;
}

void
TraceReader::readAt(std::uint64_t offset, std::uint8_t *dst,
                    std::size_t n) const
{
    in_.clear();
    in_.seekg(static_cast<std::streamoff>(offset));
    in_.read(reinterpret_cast<char *>(dst),
             static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(in_.gcount()) != n)
        throw FormatError(path_, offset,
                          "short read (file truncated?)");
}

} // namespace amsc
