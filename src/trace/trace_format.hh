/**
 * @file
 * Binary warp-trace file format: constants and record codec.
 *
 * A trace file persists the exact WarpInstr streams a workload fed to
 * the simulator, so runs can be exchanged, diffed and replayed
 * bit-for-bit. The layout (see docs/trace_format.md) is:
 *
 *   [header]        32 bytes: magic, version, header size, index offset
 *   [warp blocks]   one per finished warp stream, in completion order
 *   [index]         per-kernel manifest + per-warp block directory
 *   [end magic]     8 bytes guarding index truncation
 *
 * Warp payloads are delta+varint compressed: each record stores the
 * instruction flags, the compute-cycle count as a varint, and every
 * line address as a zigzag varint delta against the previous address
 * of the same warp stream. Synthetic streams walk regions with small
 * strides, so records average a few bytes instead of the 77 bytes of
 * the raw struct.
 *
 * Every field goes through the byte codec (common/ckpt.hh):
 * fixed-width fields are little-endian, varints are endianness free.
 * Version bumps (kTraceVersion) are required for any layout change;
 * readers reject files whose major version they do not know.
 */

#ifndef AMSC_TRACE_TRACE_FORMAT_HH
#define AMSC_TRACE_TRACE_FORMAT_HH

#include <cstdint>
#include <limits>

#include "common/ckpt.hh"
#include "common/types.hh"
#include "gpu/trace.hh"

namespace amsc
{

/** Leading file magic ("AMSCTRC1"). */
inline constexpr char kTraceMagic[8] = {'A', 'M', 'S', 'C',
                                        'T', 'R', 'C', '1'};

/** Trailing index magic ("AMSCEND1"). */
inline constexpr char kTraceEndMagic[8] = {'A', 'M', 'S', 'C',
                                           'E', 'N', 'D', '1'};

/** Current format version. */
inline constexpr std::uint32_t kTraceVersion = 1;

/** Fixed header size in bytes. */
inline constexpr std::uint32_t kTraceHeaderBytes = 32;

/**
 * Upper bound of one encoded instruction record: flags byte, compute
 * varint (<= 5 bytes for 32 bits), and kMaxAccessesPerInstr zigzag
 * deltas of <= 10 bytes each. Readers keep this many bytes buffered
 * so a record never straddles a refill boundary.
 */
inline constexpr std::size_t kMaxEncodedInstrBytes =
    1 + 5 + kMaxAccessesPerInstr * 10;

// ---- instruction record codec ----------------------------------------

/** Flags-byte layout of an encoded instruction record. */
inline constexpr std::uint8_t kInstrAccessMask = 0x0f;
inline constexpr std::uint8_t kInstrWriteBit = 0x10;
inline constexpr std::uint8_t kInstrAtomicBit = 0x20;

/**
 * Append one WarpInstr to @p w.
 *
 * @param prev  running previous-address state of the warp stream;
 *              updated to the record's last address.
 */
inline void
encodeInstr(CkptWriter &w, const WarpInstr &wi, Addr &prev)
{
    std::uint8_t flags =
        static_cast<std::uint8_t>(wi.numAccesses & kInstrAccessMask);
    if (wi.isWrite)
        flags |= kInstrWriteBit;
    if (wi.isAtomic)
        flags |= kInstrAtomicBit;
    w.u8(flags);
    w.varint(wi.computeCycles);
    for (std::uint32_t i = 0; i < wi.numAccesses; ++i) {
        w.svarint(static_cast<std::int64_t>(wi.addrs[i] - prev));
        prev = wi.addrs[i];
    }
}

/**
 * Decode one WarpInstr from @p r; throws FormatError on a malformed
 * or truncated record (bad access count, varint overrun).
 */
inline void
decodeInstr(CkptReader &r, WarpInstr &wi, Addr &prev)
{
    const std::uint8_t flags = r.u8();
    const std::uint32_t num_accesses = flags & kInstrAccessMask;
    if (num_accesses > kMaxAccessesPerInstr)
        r.fail("corrupt warp payload (bad access count)");
    wi = WarpInstr{};
    wi.numAccesses = num_accesses;
    wi.isWrite = (flags & kInstrWriteBit) != 0;
    wi.isAtomic = (flags & kInstrAtomicBit) != 0;
    const std::uint64_t compute = r.varint();
    if (compute > std::numeric_limits<std::uint32_t>::max())
        r.fail("corrupt warp payload (compute count overflows)");
    wi.computeCycles = static_cast<std::uint32_t>(compute);
    for (std::uint32_t i = 0; i < num_accesses; ++i) {
        // Unsigned (wrapping) add: a corrupt delta cannot overflow.
        prev += static_cast<Addr>(r.svarint());
        wi.addrs[i] = prev;
    }
}

} // namespace amsc

#endif // AMSC_TRACE_TRACE_FORMAT_HH
