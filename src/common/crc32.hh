/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) and 64-bit
 * FNV-1a.
 *
 * The CRC is the shared integrity check of the checkpoint container
 * (sim/checkpoint) and the sweep journal's record framing
 * (sim/journal): both append a CRC of the payload so a torn or
 * bit-flipped artifact is detected instead of parsed as valid.
 * FNV-1a digests identities: the checkpoint's configuration hash and
 * the journal's sweep hash.
 */

#ifndef AMSC_COMMON_CRC32_HH
#define AMSC_COMMON_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace amsc
{

namespace detail
{

struct Crc32Table
{
    std::uint32_t t[256];

    constexpr Crc32Table() : t{}
    {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
    }
};

inline constexpr Crc32Table kCrc32Table{};

} // namespace detail

/** Extend a running CRC-32 over @p len bytes (seed with 0). */
inline std::uint32_t
crc32Update(std::uint32_t crc, const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    crc = ~crc;
    for (std::size_t i = 0; i < len; ++i)
        crc = detail::kCrc32Table.t[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
    return ~crc;
}

/** One-shot CRC-32 of a buffer. */
inline std::uint32_t
crc32(const void *data, std::size_t len)
{
    return crc32Update(0, data, len);
}

/** FNV-1a offset basis: the seed of a fresh fnv1a() digest. */
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ull;

/** Extend a running 64-bit FNV-1a digest over @p len bytes. */
inline std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace amsc

#endif // AMSC_COMMON_CRC32_HH
