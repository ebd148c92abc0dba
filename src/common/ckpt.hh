/**
 * @file
 * The byte codec: the one encoder and decoder of every persisted
 * byte -- checkpoints (GpuSystem::checkpoint()/restore() and their
 * frame), the sweep journal, trace files (trace/trace_format.hh) and
 * the RunResult encoding that identicalResults() compares.
 *
 * Little-endian fixed-width scalars, LEB128 varints with zigzag for
 * signed values, doubles as raw IEEE-754 bit patterns (so restored
 * statistics are *bit-identical*, never re-rounded). CkptWriter
 * accumulates bytes in memory; the container layers (sim/checkpoint,
 * sim/journal) frame them with magic, version and a CRC-32
 * (common/crc32.hh). CkptReader walks a byte span and throws
 * FormatError -- carrying the offending byte offset -- on any
 * overrun, bad count or malformed varint, so a truncated or corrupt
 * artifact is never silently half-restored.
 *
 * Free-function overloads of ckptValue() cover integrals, enums,
 * bool, double, strings, pairs, optionals and the standard sequence
 * containers; trivially-copyable structs go through pod()/podVec()
 * verbatim. Components expose save(CkptWriter&)/load(CkptReader&)
 * members built from these primitives.
 */

#ifndef AMSC_COMMON_CKPT_HH
#define AMSC_COMMON_CKPT_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hh"

namespace amsc
{

/** Byte-buffer sink of the checkpoint codec. */
class CkptWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    varint(std::uint64_t v)
    {
        while (v >= 0x80) {
            buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
            v >>= 7;
        }
        buf_.push_back(static_cast<std::uint8_t>(v));
    }

    void
    svarint(std::int64_t v)
    {
        varint((static_cast<std::uint64_t>(v) << 1) ^
               static_cast<std::uint64_t>(v >> 63));
    }

    void
    b(bool v)
    {
        u8(v ? 1 : 0);
    }

    void
    d(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        varint(s.size());
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + n);
    }

    template <typename T>
    void
    pod(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        // A padded struct would serialize indeterminate padding
        // bytes, making two checkpoints of identical machine state
        // compare unequal (the diff-fuzz harness byte-compares
        // checkpoint files across runs). Such types must be encoded
        // field-wise instead.
        static_assert(std::has_unique_object_representations_v<T>,
                      "type has padding or non-canonical "
                      "representations; serialize field-wise");
        bytes(&v, sizeof(T));
    }

    template <typename T>
    void
    podVec(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        static_assert(std::has_unique_object_representations_v<T>,
                      "type has padding or non-canonical "
                      "representations; serialize field-wise");
        varint(v.size());
        if (!v.empty())
            bytes(v.data(), v.size() * sizeof(T));
    }

    /** Pre-size the buffer for @p n bytes (no regrowth copies). */
    void reserve(std::size_t n) { buf_.reserve(n); }

    std::size_t size() const { return buf_.size(); }
    const std::vector<std::uint8_t> &buffer() const { return buf_; }
    std::vector<std::uint8_t> takeBuffer() { return std::move(buf_); }

  private:
    std::vector<std::uint8_t> buf_;
};

/** Bounds-checked reader; throws FormatError on malformed input. */
class CkptReader
{
  public:
    /**
     * Read [@p data, @p data + @p n). @p origin names the source in
     * errors and must outlive the reader; @p base is the file offset
     * of @p data, so error offsets are absolute file offsets when the
     * span is a slice of a file.
     */
    CkptReader(const std::uint8_t *data, std::size_t n,
               std::string_view origin = "<checkpoint>",
               std::uint64_t base = 0)
        : begin_(data), p_(data), end_(data + n), origin_(origin),
          base_(base)
    {}

    /** Absolute offset of the next unread byte. */
    std::uint64_t offset() const
    {
        return base_ + static_cast<std::uint64_t>(p_ - begin_);
    }

    std::size_t remaining() const
    {
        return static_cast<std::size_t>(end_ - p_);
    }

    bool atEnd() const { return p_ == end_; }

    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw FormatError(std::string(origin_), offset(), what);
    }

    std::uint8_t
    u8()
    {
        need(1, "u8");
        return *p_++;
    }

    std::uint32_t
    u32()
    {
        need(4, "u32");
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(*p_++) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8, "u64");
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(*p_++) << (8 * i);
        return v;
    }

    std::uint64_t
    varint()
    {
        std::uint64_t v = 0;
        for (unsigned shift = 0; shift < 70; shift += 7) {
            if (p_ == end_)
                fail("truncated varint");
            const std::uint8_t byte = *p_++;
            if (shift == 63 && byte > 1)
                fail("overlong varint");
            v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if ((byte & 0x80) == 0)
                return v;
        }
        fail("overlong varint");
    }

    std::int64_t
    svarint()
    {
        const std::uint64_t v = varint();
        return static_cast<std::int64_t>(v >> 1) ^
            -static_cast<std::int64_t>(v & 1);
    }

    bool
    b()
    {
        const std::uint8_t v = u8();
        if (v > 1)
            fail("bad bool");
        return v != 0;
    }

    double
    d()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        const std::uint64_t n = varint();
        need(n, "string body");
        std::string s(reinterpret_cast<const char *>(p_),
                      static_cast<std::size_t>(n));
        p_ += n;
        return s;
    }

    /** Mirror of CkptWriter::bytes(): copy the next @p n bytes. */
    void
    bytes(void *dst, std::size_t n)
    {
        need(n, "bytes");
        if (n != 0)
            std::memcpy(dst, p_, n);
        p_ += n;
    }

    template <typename T>
    void
    pod(T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        need(sizeof(T), "pod");
        std::memcpy(&v, p_, sizeof(T));
        p_ += sizeof(T);
    }

    template <typename T>
    void
    podVec(std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const std::uint64_t n = varint();
        need(n * sizeof(T), "pod vector body");
        v.resize(static_cast<std::size_t>(n));
        if (n != 0)
            std::memcpy(v.data(), p_, v.size() * sizeof(T));
        p_ += n * sizeof(T);
    }

  private:
    void
    need(std::uint64_t n, const char *what) const
    {
        if (static_cast<std::uint64_t>(end_ - p_) < n)
            fail(std::string("truncated ") + what);
    }

    const std::uint8_t *begin_;
    const std::uint8_t *p_;
    const std::uint8_t *end_;
    std::string_view origin_;
    std::uint64_t base_;
};

/** @p bytes as characters, for the file writers of common/atomic_io. */
inline std::string_view
charView(const std::vector<std::uint8_t> &bytes)
{
    return {reinterpret_cast<const char *>(bytes.data()), bytes.size()};
}

// ---- generic value codec ---------------------------------------------

inline void ckptValue(CkptWriter &w, bool v) { w.b(v); }
inline void ckptValue(CkptReader &r, bool &v) { v = r.b(); }

inline void ckptValue(CkptWriter &w, double v) { w.d(v); }
inline void ckptValue(CkptReader &r, double &v) { v = r.d(); }

template <typename T,
          std::enable_if_t<std::is_integral_v<T> &&
                               !std::is_same_v<T, bool>,
                           int> = 0>
void
ckptValue(CkptWriter &w, T v)
{
    if constexpr (std::is_signed_v<T>)
        w.svarint(static_cast<std::int64_t>(v));
    else
        w.varint(static_cast<std::uint64_t>(v));
}

template <typename T,
          std::enable_if_t<std::is_integral_v<T> &&
                               !std::is_same_v<T, bool>,
                           int> = 0>
void
ckptValue(CkptReader &r, T &v)
{
    if constexpr (std::is_signed_v<T>)
        v = static_cast<T>(r.svarint());
    else
        v = static_cast<T>(r.varint());
}

template <typename T, std::enable_if_t<std::is_enum_v<T>, int> = 0>
void
ckptValue(CkptWriter &w, T v)
{
    w.varint(static_cast<std::uint64_t>(
        static_cast<std::underlying_type_t<T>>(v)));
}

template <typename T, std::enable_if_t<std::is_enum_v<T>, int> = 0>
void
ckptValue(CkptReader &r, T &v)
{
    v = static_cast<T>(
        static_cast<std::underlying_type_t<T>>(r.varint()));
}

inline void ckptValue(CkptWriter &w, const std::string &v)
{
    w.str(v);
}
inline void ckptValue(CkptReader &r, std::string &v) { v = r.str(); }

template <typename A, typename B>
void
ckptValue(CkptWriter &w, const std::pair<A, B> &v)
{
    ckptValue(w, v.first);
    ckptValue(w, v.second);
}

template <typename A, typename B>
void
ckptValue(CkptReader &r, std::pair<A, B> &v)
{
    ckptValue(r, v.first);
    ckptValue(r, v.second);
}

template <typename T>
void
ckptValue(CkptWriter &w, const std::optional<T> &v)
{
    w.b(v.has_value());
    if (v)
        ckptValue(w, *v);
}

template <typename T>
void
ckptValue(CkptReader &r, std::optional<T> &v)
{
    if (r.b()) {
        T item{};
        ckptValue(r, item);
        v = std::move(item);
    } else {
        v.reset();
    }
}

template <typename T, std::size_t N>
void
ckptValue(CkptWriter &w, const std::array<T, N> &v)
{
    for (const T &item : v)
        ckptValue(w, item);
}

template <typename T, std::size_t N>
void
ckptValue(CkptReader &r, std::array<T, N> &v)
{
    for (T &item : v)
        ckptValue(r, item);
}

template <typename T>
void
ckptValue(CkptWriter &w, const std::vector<T> &v)
{
    w.varint(v.size());
    for (const T &item : v)
        ckptValue(w, item);
}

template <typename T>
void
ckptValue(CkptReader &r, std::vector<T> &v)
{
    const std::uint64_t n = r.varint();
    v.clear();
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        T item{};
        ckptValue(r, item);
        v.push_back(std::move(item));
    }
}

template <typename T>
void
ckptValue(CkptWriter &w, const std::deque<T> &v)
{
    w.varint(v.size());
    for (const T &item : v)
        ckptValue(w, item);
}

template <typename T>
void
ckptValue(CkptReader &r, std::deque<T> &v)
{
    const std::uint64_t n = r.varint();
    v.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        T item{};
        ckptValue(r, item);
        v.push_back(std::move(item));
    }
}

/** Variadic field helper: ckptFields(ar, a, b, c) in both directions. */
template <typename Ar, typename... Ts>
void
ckptFields(Ar &ar, Ts &&...fields)
{
    (ckptValue(ar, std::forward<Ts>(fields)), ...);
}

} // namespace amsc

#endif // AMSC_COMMON_CKPT_HH
