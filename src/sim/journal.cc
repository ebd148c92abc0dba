#include "sim/journal.hh"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/atomic_io.hh"
#include "common/crc32.hh"
#include "common/error.hh"
#include "common/strutil.hh"
#include "sim/checkpoint.hh"

namespace amsc
{

namespace
{

constexpr std::size_t kMagicLen = 8;
constexpr std::size_t kFrameHeadLen = 8; // u32 size + u32 crc

/** Wrap @p payload into one [size][crc][payload] frame. */
std::vector<std::uint8_t>
frameBytes(const std::vector<std::uint8_t> &payload)
{
    CkptWriter w;
    w.reserve(kFrameHeadLen + payload.size());
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.u32(crc32(payload.data(), payload.size()));
    w.bytes(payload.data(), payload.size());
    return w.takeBuffer();
}

/**
 * Extract the frame starting at @p off; advances @p off past it.
 * Returns false (leaving @p off untouched) when the remaining bytes
 * are not one intact frame -- a torn or corrupt tail.
 */
bool
nextFrame(const std::string &bytes, std::size_t &off,
          std::vector<std::uint8_t> &payload)
{
    if (bytes.size() - off < kFrameHeadLen)
        return false;
    CkptReader r(reinterpret_cast<const std::uint8_t *>(bytes.data()) +
                     off,
                 bytes.size() - off);
    const std::uint32_t size = r.u32();
    const std::uint32_t crc = r.u32();
    if (r.remaining() < size)
        return false;
    payload.resize(size);
    r.bytes(payload.data(), size);
    if (crc32(payload.data(), size) != crc)
        return false;
    off += kFrameHeadLen + size;
    return true;
}

std::vector<std::uint8_t>
headerPayload(const JournalHeader &h)
{
    CkptWriter w;
    w.bytes(kJournalMagic, kMagicLen);
    w.u32(kJournalVersion);
    w.u64(h.sweepHash);
    w.varint(h.shardIndex);
    w.varint(h.shardCount);
    w.varint(h.totalPoints);
    return w.takeBuffer();
}

JournalHeader
parseHeader(const std::vector<std::uint8_t> &payload,
            const std::string &path)
{
    CkptReader r(payload.data(), payload.size(), path);
    char magic[kMagicLen];
    r.bytes(magic, kMagicLen);
    if (std::memcmp(magic, kJournalMagic, kMagicLen) != 0)
        throw FormatError(path, 0, "bad journal magic");
    const std::uint32_t version = r.u32();
    if (version != kJournalVersion)
        r.fail("unsupported journal version " +
               std::to_string(version));
    JournalHeader h;
    h.sweepHash = r.u64();
    h.shardIndex = static_cast<std::uint32_t>(r.varint());
    h.shardCount = static_cast<std::uint32_t>(r.varint());
    h.totalPoints = r.varint();
    if (!r.atEnd())
        r.fail("trailing bytes after journal header");
    return h;
}

JournalRecord
parseRecord(const std::vector<std::uint8_t> &payload,
            const std::string &path, std::uint64_t total_points)
{
    CkptReader r(payload.data(), payload.size(), path);
    JournalRecord rec;
    rec.pointIndex = r.varint();
    if (rec.pointIndex >= total_points)
        r.fail("journal record index " +
               std::to_string(rec.pointIndex) +
               " out of range (grid has " +
               std::to_string(total_points) + " points)");
    rec.failed = r.b();
    rec.label = r.str();
    rec.error = r.str();
    loadRunResult(r, rec.result);
    if (!r.atEnd())
        r.fail("trailing bytes in journal record");
    return rec;
}

/** Read @p path into @p bytes; false when the file does not exist. */
bool
readFileIfExists(const std::string &path, std::string &bytes)
{
    std::ifstream is(path, std::ios::binary);
    if (!is.is_open())
        return false;
    std::ostringstream ss;
    ss << is.rdbuf();
    if (is.bad())
        throw IoError(path, "read failed", 0);
    bytes = ss.str();
    return true;
}

struct ParsedJournal
{
    std::vector<JournalRecord> records;
    /** Byte length of the intact prefix (header + whole records). */
    std::size_t goodSize = 0;
};

/**
 * Parse and validate a complete journal file. The header must match
 * @p expect exactly; any CRC-valid but semantically malformed frame
 * throws. The first torn frame ends parsing: everything before it is
 * returned, its offset recorded in goodSize.
 */
ParsedJournal
parseJournal(const std::string &bytes, const std::string &path,
             const JournalHeader &expect)
{
    std::size_t off = 0;
    std::vector<std::uint8_t> payload;
    if (!nextFrame(bytes, off, payload))
        throw FormatError(path, 0,
                          "corrupt or foreign journal header");
    const JournalHeader got = parseHeader(payload, path);
    if (!(got == expect)) {
        throw FormatError(
            path, 0,
            strfmt("journal belongs to a different sweep "
                   "(shard %u/%u, %llu points, hash %016llx; "
                   "expected shard %u/%u, %llu points, hash %016llx)",
                   got.shardIndex, got.shardCount,
                   static_cast<unsigned long long>(got.totalPoints),
                   static_cast<unsigned long long>(got.sweepHash),
                   expect.shardIndex, expect.shardCount,
                   static_cast<unsigned long long>(expect.totalPoints),
                   static_cast<unsigned long long>(expect.sweepHash)));
    }
    ParsedJournal out;
    out.goodSize = off;
    while (nextFrame(bytes, off, payload)) {
        out.records.push_back(
            parseRecord(payload, path, expect.totalPoints));
        out.goodSize = off;
    }
    return out;
}

} // namespace

bool
operator==(const JournalHeader &a, const JournalHeader &b)
{
    return a.sweepHash == b.sweepHash &&
        a.shardIndex == b.shardIndex &&
        a.shardCount == b.shardCount &&
        a.totalPoints == b.totalPoints;
}

std::uint64_t
sweepIdentityHash(const std::vector<SweepPoint> &points)
{
    CkptWriter w;
    w.u64(points.size());
    for (const SweepPoint &p : points) {
        w.bytes(p.label.data(), p.label.size());
        w.u8('\n');
        w.u64(configIdentityHash(p.cfg));
        // The identity hash excludes the run-length limits (a
        // checkpoint may legally be resumed with a longer horizon),
        // but a journaled *result* depends on them -- mix them in.
        w.u64(p.cfg.maxCycles);
        w.u64(p.cfg.maxInstructions);
        w.u64(p.apps.size());
        for (const WorkloadSpec &s : p.apps) {
            w.bytes(s.abbr.data(), s.abbr.size());
            w.u8(';');
        }
    }
    return fnv1a(kFnv1aBasis, w.buffer().data(), w.size());
}

std::string
SweepJournal::shardFileName(std::uint32_t shard, std::uint32_t count)
{
    return strfmt("shard-%u-of-%u.jnl", shard, count);
}

SweepJournal::SweepJournal(const std::string &path,
                           const JournalHeader &header)
    : path_(path), header_(header)
{
    std::string bytes;
    if (!readFileIfExists(path_, bytes) || bytes.empty()) {
        writeFileAtomic(path_,
                        charView(frameBytes(headerPayload(header_))));
        return;
    }
    ParsedJournal parsed = parseJournal(bytes, path_, header_);
    records_ = std::move(parsed.records);
    for (const JournalRecord &rec : records_)
        done_.insert(rec.pointIndex);
    // Cut off the torn tail so the next append starts on a frame
    // boundary (a kill mid-append leaves at most one partial frame).
    if (parsed.goodSize < bytes.size())
        std::filesystem::resize_file(path_, parsed.goodSize);
}

void
SweepJournal::append(const JournalRecord &rec)
{
    CkptWriter w;
    w.varint(rec.pointIndex);
    w.b(rec.failed);
    w.str(rec.label);
    w.str(rec.error);
    saveRunResult(w, rec.result);
    appendFileDurable(path_, charView(frameBytes(w.buffer())));
    done_.insert(rec.pointIndex);
    records_.push_back(rec);
}

std::vector<JournalRecord>
SweepJournal::readAll(const std::string &path,
                      const JournalHeader &expect)
{
    std::string bytes;
    if (!readFileIfExists(path, bytes))
        throw IoError(path, "journal does not exist", 0);
    return parseJournal(bytes, path, expect).records;
}

} // namespace amsc
