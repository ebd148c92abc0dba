#include "sim/checkpoint.hh"

#include <cstring>
#include <istream>

#include "common/ckpt.hh"
#include "common/crc32.hh"
#include "common/error.hh"
#include "sim/sim_config.hh"

namespace amsc
{

namespace
{

/** Keys that cannot change the simulated state trajectory. */
bool
identityExcluded(const std::string &name)
{
    return name == "max_cycles" || name == "max_instructions" ||
        name == "checkpoint_every" || name == "checkpoint_path" ||
        name == "sweep_on_error" || name == "timeline" ||
        name == "timeline_out" || name == "stats_stream_out" ||
        name == "stats_stream_period" || name == "trace_record" ||
        // The two cycle-core drivers are bit-identical by contract
        // (tests/test_event_core.cc): a checkpoint written under
        // sim_mode=tick restores under sim_mode=event and vice
        // versa.
        name == "sim_mode";
}

constexpr std::size_t kMagicLen = 8;
constexpr std::size_t kHeaderLen = kMagicLen + 4 + 8 + 8;

} // namespace

std::uint64_t
configIdentityHash(const SimConfig &cfg)
{
    std::uint64_t h = kFnv1aBasis;
    const auto mix = [&h](const std::string &s) {
        h = fnv1a(h, s.data(), s.size());
    };
    for (const ConfigKeyInfo &k : ConfigRegistry::keys()) {
        if (identityExcluded(k.name))
            continue;
        mix(k.name);
        mix("=");
        mix(k.get(cfg));
        mix("\n");
    }
    return h;
}

std::vector<std::uint8_t>
frameCheckpoint(const SimConfig &cfg,
                const std::vector<std::uint8_t> &payload)
{
    CkptWriter w;
    w.reserve(kHeaderLen + payload.size() + 4);
    w.bytes(kCkptMagic, kMagicLen);
    w.u32(kCkptVersion);
    w.u64(configIdentityHash(cfg));
    w.u64(payload.size());
    w.bytes(payload.data(), payload.size());
    w.u32(crc32(payload.data(), payload.size()));
    return w.takeBuffer();
}

std::vector<std::uint8_t>
unframeCheckpoint(const std::string &bytes, const SimConfig &cfg,
                  const std::string &origin)
{
    if (bytes.size() < kHeaderLen)
        throw FormatError(origin, bytes.size(),
                          "truncated checkpoint header");
    CkptReader r(reinterpret_cast<const std::uint8_t *>(bytes.data()),
                 bytes.size(), origin);
    char magic[kMagicLen];
    r.bytes(magic, kMagicLen);
    if (std::memcmp(magic, kCkptMagic, kMagicLen) != 0)
        throw FormatError(origin, 0, "bad checkpoint magic");
    const std::uint32_t version = r.u32();
    if (version != kCkptVersion)
        throw FormatError(origin, kMagicLen,
                          "unsupported checkpoint version " +
                              std::to_string(version));
    if (r.u64() != configIdentityHash(cfg))
        throw FormatError(
            origin, kMagicLen + 4,
            "checkpoint was taken under a different configuration");
    const std::uint64_t size = r.u64();
    if (r.remaining() < 4 || r.remaining() - 4 < size)
        throw FormatError(origin, bytes.size(),
                          "truncated checkpoint payload");
    std::vector<std::uint8_t> payload(static_cast<std::size_t>(size));
    r.bytes(payload.data(), payload.size());
    if (r.u32() != crc32(payload.data(), payload.size()))
        throw FormatError(origin, kHeaderLen + size,
                          "checkpoint payload CRC mismatch");
    return payload;
}

std::string
readStreamBytes(std::istream &is, const std::string &origin)
{
    std::string bytes;
    char buf[4096];
    while (is.read(buf, sizeof(buf)) || is.gcount() > 0)
        bytes.append(buf, static_cast<std::size_t>(is.gcount()));
    if (is.bad())
        throw IoError(origin, "read failed", 0);
    return bytes;
}

} // namespace amsc
