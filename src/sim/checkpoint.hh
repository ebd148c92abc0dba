/**
 * @file
 * Checkpoint container framing.
 *
 * A checkpoint file is the CkptWriter payload of
 * GpuSystem::checkpoint() wrapped in a self-validating frame:
 *
 *   [magic "AMSCCKP1" (8 B)] [version u32] [config hash u64]
 *   [payload size u64] [payload] [CRC-32 of payload u32]
 *
 * all fixed-width fields little-endian. The config hash is an FNV-1a
 * digest over the ConfigRegistry key=value rendering of the
 * *simulation-relevant* keys: run-length limits (max_cycles,
 * max_instructions), the checkpoint/observability output knobs, the
 * sweep failure policy and the cycle-core driver (sim_mode, whose
 * two drivers are bit-identical by contract) are excluded, because
 * they cannot alter the simulated state trajectory -- so a checkpoint may be restored
 * with a longer horizon or different output paths, but never into a
 * differently-shaped machine. Every validation failure throws
 * FormatError carrying the offending byte offset; an interrupted
 * write (torn payload, missing CRC) is always detected, never
 * half-restored.
 */

#ifndef AMSC_SIM_CHECKPOINT_HH
#define AMSC_SIM_CHECKPOINT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace amsc
{

struct SimConfig;

/** Checkpoint file magic (8 bytes, no NUL). */
inline constexpr char kCkptMagic[] = "AMSCCKP1";

/**
 * Container format version. Bump it when the payload layout changes,
 * so an older file fails with "unsupported checkpoint version" rather
 * than mid-payload.
 */
inline constexpr std::uint32_t kCkptVersion = 3;

/**
 * FNV-1a digest of the simulation-relevant registry keys of @p cfg
 * (see the file comment for the excluded set).
 */
std::uint64_t configIdentityHash(const SimConfig &cfg);

/** Frame @p payload into the bytes of a complete checkpoint file. */
std::vector<std::uint8_t>
frameCheckpoint(const SimConfig &cfg,
                const std::vector<std::uint8_t> &payload);

/**
 * Validate the frame of @p bytes against @p cfg and return the
 * payload. @p origin names the source in error messages (file path
 * or "<checkpoint>"). Throws FormatError on any mismatch: bad magic,
 * unsupported version, config-hash mismatch, truncation or CRC
 * failure.
 */
std::vector<std::uint8_t> unframeCheckpoint(const std::string &bytes,
                                            const SimConfig &cfg,
                                            const std::string &origin);

/** Read all of @p is (binary); throws IoError on stream failure. */
std::string readStreamBytes(std::istream &is,
                            const std::string &origin);

} // namespace amsc

#endif // AMSC_SIM_CHECKPOINT_HH
