/**
 * @file
 * Typed simulator error hierarchy.
 *
 * Every failure that is not a simulator bug throws one of these:
 * configuration checks, component constructors, the trace, scenario
 * and obs read/write paths, the checkpoint codec and the sweep
 * journal. A bad configuration, a corrupt input or failing I/O thus
 * kills one sweep point -- not the fleet: SweepRunner records it
 * under sweep_on_error=skip and rethrows it under abort. The
 * taxonomy (docs/robustness.md):
 *
 *   SimError     -- base of everything the sweep layer can degrade on.
 *   IoError      -- an OS-level read/write/rename failure; carries the
 *                   path and errno.
 *   FormatError  -- structurally invalid input (trace file, scenario
 *                   text, checkpoint, journal); carries the path and
 *                   the byte offset of the offending datum.
 *   ConfigError  -- an invalid configuration key or value, or an
 *                   invalid command line.
 *
 * A simulator bug calls panic() (common/log.hh), which aborts.
 * `amsc` catches SimError at its top level and exits 1 with one
 * `amsc: error: ...` line.
 */

#ifndef AMSC_COMMON_ERROR_HH
#define AMSC_COMMON_ERROR_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

namespace amsc
{

/** Base class of all recoverable simulator errors. */
class SimError : public std::runtime_error
{
  public:
    explicit SimError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** OS-level I/O failure (open/write/fsync/rename). */
class IoError : public SimError
{
  public:
    IoError(const std::string &path, const std::string &what,
            int err = 0)
        : SimError(render(path, what, err)), path_(path), errno_(err)
    {}

    const std::string &path() const { return path_; }
    int errnoValue() const { return errno_; }

  private:
    static std::string
    render(const std::string &path, const std::string &what, int err)
    {
        std::string s = "io error: " + what + " '" + path + "'";
        if (err != 0)
            s += ": " + std::string(std::strerror(err));
        return s;
    }

    std::string path_;
    int errno_;
};

/** Structurally invalid input, with the offending byte offset. */
class FormatError : public SimError
{
  public:
    /** Offset value meaning "no meaningful byte offset". */
    static constexpr std::uint64_t kNoOffset =
        static_cast<std::uint64_t>(-1);

    FormatError(const std::string &path, std::uint64_t offset,
                const std::string &what)
        : SimError(render(path, offset, what)), path_(path),
          offset_(offset)
    {}

    const std::string &path() const { return path_; }
    std::uint64_t offset() const { return offset_; }

  private:
    static std::string
    render(const std::string &path, std::uint64_t offset,
           const std::string &what)
    {
        std::string s = "format error: '" + path + "'";
        if (offset != kNoOffset)
            s += " at byte " + std::to_string(offset);
        return s + ": " + what;
    }

    std::string path_;
    std::uint64_t offset_;
};

/** Invalid configuration key or value. */
class ConfigError : public SimError
{
  public:
    explicit ConfigError(const std::string &what) : SimError(what) {}
};

} // namespace amsc

#endif // AMSC_COMMON_ERROR_HH
