/**
 * @file
 * Minimal key=value argument parsing for the CLI, examples and
 * scenario files.
 *
 * All amsc executables accept overrides of the form `key=value`
 * (e.g. `num_sms=40 channel_width=16 llc.mode=private`). KvArgs
 * collects them, converts values on demand, and reports any key that
 * was supplied but never consumed, which catches typos in experiment
 * scripts.
 *
 * parseFile()/parseText() additionally accept the nested key=value
 * dialect of `.scn` scenario files (see docs/configuration.md):
 *
 *     # comment (also //)
 *     key = value            # one assignment per line
 *     list = a, b, c         # lists are comma-separated values
 *     quoted = "text # kept" # quotes protect '#', '//' and spaces
 *     block {                # nested block: keys become block.key
 *       key = value
 *     }
 *
 * Blocks whose name the caller lists as *indexed* may repeat: two
 * `app { }` blocks produce `app.0.*` and `app.1.*` keys (a block
 * that appears once keeps its plain `app.*` prefix). Repeated
 * blocks of any other name merge -- a second `config { }` block
 * keeps adding `config.*` keys, later values winning on conflict.
 * Key insertion order is preserved and observable through
 * orderedKeys()/keysWithPrefix(), which is what gives scenario
 * sweep axes a well-defined nesting order.
 */

#ifndef AMSC_COMMON_KVARGS_HH
#define AMSC_COMMON_KVARGS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace amsc
{

/** Parsed key=value command-line overrides. */
class KvArgs
{
  public:
    KvArgs() = default;

    /**
     * Parse argv-style arguments. Arguments without '=' are collected
     * as positionals. A parse never fails; value conversion is checked
     * at get-time.
     */
    static KvArgs parse(int argc, const char *const *argv);

    /** Parse from a vector of "key=value" strings. */
    static KvArgs parse(const std::vector<std::string> &args);

    /**
     * Parse a scenario file in the nested key=value dialect (see the
     * file comment); throws IoError when @p path cannot be read and
     * FormatError on a syntax error.
     *
     * @param indexed block names that auto-index when repeated
     *        (every other repeated block merges).
     */
    static KvArgs
    parseFile(const std::string &path,
              const std::vector<std::string> &indexed = {});

    /**
     * Parse scenario text; @p origin names the source in error
     * messages ("file.scn:12: ...").
     */
    static KvArgs
    parseText(const std::string &text,
              const std::string &origin = "<text>",
              const std::vector<std::string> &indexed = {});

    /** @return true if @p key was supplied. */
    bool has(const std::string &key) const;

    /** String value of @p key, or @p def if absent. */
    std::string getString(const std::string &key,
                          const std::string &def = "") const;

    /** Integer value of @p key; ConfigError on a malformed value. */
    std::int64_t getInt(const std::string &key, std::int64_t def) const;

    /**
     * Unsigned value of @p key; ConfigError on a malformed or negative
     * value.
     */
    std::uint64_t getUint(const std::string &key,
                          std::uint64_t def) const;

    /** Floating-point value of @p key; ConfigError on a malformed value. */
    double getDouble(const std::string &key, double def) const;

    /** Boolean value: accepts 0/1/true/false/yes/no. */
    bool getBool(const std::string &key, bool def) const;

    /**
     * Comma-separated list value of @p key, elements trimmed; empty
     * vector if absent.
     */
    std::vector<std::string> getList(const std::string &key) const;

    /** Set (or override) a key programmatically. */
    void set(const std::string &key, const std::string &value);

    /** All keys, in first-insertion order. */
    const std::vector<std::string> &orderedKeys() const
    {
        return order_;
    }

    /** Keys starting with @p prefix, in first-insertion order. */
    std::vector<std::string>
    keysWithPrefix(const std::string &prefix) const;

    /** Positional (non key=value) arguments, in order. */
    const std::vector<std::string> &positionals() const
    {
        return positionals_;
    }

    /** Keys supplied but never read through a getter. */
    std::vector<std::string> unusedKeys() const;

    /** warn() for each unused key; @return number of unused keys. */
    std::size_t warnUnused() const;

  private:
    void insert(const std::string &key, const std::string &value);
    /** Rename every key under @p from to live under @p to instead. */
    void renamePrefix(const std::string &from, const std::string &to);

    std::map<std::string, std::string> kv_;
    mutable std::map<std::string, bool> used_;
    std::vector<std::string> order_;
    std::vector<std::string> positionals_;
};

} // namespace amsc

#endif // AMSC_COMMON_KVARGS_HH
