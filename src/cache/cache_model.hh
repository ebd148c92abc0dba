/**
 * @file
 * Functional cache model: tag array + write policies + statistics.
 *
 * CacheModel is the zero-latency core shared by the timed L1 and LLC
 * slice models. The timed wrappers drive it with the miss-fill split
 * typical of detailed simulators:
 *
 *   lookup() classifies an access without installing anything;
 *   fill()   installs the line when the next-level reply arrives and
 *            reports a dirty victim that must be written back.
 *
 * Writes honor the configured WritePolicy / WriteAllocPolicy: a
 * write-through cache never creates dirty lines, and a no-allocate
 * cache forwards write misses without installing them.
 */

#ifndef AMSC_CACHE_CACHE_MODEL_HH
#define AMSC_CACHE_CACHE_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache_types.hh"
#include "cache/tag_array.hh"
#include "common/types.hh"

namespace amsc
{

/** Geometry and policy parameters of a cache. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 48 * 1024;
    std::uint32_t assoc = 6;
    std::uint32_t lineBytes = 128;
    WritePolicy writePolicy = WritePolicy::WriteThrough;
    WriteAllocPolicy writeAlloc = WriteAllocPolicy::NoAllocate;
    ReplPolicy repl = ReplPolicy::Lru;
    std::uint64_t seed = 1;

    /** @return number of sets implied by size/assoc/line. */
    std::uint32_t numSets() const;
};

/** Classification of a single lookup. */
struct LookupResult
{
    bool hit = false;
    /**
     * For write-through caches, true when the write must also be
     * forwarded to the next level (always true on hit or miss).
     */
    bool forwardWrite = false;
    /** Line to install on fill (miss path), kNoAddr on hit. */
    Addr fillAddr = kNoAddr;
};

/** Result of installing a fill. */
struct FillResult
{
    /** True if a dirty victim must be written back. */
    bool writeback = false;
    Addr writebackAddr = kNoAddr;
};

/** Aggregate cache statistics. */
struct CacheStats
{
    std::uint64_t readHits = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeHits = 0;
    std::uint64_t writeMisses = 0;
    std::uint64_t fills = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirtyEvictions = 0;
    std::uint64_t writeThroughForwards = 0;
    std::uint64_t invalidations = 0;

    std::uint64_t accesses() const
    {
        return readHits + readMisses + writeHits + writeMisses;
    }
    std::uint64_t hits() const { return readHits + writeHits; }
    std::uint64_t misses() const { return readMisses + writeMisses; }
    double
    missRate() const
    {
        const std::uint64_t a = accesses();
        return a == 0 ? 0.0
                      : static_cast<double>(misses()) /
                static_cast<double>(a);
    }
};

/** Functional set-associative cache with write policies and stats. */
class CacheModel
{
  public:
    explicit CacheModel(const CacheParams &params);

    /** Strip block-offset bits from a byte address. */
    Addr
    lineAddrOf(Addr byte_addr) const
    {
        return byte_addr / params_.lineBytes;
    }

    /**
     * Classify an access to line address @p line_addr.
     *
     * Hit paths update replacement/dirty/accessor state immediately.
     * Miss paths leave the array unchanged; the caller later calls
     * fill() (unless the access needs no allocation).
     *
     * @param line_addr line-granular address.
     * @param is_write  write access.
     * @param accessor  cluster/router id recorded on the line.
     * @param now       current cycle.
     */
    LookupResult lookup(Addr line_addr, bool is_write,
                        std::uint32_t accessor, Cycle now);

    /**
     * Install @p line_addr after the next level supplied the data.
     *
     * @param was_write if the triggering access was an allocating
     *                  write, the installed line starts dirty under
     *                  write-back.
     */
    FillResult fill(Addr line_addr, bool was_write,
                    std::uint32_t accessor, Cycle now);

    /** True if an access to @p line_addr would need a fill() later. */
    bool
    needsFill(bool is_write) const
    {
        return !is_write ||
            params_.writeAlloc == WriteAllocPolicy::Allocate;
    }

    /** Probe without side effects. */
    bool contains(Addr line_addr) const;

    /** Invalidate everything; dirty contents are dropped. */
    void invalidateAll();

    /**
     * Collect and clean all dirty lines (shared -> private transition
     * write-back pass). Lines stay valid.
     */
    std::vector<Addr> collectDirtyLines();

    const CacheParams &params() const { return params_; }
    const CacheStats &stats() const { return stats_; }
    void clearStats() { stats_ = CacheStats{}; }

    TagArray &tags() { return tags_; }
    const TagArray &tags() const { return tags_; }

    /** Serialize tags + statistics. */
    void saveCkpt(CkptWriter &w) const;

    /** Restore state written by saveCkpt(); geometry must match. */
    void loadCkpt(CkptReader &r);

  private:
    CacheParams params_;
    TagArray tags_;
    CacheStats stats_;
};

} // namespace amsc

#endif // AMSC_CACHE_CACHE_MODEL_HH
