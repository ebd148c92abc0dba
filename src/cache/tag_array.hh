/**
 * @file
 * Set-associative tag array.
 *
 * TagArray is a purely functional structure: it models the tags,
 * replacement metadata and dirty bits of a cache but carries no timing.
 * Timed wrappers (the L1 model in src/gpu and the LLC slice in src/llc)
 * wrap it with pipelines and queues.
 *
 * Addresses handed to the tag array are *line addresses* (byte address
 * with the block-offset bits already stripped by the caller). The set
 * index is computed as lineAddr % numSets, which also behaves well for
 * the non-power-of-two set counts of the baseline configuration (the
 * 96 KB 16-way LLC slice has 48 sets).
 */

#ifndef AMSC_CACHE_TAG_ARRAY_HH
#define AMSC_CACHE_TAG_ARRAY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/cache_types.hh"
#include "cache/replacement.hh"
#include "common/ckpt.hh"
#include "common/types.hh"

namespace amsc
{

/** Result of installing a line: possibly an evicted victim. */
struct Eviction
{
    bool valid = false;   ///< true if a valid line was evicted
    bool dirty = false;   ///< victim dirty state
    Addr lineAddr = kNoAddr; ///< victim line address
};

/** Functional set-associative tag array. */
class TagArray
{
  public:
    /**
     * @param num_sets  number of sets (>0, any value).
     * @param assoc     associativity (>0).
     * @param repl      replacement policy selector.
     * @param seed      seed for stochastic policies.
     * @param bypass    fill-bypass policy (LLC slices only).
     * @param duel_sets DRRIP leader sets per constituency.
     */
    TagArray(std::uint32_t num_sets, std::uint32_t assoc,
             ReplPolicy repl = ReplPolicy::Lru, std::uint64_t seed = 1,
             BypassPolicy bypass = BypassPolicy::None,
             std::uint32_t duel_sets = 4);

    /** @return the set index for @p line_addr. */
    std::uint32_t
    setIndex(Addr line_addr) const
    {
        return static_cast<std::uint32_t>(line_addr % numSets_);
    }

    /**
     * Look up @p line_addr without updating replacement state.
     *
     * @return the matching line or nullptr.
     */
    CacheLine *probe(Addr line_addr);
    const CacheLine *probe(Addr line_addr) const;

    /**
     * Look up @p line_addr and update replacement state: the policy
     * sees onHit on a hit and onMiss otherwise (set-dueling input).
     *
     * @param src requesting SM / router id (policy context).
     * @return the matching line or nullptr on miss.
     */
    CacheLine *access(Addr line_addr, Cycle now,
                      std::uint32_t src = kInvalidId);

    /**
     * Install @p line_addr, evicting a victim if the set is full.
     *
     * @param line_addr line to install.
     * @param now       current cycle (recorded as insertCycle).
     * @param evicted   out-parameter describing the victim, if any.
     * @param src       requesting SM / router id (policy context).
     * @return the installed line.
     */
    CacheLine *insert(Addr line_addr, Cycle now, Eviction &evicted,
                      std::uint32_t src = kInvalidId);

    /**
     * Should a fill of @p line_addr requested by @p src skip
     * installation? Always false without a bypass policy. Pure
     * prediction -- no state changes.
     */
    bool shouldBypassFill(Addr line_addr, std::uint32_t src,
                          Cycle now) const;

    /**
     * Invalidate the line caching @p line_addr if present.
     *
     * @return description of the invalidated line (valid=false if the
     *         line was not present).
     */
    Eviction invalidate(Addr line_addr);

    /** Invalidate every line. */
    void invalidateAll();

    /**
     * Collect the addresses of all dirty lines and clear their dirty
     * bits (models a full write-back pass).
     */
    std::vector<Addr> collectDirtyLines();

    /** Apply @p fn to every valid line. */
    void forEachLine(const std::function<void(CacheLine &)> &fn);
    void
    forEachLine(const std::function<void(const CacheLine &)> &fn) const;

    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t assoc() const { return assoc_; }
    ReplPolicy replKind() const { return replKind_; }
    BypassPolicy bypassKind() const { return bypassKind_; }
    /** The bound replacement policy (tests, introspection). */
    const ReplacementPolicy &replacement() const { return *repl_; }
    /** The bound bypass predictor; nullptr without one. */
    const BypassPredictor *bypass() const { return bypass_.get(); }
    std::uint64_t numLines() const
    {
        return static_cast<std::uint64_t>(numSets_) * assoc_;
    }

    /** Number of currently valid lines. */
    std::uint64_t numValidLines() const;

    /** Serialize lines + mutable policy/predictor state. */
    void saveCkpt(CkptWriter &w) const;

    /** Restore state written by saveCkpt(); geometry must match. */
    void loadCkpt(CkptReader &r);

  private:
    CacheLine &lineAt(std::uint32_t set, std::uint32_t way)
    {
        return lines_[static_cast<std::size_t>(set) * assoc_ + way];
    }
    const CacheLine &lineAt(std::uint32_t set, std::uint32_t way) const
    {
        return lines_[static_cast<std::size_t>(set) * assoc_ + way];
    }

    std::uint32_t numSets_;
    std::uint32_t assoc_;
    ReplPolicy replKind_;
    BypassPolicy bypassKind_;
    std::vector<CacheLine> lines_;
    std::unique_ptr<ReplacementPolicy> repl_;
    std::unique_ptr<BypassPredictor> bypass_;
    // Scratch vector reused by insert() to avoid per-call allocation.
    std::vector<CacheLine *> victimScratch_;
};

} // namespace amsc

#endif // AMSC_CACHE_TAG_ARRAY_HH
