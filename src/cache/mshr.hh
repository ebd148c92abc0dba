/**
 * @file
 * Miss Status Holding Registers with request merging.
 *
 * An MshrFile tracks outstanding misses per line address. Secondary
 * misses to an in-flight line merge as additional targets instead of
 * issuing duplicate fills -- on a GPU this merging is a first-order
 * effect because many warps touch the same shared line back to back.
 *
 * The target payload is templated so the L1 (warp bookkeeping) and the
 * LLC slice (NoC reply bookkeeping) can reuse the same structure.
 *
 * Layout (GPGPU-Sim's `m_mshr_entries` x `m_mshr_max_merge`): a flat
 * table of E entry slots with T inline target slots each, a free-slot
 * stack, and an open-addressed line index (linear probing, at most
 * half full, backward-shift deletion) mapping a line to its slot. All
 * of it is sized at construction, so allocate(), complete() and
 * clear() never touch the heap. The index is hashed rather than
 * scanned because a full LLC file (64 entries) is probed on every
 * request the slice handles.
 */

#ifndef AMSC_CACHE_MSHR_HH
#define AMSC_CACHE_MSHR_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/ckpt.hh"
#include "common/error.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace amsc
{

/** Outcome of attempting to register a miss. */
enum class MshrAllocResult
{
    NewEntry,    ///< primary miss: a fill must be issued
    Merged,      ///< secondary miss: merged into an existing entry
    NoFreeEntry, ///< structural stall: all MSHRs busy
    NoFreeTarget ///< structural stall: per-entry target list full
};

/**
 * MSHR file tracking misses for up to E lines with T targets each.
 *
 * @tparam Target per-requester payload returned when the fill arrives.
 *         Trivially constructible, so the E x T target table is left
 *         uninitialized until written.
 */
template <typename Target>
class MshrFile
{
    static_assert(std::is_trivially_default_constructible_v<Target> &&
                      std::is_trivially_destructible_v<Target>,
                  "MSHR targets live in an uninitialized flat table");

  public:
    /**
     * The merged targets of a completed line, in arrival order. Views
     * the freed entry's storage: valid until the next allocate().
     */
    class Targets
    {
      public:
        Targets(const Target *data, std::size_t n) : data_(data), n_(n) {}

        std::size_t size() const { return n_; }
        bool empty() const { return n_ == 0; }
        const Target &operator[](std::size_t i) const { return data_[i]; }
        const Target &front() const { return data_[0]; }
        const Target *begin() const { return data_; }
        const Target *end() const { return data_ + n_; }

      private:
        const Target *data_;
        std::size_t n_;
    };

    /**
     * @param num_entries        maximum outstanding distinct lines.
     * @param targets_per_entry  maximum merged requests per line.
     */
    MshrFile(std::uint32_t num_entries, std::uint32_t targets_per_entry)
        : numEntries_(num_entries), targetsPerEntry_(targets_per_entry)
    {
        if (num_entries == 0 || targets_per_entry == 0)
            throw ConfigError(
                "MshrFile requires non-zero entries and targets");
        entries_.resize(num_entries);
        targets_.reset(new Target[std::size_t{num_entries} *
                                  targets_per_entry]);
        freeSlots_.reserve(num_entries);
        std::size_t buckets = 2;
        while (buckets < 2 * std::size_t{num_entries}) {
            buckets <<= 1;
            --hashShift_;
        }
        index_.resize(buckets);
        clear();
    }

    /** @return true if a new line entry can be allocated. */
    bool hasFreeEntry() const { return !freeSlots_.empty(); }

    /** @return true if @p line_addr has an outstanding miss. */
    bool
    contains(Addr line_addr) const
    {
        return find(line_addr) != kNone;
    }

    /**
     * @return true if allocate(line_addr, ...) would succeed: either
     * a mergeable entry with target space, or a free entry.
     */
    bool
    canAllocate(Addr line_addr) const
    {
        const std::uint32_t e = find(line_addr);
        if (e != kNone)
            return entries_[e].count < targetsPerEntry_;
        return hasFreeEntry();
    }

    /** Number of outstanding line entries. */
    std::size_t
    numActiveEntries() const
    {
        return numEntries_ - freeSlots_.size();
    }

    /**
     * Register a miss on @p line_addr for @p target.
     *
     * On NewEntry the caller must issue a fill request to the next
     * level; on Merged no request is needed; on NoFree* the caller must
     * stall and retry.
     */
    MshrAllocResult
    allocate(Addr line_addr, Target target)
    {
        std::uint32_t e = find(line_addr);
        if (e != kNone) {
            Entry &entry = entries_[e];
            if (entry.count >= targetsPerEntry_)
                return MshrAllocResult::NoFreeTarget;
            slot(e, entry.count++) = target;
            return MshrAllocResult::Merged;
        }
        if (!hasFreeEntry())
            return MshrAllocResult::NoFreeEntry;
        e = freeSlots_.back();
        freeSlots_.pop_back();
        entries_[e] = Entry{line_addr, 1};
        slot(e, 0) = target;
        indexInsert(line_addr, e);
        return MshrAllocResult::NewEntry;
    }

    /**
     * Complete the miss on @p line_addr; the entry is freed.
     *
     * @return all merged targets, in arrival order (see Targets for
     *         how long the view stays valid).
     */
    Targets
    complete(Addr line_addr)
    {
        const std::size_t b = findBucket(line_addr);
        if (index_[b].entry == kNone)
            panic("MSHR complete for unknown line 0x%llx",
                  static_cast<unsigned long long>(line_addr));
        const std::uint32_t e = index_[b].entry;
        indexErase(b);
        freeSlots_.push_back(e);
        return Targets(&slot(e, 0), entries_[e].count);
    }

    /** Drop all entries (used on flush); targets are discarded. */
    void
    clear()
    {
        freeSlots_.clear();
        for (std::uint32_t e = numEntries_; e-- > 0;)
            freeSlots_.push_back(e);
        for (Bucket &b : index_)
            b.entry = kNone;
    }

    /** Total outstanding merged targets across all entries. */
    std::size_t
    numActiveTargets() const
    {
        std::size_t n = 0;
        for (const Bucket &b : index_) {
            if (b.entry != kNone)
                n += entries_[b.entry].count;
        }
        return n;
    }

    std::uint32_t numEntries() const { return numEntries_; }
    std::uint32_t targetsPerEntry() const { return targetsPerEntry_; }

    /** Home bucket of @p line_addr in the line index (for tests). */
    std::size_t
    homeBucket(Addr line_addr) const
    {
        // Fibonacci hashing (top bits of the product): line
        // addresses are often aligned, so their low bits would
        // collide.
        return static_cast<std::size_t>(
            (line_addr * 0x9E3779B97F4A7C15ull) >> hashShift_);
    }

    /**
     * Serialize entries sorted by line address (deterministic bytes;
     * no simulator behavior depends on the slot or bucket order).
     */
    void
    saveCkpt(CkptWriter &w) const
    {
        std::vector<std::uint32_t> live;
        live.reserve(numActiveEntries());
        for (const Bucket &b : index_) {
            if (b.entry != kNone)
                live.push_back(b.entry);
        }
        std::sort(live.begin(), live.end(),
                  [this](std::uint32_t a, std::uint32_t b) {
                      return entries_[a].line < entries_[b].line;
                  });
        w.varint(live.size());
        for (const std::uint32_t e : live) {
            w.u64(entries_[e].line);
            w.varint(entries_[e].count);
            for (std::uint32_t t = 0; t < entries_[e].count; ++t)
                ckptValue(w, slot(e, t));
        }
    }

    /**
     * Restore entries written by saveCkpt(). More entries than the
     * file holds, more targets than an entry holds, or lines out of
     * ascending order (which includes a repeated line) fail the
     * reader.
     */
    void
    loadCkpt(CkptReader &r)
    {
        clear();
        const std::uint64_t n = r.varint();
        if (n > numEntries_)
            r.fail("MSHR entries over the file size");
        Addr prev = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            const Addr addr = r.u64();
            if (i != 0 && addr <= prev)
                r.fail("MSHR lines out of order");
            prev = addr;
            const std::uint64_t m = r.varint();
            if (m > targetsPerEntry_)
                r.fail("MSHR targets over the entry size");
            const std::uint32_t e = freeSlots_.back();
            freeSlots_.pop_back();
            entries_[e] = Entry{addr, static_cast<std::uint32_t>(m)};
            for (std::uint64_t j = 0; j < m; ++j) {
                Target t{};
                ckptValue(r, t);
                slot(e, static_cast<std::uint32_t>(j)) = t;
            }
            indexInsert(addr, e);
        }
    }

  private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    struct Entry
    {
        Addr line = kNoAddr;
        std::uint32_t count = 0;
    };

    /** Line index bucket; entry == kNone marks it empty. */
    struct Bucket
    {
        Addr line = kNoAddr;
        std::uint32_t entry = kNone;
    };

    Target &
    slot(std::uint32_t e, std::uint32_t t)
    {
        return targets_[std::size_t{e} * targetsPerEntry_ + t];
    }

    const Target &
    slot(std::uint32_t e, std::uint32_t t) const
    {
        return targets_[std::size_t{e} * targetsPerEntry_ + t];
    }

    std::size_t mask() const { return index_.size() - 1; }

    /** Bucket holding @p line, or the empty bucket ending its probe. */
    std::size_t
    findBucket(Addr line) const
    {
        std::size_t b = homeBucket(line);
        while (index_[b].entry != kNone && index_[b].line != line)
            b = (b + 1) & mask();
        return b;
    }

    std::uint32_t
    find(Addr line) const
    {
        return index_[findBucket(line)].entry;
    }

    void
    indexInsert(Addr line, std::uint32_t e)
    {
        index_[findBucket(line)] = Bucket{line, e};
    }

    /**
     * Empty bucket @p hole and shift later members of its probe run
     * back, so every lookup still reaches its line without tombstones.
     */
    void
    indexErase(std::size_t hole)
    {
        for (std::size_t b = (hole + 1) & mask(); index_[b].entry != kNone;
             b = (b + 1) & mask()) {
            // Move b into the hole unless its home lies cyclically in
            // (hole, b], where the hole does not break its probe.
            const std::size_t home = homeBucket(index_[b].line);
            if (((b - home) & mask()) >= ((b - hole) & mask())) {
                index_[hole] = index_[b];
                hole = b;
            }
        }
        index_[hole].entry = kNone;
    }

    std::uint32_t numEntries_;
    std::uint32_t targetsPerEntry_;
    std::vector<Entry> entries_;
    /** numEntries_ x targetsPerEntry_ target slots, entry-major. */
    std::unique_ptr<Target[]> targets_;
    /** Free entry indices; the top is allocated next. */
    std::vector<std::uint32_t> freeSlots_;
    /** Open-addressed line -> entry index, at most half full. */
    std::vector<Bucket> index_;
    /** 64 - log2(index_.size()). */
    unsigned hashShift_ = 63;
};

} // namespace amsc

#endif // AMSC_CACHE_MSHR_HH
