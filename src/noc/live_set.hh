/**
 * @file
 * Activity bits for the flit crossbars.
 *
 * A LiveSet holds one bit per crossbar component (source port,
 * router, sink port). A set bit means "tick this component"; a
 * clear bit is a proof that its tick() is a no-op (apart from a
 * router's per-cycle active/gated counter). Work reaches a component
 * only through its channels or an injection, so every channel holds
 * LiveBit handles to its sender's and receiver's bits and sets them
 * on each flit send and credit return; the network clears a bit only
 * after the component's own tick leaves it idle.
 */

#ifndef AMSC_NOC_LIVE_SET_HH
#define AMSC_NOC_LIVE_SET_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/log.hh"

namespace amsc
{

/** Handle that sets one LiveSet bit; a default handle does nothing. */
class LiveBit
{
  public:
    LiveBit() = default;
    LiveBit(std::uint64_t *word, std::uint64_t mask)
        : word_(word), mask_(mask)
    {}

    void
    set() const
    {
        if (word_ != nullptr)
            *word_ |= mask_;
    }

    bool wired() const { return word_ != nullptr; }

  private:
    std::uint64_t *word_ = nullptr;
    std::uint64_t mask_ = 0;
};

/** Fixed-size bit set with an ascending scan that sees late sets. */
class LiveSet
{
  public:
    LiveSet() = default;
    // LiveBit handles hold addresses into the storage.
    LiveSet(const LiveSet &) = delete;
    LiveSet &operator=(const LiveSet &) = delete;

    /**
     * Size the set for @p n components, all clear. Called once:
     * LiveBit handles point into the storage, so it never moves.
     */
    void
    init(std::size_t n)
    {
        if (!words_.empty())
            panic("live set sized twice");
        words_.assign((n + 63) / 64, 0);
        size_ = n;
    }

    LiveBit bit(std::size_t i) { return {&words_[i >> 6], maskOf(i)}; }

    bool test(std::size_t i) const { return words_[i >> 6] & maskOf(i); }
    void set(std::size_t i) { words_[i >> 6] |= maskOf(i); }
    void clear(std::size_t i) { words_[i >> 6] &= ~maskOf(i); }

    /** Set every bit (state restored from a checkpoint). */
    void
    setAll()
    {
        for (std::size_t i = 0; i < size_; ++i)
            words_[i >> 6] |= maskOf(i);
    }

    /**
     * First set bit in [@p i, @p end), or @p end. Reads the words
     * afresh, so a bit set after an earlier call is found by the
     * next one.
     */
    std::size_t
    next(std::size_t i, std::size_t end) const
    {
        while (i < end) {
            const std::uint64_t bits = words_[i >> 6] >> (i & 63);
            if (bits != 0) {
                i += static_cast<std::size_t>(__builtin_ctzll(bits));
                return i < end ? i : end;
            }
            i = (i | 63) + 1;
        }
        return end;
    }

    /**
     * Call @p fn(i) for each set bit i in [@p begin, @p end), in
     * ascending order. A bit above i that fn(i) sets is visited in
     * the same pass.
     */
    template <typename Fn>
    void
    forEach(std::size_t begin, std::size_t end, Fn &&fn) const
    {
        for (std::size_t i = next(begin, end); i < end;
             i = next(i + 1, end))
            fn(i);
    }

  private:
    static std::uint64_t
    maskOf(std::size_t i)
    {
        return std::uint64_t{1} << (i & 63);
    }

    std::vector<std::uint64_t> words_;
    std::size_t size_ = 0;
};

} // namespace amsc

#endif // AMSC_NOC_LIVE_SET_HH
