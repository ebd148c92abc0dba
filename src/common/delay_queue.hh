/**
 * @file
 * Latency-tagged FIFO used for all inter-component handoffs.
 *
 * A DelayQueue models a pipeline or wire with a fixed (per-push) delay
 * and optional bounded capacity. Items pushed at cycle c with latency L
 * become visible to pop() at cycle c+L.
 *
 * Ready cycles are clamped to be monotone: an item pushed with an
 * earlier raw ready cycle than its predecessor becomes ready together
 * with that predecessor instead. This keeps the queue sorted with all
 * operations O(1), accepts producers whose latencies vary (the LLC
 * slice pushes hit replies at hitLatency but fill replies at 1..n
 * cycles, so raw ready cycles are *not* monotone), and is observably
 * identical to the unclamped FIFO: ready()/pop() only ever expose the
 * front, so an item can never pop before its predecessor anyway --
 * when the predecessor pops at cycle p >= its own ready cycle r_prev,
 * the clamped successor (ready max(r_raw, r_prev) <= p) is exactly as
 * poppable as the raw one (r_raw <= p). frontReadyCycle() likewise
 * only tightens toward the cycle the item could actually pop, which
 * makes the event-mode jumps exact rather than conservative.
 *
 * The entries live in a Ring (common/ring.hh). A bounded queue reserves
 * its capacity up front and never allocates afterwards; an unbounded
 * one starts empty and doubles when full.
 */

#ifndef AMSC_COMMON_DELAY_QUEUE_HH
#define AMSC_COMMON_DELAY_QUEUE_HH

#include <cassert>
#include <cstddef>
#include <limits>
#include <type_traits>
#include <utility>

#include "common/ckpt.hh"
#include "common/ring.hh"
#include "common/types.hh"

namespace amsc
{

/**
 * Bounded FIFO whose entries become visible after a configurable delay.
 *
 * @tparam T payload type (moved in/out).
 */
template <typename T>
class DelayQueue
{
  public:
    /**
     * @param capacity maximum number of buffered items (0 = unbounded);
     *                 a bounded queue reserves all of it now.
     */
    explicit DelayQueue(std::size_t capacity = 0)
        : capacity_(capacity == 0
              ? std::numeric_limits<std::size_t>::max()
              : capacity),
          q_(capacity)
    {}

    /** @return true if another item can be pushed. */
    bool full() const { return q_.size() >= capacity_; }

    /** @return true if no items are buffered (ready or not). */
    bool empty() const { return q_.empty(); }

    /** @return number of buffered items (ready or not). */
    std::size_t size() const { return q_.size(); }

    /** @return configured capacity. */
    std::size_t capacity() const { return capacity_; }

    /**
     * Push an item that becomes visible at cycle @p now + @p latency,
     * but never before the item in front of it (monotone clamp; see
     * the file comment for why this is exact).
     *
     * @pre !full()
     */
    void
    push(T item, Cycle now, Cycle latency)
    {
        assert(!full());
        Cycle ready = now + latency;
        if (!q_.empty() && q_.back().ready > ready)
            ready = q_.back().ready;
        q_.push_back({ready, std::move(item)});
    }

    /** @return true if the front item is visible at cycle @p now. */
    bool
    ready(Cycle now) const
    {
        return !q_.empty() && q_.front().ready <= now;
    }

    /** Cycle at which the front item becomes visible. @pre !empty(). */
    Cycle
    frontReadyCycle() const
    {
        assert(!q_.empty());
        return q_.front().ready;
    }

    /** Peek the front item. @pre ready(now). */
    const T &
    front() const
    {
        assert(!q_.empty());
        return q_.front().item;
    }

    /** Mutable peek of the front item. @pre !empty(). */
    T &
    front()
    {
        assert(!q_.empty());
        return q_.front().item;
    }

    /** Pop and return the front item. @pre ready(now). */
    T
    pop([[maybe_unused]] Cycle now)
    {
        assert(ready(now));
        T item = std::move(q_.front().item);
        q_.pop_front();
        return item;
    }

    /** Remove all items. */
    void clear() { q_.clear(); }

    /**
     * Serialize (ready cycle, payload) entries. Padding-free
     * trivially copyable payloads are written verbatim; the rest
     * (padded structs, std::pair, ...) go through ckptValue() so the
     * byte stream never contains indeterminate padding.
     */
    void
    saveCkpt(CkptWriter &w) const
    {
        w.varint(q_.size());
        for (std::size_t i = 0; i < q_.size(); ++i) {
            const Entry &e = q_[i];
            w.u64(e.ready);
            if constexpr (std::has_unique_object_representations_v<T>)
                w.pod(e.item);
            else
                ckptValue(w, e.item);
        }
    }

    /**
     * Restore entries written by saveCkpt(); capacity unchanged. A
     * count above the capacity, or ready cycles out of order, fail
     * the reader.
     */
    void
    loadCkpt(CkptReader &r)
    {
        q_.clear();
        const std::uint64_t n = r.varint();
        if (n > capacity_)
            r.fail("delay queue over capacity");
        for (std::uint64_t i = 0; i < n; ++i) {
            Entry e{};
            e.ready = r.u64();
            if (!q_.empty() && e.ready < q_.back().ready)
                r.fail("delay queue ready cycles out of order");
            if constexpr (std::has_unique_object_representations_v<T>)
                r.pod(e.item);
            else
                ckptValue(r, e.item);
            q_.push_back(std::move(e));
        }
    }

    /** Iterate over all buffered items (for invariant checks). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < q_.size(); ++i)
            fn(q_[i].item);
    }

  private:
    struct Entry
    {
        Cycle ready;
        T item;
    };

    std::size_t capacity_;
    Ring<Entry> q_;
};

} // namespace amsc

#endif // AMSC_COMMON_DELAY_QUEUE_HH
