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
 */

#ifndef AMSC_COMMON_DELAY_QUEUE_HH
#define AMSC_COMMON_DELAY_QUEUE_HH

#include <cassert>
#include <cstddef>
#include <deque>
#include <limits>
#include <type_traits>
#include <utility>

#include "common/ckpt.hh"
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
     * @param capacity maximum number of buffered items (0 = unbounded).
     */
    explicit DelayQueue(std::size_t capacity = 0)
        : capacity_(capacity == 0
              ? std::numeric_limits<std::size_t>::max()
              : capacity)
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
        if (!q_.empty() && q_.back().first > ready)
            ready = q_.back().first;
        q_.emplace_back(ready, std::move(item));
    }

    /** @return true if the front item is visible at cycle @p now. */
    bool
    ready(Cycle now) const
    {
        return !q_.empty() && q_.front().first <= now;
    }

    /** Cycle at which the front item becomes visible. @pre !empty(). */
    Cycle
    frontReadyCycle() const
    {
        assert(!q_.empty());
        return q_.front().first;
    }

    /** Peek the front item. @pre ready(now). */
    const T &
    front() const
    {
        assert(!q_.empty());
        return q_.front().second;
    }

    /** Mutable peek of the front item. @pre !empty(). */
    T &
    front()
    {
        assert(!q_.empty());
        return q_.front().second;
    }

    /** Pop and return the front item. @pre ready(now). */
    T
    pop([[maybe_unused]] Cycle now)
    {
        assert(ready(now));
        T item = std::move(q_.front().second);
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
        for (const auto &e : q_) {
            w.u64(e.first);
            if constexpr (std::has_unique_object_representations_v<T>)
                w.pod(e.second);
            else
                ckptValue(w, e.second);
        }
    }

    /** Restore entries written by saveCkpt(); capacity unchanged. */
    void
    loadCkpt(CkptReader &r)
    {
        q_.clear();
        const std::uint64_t n = r.varint();
        for (std::uint64_t i = 0; i < n; ++i) {
            const Cycle ready = r.u64();
            T item{};
            if constexpr (std::has_unique_object_representations_v<T>)
                r.pod(item);
            else
                ckptValue(r, item);
            q_.emplace_back(ready, std::move(item));
        }
    }

    /** Iterate over all buffered items (for invariant checks). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &e : q_)
            fn(e.second);
    }

  private:
    std::size_t capacity_;
    std::deque<std::pair<Cycle, T>> q_;
};

} // namespace amsc

#endif // AMSC_COMMON_DELAY_QUEUE_HH
