/**
 * @file
 * Power-of-two FIFO ring for the flit and message queues.
 *
 * Every queue on the flit and message path (channel flits and credits,
 * router input buffers, the crossbars' per-SM and per-slice message
 * queues, the LLC miss/reply/write-back queues, the SM hit queue) is a
 * Ring.
 * Its owner reserves it once, at construction, to the queue's
 * structural bound -- `vc_depth` for a router buffer, the channel's
 * credits for the flits and credits on a wire, `inject_queue_cap` /
 * `eject_queue_cap` for the endpoint queues -- so a bounded queue never
 * allocates after construction. A queue without a structural bound
 * (the ideal NoC, the LLC miss, reply and write-back queues) doubles
 * when a push finds it full; it stops allocating once it has reached
 * its high-water mark.
 *
 * The storage is raw memory in which push_back() constructs each item,
 * so reserving a ring writes nothing, and indices wrap with a mask:
 * push and pop are a store, an add and an and. Items must be trivially
 * destructible; popping one just moves the head.
 */

#ifndef AMSC_COMMON_RING_HH
#define AMSC_COMMON_RING_HH

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace amsc
{

/** FIFO ring with power-of-two capacity that doubles when full. */
template <typename T>
class Ring
{
    static_assert(std::is_trivially_destructible_v<T>,
                  "pop_front() and overwrites skip destructors");

  public:
    Ring() = default;

    /** Ring with room for @p n items before it grows. */
    explicit Ring(std::size_t n) { reserve(n); }

    Ring(const Ring &o) : Ring(o.cap_)
    {
        for (std::size_t i = 0; i < o.size_; ++i)
            ::new (static_cast<void *>(&buf_.get()[i])) T(o[i]);
        size_ = o.size_;
    }

    Ring(Ring &&o) noexcept { swap(o); }

    Ring &
    operator=(Ring o) noexcept
    {
        swap(o);
        return *this;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Items the ring holds before its next push allocates. */
    std::size_t capacity() const { return cap_; }

    /** Grow the storage to at least @p n slots (power of two). */
    void
    reserve(std::size_t n)
    {
        if (n <= cap_)
            return;
        std::size_t cap = 1;
        while (cap < n)
            cap <<= 1;
        Storage buf(static_cast<T *>(::operator new(cap * sizeof(T))));
        for (std::size_t i = 0; i < size_; ++i)
            ::new (static_cast<void *>(&buf.get()[i]))
                T(std::move((*this)[i]));
        buf_ = std::move(buf);
        cap_ = cap;
        head_ = 0;
    }

    /** Append @p item; doubles the storage if the ring is full. */
    void
    push_back(T item)
    {
        if (size_ == cap_)
            reserve(cap_ == 0 ? 1 : cap_ * 2);
        ::new (static_cast<void *>(
            &buf_.get()[(head_ + size_) & (cap_ - 1)])) T(std::move(item));
        ++size_;
    }

    /**
     * Drop the oldest item. @pre !empty(). An emptied ring restarts
     * at slot 0, so a queue that drains keeps reusing its first slots
     * and touches no more memory than its high-water mark.
     */
    void
    pop_front()
    {
        assert(size_ != 0);
        head_ = --size_ == 0 ? 0 : (head_ + 1) & (cap_ - 1);
    }

    /** Oldest item. @pre !empty(). */
    T &
    front()
    {
        assert(size_ != 0);
        return buf_.get()[head_];
    }

    const T &
    front() const
    {
        assert(size_ != 0);
        return buf_.get()[head_];
    }

    /** Newest item. @pre !empty(). */
    const T &
    back() const
    {
        assert(size_ != 0);
        return buf_.get()[(head_ + size_ - 1) & (cap_ - 1)];
    }

    /** The @p i-th oldest item. @pre i < size(). */
    const T &
    operator[](std::size_t i) const
    {
        assert(i < size_);
        return buf_.get()[(head_ + i) & (cap_ - 1)];
    }

    /** Remove every item; the storage stays. */
    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    void
    swap(Ring &o) noexcept
    {
        std::swap(buf_, o.buf_);
        std::swap(cap_, o.cap_);
        std::swap(head_, o.head_);
        std::swap(size_, o.size_);
    }

    struct Release
    {
        void operator()(T *p) const { ::operator delete(p); }
    };
    using Storage = std::unique_ptr<T, Release>;

    Storage buf_;
    std::size_t cap_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace amsc

#endif // AMSC_COMMON_RING_HH
