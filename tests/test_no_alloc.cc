/**
 * @file
 * The busy path allocates nothing: a counting global operator new
 * watches the flit crossbars tick under bursty traffic and the MSHR
 * file churn, after construction.
 *
 * Every flit, credit and message queue on the crossbar path is a ring
 * reserved to its structural bound, routes are table lookups, and the
 * MSHR file is a flat table with an open-addressed line index, so once
 * a network or MSHR file is built no tick, injection, delivery,
 * allocate or complete may reach the heap.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "cache/mshr.hh"
#include "common/rng.hh"
#include "noc/network_factory.hh"
#include "noc/noc_params.hh"

namespace
{

// Plain counter: the tests below are single-threaded.
std::uint64_t g_allocations = 0;

void *
countedAlloc(std::size_t n)
{
    ++g_allocations;
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    ++g_allocations;
    const std::size_t a = static_cast<std::size_t>(al);
    if (void *p = std::aligned_alloc(a, (n + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}

void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace amsc
{

namespace
{

NocParams
smallParams(NocTopology topo)
{
    NocParams p;
    p.topology = topo;
    p.numSms = 16;
    p.numClusters = 4;
    p.numMcs = 4;
    p.slicesPerMc = 4;
    return p;
}

NocMessage
message(MsgKind kind, std::uint32_t src, std::uint32_t dst,
        std::uint32_t size, std::uint64_t token)
{
    NocMessage m;
    m.kind = kind;
    m.src = src;
    m.dst = dst;
    m.sizeBytes = size;
    m.token = token;
    return m;
}

} // namespace

TEST(CountingNew, CountsHeapAllocations)
{
    // Guards the harness: a heap allocation must move the counter.
    const std::uint64_t before = g_allocations;
    auto p = std::make_unique<int>(7);
    EXPECT_EQ(g_allocations - before, 1u);
    EXPECT_EQ(*p, 7);
}

class NoAllocNetwork : public ::testing::TestWithParam<NocTopology>
{
};

TEST_P(NoAllocNetwork, BurstyTrafficTicksWithoutAllocating)
{
    // Injection runs in the first 200 of every 1000 cycles, up to
    // three messages a cycle: one-flit requests and five-flit replies
    // to random endpoints, a quarter of the requests to slice 5,
    // which pops only every 7th cycle, so its ejection queue fills
    // and backpressure reaches back to the sources. Requests are
    // popped at the slices and replies delivered through the reply
    // handler. On H-Xbar cycles 1000-1999 run in private mode
    // (bypassed MC-routers).
    const NocParams p = smallParams(GetParam());
    auto net = makeNetwork(p);
    std::uint64_t replies = 0;
    net->setReplyHandler(
        [&replies](const NocMessage &, Cycle) { ++replies; });
    Rng rng(41);
    std::uint64_t token = 0;
    std::uint64_t requests = 0;
    bool drained_at_switch = true;

    const std::uint64_t before = g_allocations;
    for (Cycle c = 0; c < 3000; ++c) {
        if (net->supportsPowerGating() && (c == 1000 || c == 2000)) {
            drained_at_switch = drained_at_switch && net->drained();
            net->setPrivateMode(c == 1000);
        }
        for (int k = 0; c % 1000 < 200 && k < 3; ++k) {
            const auto sm =
                static_cast<std::uint32_t>(rng.below(p.numSms));
            const auto sl =
                static_cast<std::uint32_t>(rng.below(p.numSlices()));
            if (rng.below(2) == 0) {
                const std::uint32_t dst = rng.below(4) == 0 ? 5 : sl;
                if (net->canInjectRequest(sm))
                    net->injectRequest(
                        message(MsgKind::ReadReq, sm, dst, 16, ++token),
                        c);
            } else if (net->canInjectReply(sl)) {
                net->injectReply(
                    message(MsgKind::ReadReply, sl, sm, 144, ++token), c);
            }
        }
        net->tick(c);
        for (std::uint32_t s = 0; s < p.numSlices(); ++s) {
            if (s == 5 && c % 7 != 0)
                continue;
            while (net->hasRequestFor(s)) {
                net->popRequestFor(s, c);
                ++requests;
                if (s == 5)
                    break;
            }
        }
    }
    const std::uint64_t allocations = g_allocations - before;

    EXPECT_EQ(allocations, 0u);
    EXPECT_TRUE(drained_at_switch);
    EXPECT_TRUE(net->drained());
    EXPECT_GT(requests, 500u);
    EXPECT_GT(replies, 500u);
}

INSTANTIATE_TEST_SUITE_P(
    Crossbars, NoAllocNetwork,
    ::testing::Values(NocTopology::FullXbar, NocTopology::Concentrated,
                      NocTopology::Hierarchical));

TEST(NoAllocMshr, AllocateMergeCompleteCyclesWithoutAllocating)
{
    // LLC geometry (64 entries x 16 targets) over a 256-line pool:
    // primary misses, merges, full-table and full-target stalls,
    // completions and flushes.
    MshrFile<std::uint32_t> mshrs(64, 16);
    Rng rng(5);
    std::uint64_t outcomes[4] = {};
    std::uint64_t completed = 0;

    const std::uint64_t before = g_allocations;
    for (std::uint32_t step = 0; step < 50000; ++step) {
        const Addr line = rng.below(rng.below(2) == 0 ? 8 : 256) * 128;
        const std::uint64_t op = rng.below(1000);
        if (op < 700) {
            ++outcomes[static_cast<int>(mshrs.allocate(line, step))];
        } else if (op < 999) {
            if (mshrs.contains(line)) {
                for (const std::uint32_t t : mshrs.complete(line))
                    completed += t <= step;
            }
        } else {
            mshrs.clear();
        }
    }
    const std::uint64_t allocations = g_allocations - before;

    EXPECT_EQ(allocations, 0u);
    for (const std::uint64_t n : outcomes)
        EXPECT_GT(n, 0u);
    EXPECT_GT(completed, 1000u);
}

} // namespace amsc
