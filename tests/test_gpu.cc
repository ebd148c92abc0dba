/**
 * @file
 * Tests for the GPU core model: CTA scheduling policies and the SM
 * (warp progression, GTO, L1 behaviour, MSHR merging) against an
 * ideal network with a scripted responder.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "gpu/cta_scheduler.hh"
#include "gpu/sm.hh"
#include "noc/ideal_network.hh"

namespace amsc
{

// -------------------------------------------------------- CTA policies

namespace
{

std::vector<SmId>
identitySms(std::uint32_t n)
{
    std::vector<SmId> v(n);
    for (std::uint32_t i = 0; i < n; ++i)
        v[i] = i;
    return v;
}

/** Cluster of assignment index given cluster-major layout. */
std::uint32_t
clusterOfIndex(std::uint32_t idx, std::uint32_t spc)
{
    return idx / spc;
}

} // namespace

TEST(CtaScheduler, TwoLevelRrSpreadsAdjacentCtasAcrossClusters)
{
    // 8 SMs, 2 clusters of 4: CTA i lands in cluster i % 2.
    const auto a = assignCtas(CtaPolicy::TwoLevelRR, 16, 8, 4,
                              identitySms(8));
    std::map<CtaId, std::uint32_t> cluster_of;
    for (std::uint32_t idx = 0; idx < 8; ++idx) {
        for (CtaId c : a[idx])
            cluster_of[c] = clusterOfIndex(idx, 4);
    }
    for (CtaId c = 0; c + 1 < 16; ++c)
        EXPECT_NE(cluster_of[c], cluster_of[c + 1]);
}

TEST(CtaScheduler, BcsPairsShareSm)
{
    const auto a =
        assignCtas(CtaPolicy::Bcs, 16, 8, 4, identitySms(8));
    std::map<CtaId, std::uint32_t> sm_of;
    for (std::uint32_t idx = 0; idx < 8; ++idx) {
        for (CtaId c : a[idx])
            sm_of[c] = idx;
    }
    for (CtaId c = 0; c < 16; c += 2)
        EXPECT_EQ(sm_of[c], sm_of[c + 1]);
}

TEST(CtaScheduler, DcsKeepsChunksWithinCluster)
{
    const auto a =
        assignCtas(CtaPolicy::Dcs, 16, 8, 4, identitySms(8));
    // First half of the CTA space in cluster 0, second in cluster 1.
    for (std::uint32_t idx = 0; idx < 8; ++idx) {
        for (CtaId c : a[idx]) {
            const std::uint32_t cluster = clusterOfIndex(idx, 4);
            EXPECT_EQ(c / 8, cluster);
        }
    }
}

TEST(CtaScheduler, AllCtasAssignedExactlyOnce)
{
    for (const CtaPolicy p :
         {CtaPolicy::TwoLevelRR, CtaPolicy::Bcs, CtaPolicy::Dcs}) {
        const auto a = assignCtas(p, 37, 8, 4, identitySms(8));
        std::multiset<CtaId> seen;
        for (const auto &list : a)
            seen.insert(list.begin(), list.end());
        EXPECT_EQ(seen.size(), 37u);
        for (CtaId c = 0; c < 37; ++c)
            EXPECT_EQ(seen.count(c), 1u);
    }
}

TEST(CtaScheduler, LoadRoughlyBalanced)
{
    for (const CtaPolicy p :
         {CtaPolicy::TwoLevelRR, CtaPolicy::Bcs, CtaPolicy::Dcs}) {
        const auto a = assignCtas(p, 64, 8, 4, identitySms(8));
        for (const auto &list : a) {
            EXPECT_GE(list.size(), 6u);
            EXPECT_LE(list.size(), 10u);
        }
    }
}

TEST(CtaScheduler, PolicyParsing)
{
    EXPECT_EQ(parseCtaPolicy("rr"), CtaPolicy::TwoLevelRR);
    EXPECT_EQ(parseCtaPolicy("bcs"), CtaPolicy::Bcs);
    EXPECT_EQ(parseCtaPolicy("dcs"), CtaPolicy::Dcs);
}

// ----------------------------------------------------------------- SM

namespace
{

/** Deterministic generator: n loads to fixed addresses, compute k. */
class ScriptGen : public WarpTraceGen
{
  public:
    ScriptGen(std::vector<Addr> addrs, std::uint32_t compute,
              bool write = false)
        : addrs_(std::move(addrs)), compute_(compute), write_(write)
    {}

    bool
    nextInstr(WarpInstr &out, Cycle) override
    {
        if (pos_ >= addrs_.size())
            return false;
        out = WarpInstr{};
        out.computeCycles = compute_;
        out.numAccesses = 1;
        out.addrs[0] = addrs_[pos_++];
        out.isWrite = write_;
        return true;
    }

  private:
    std::vector<Addr> addrs_;
    std::uint32_t compute_;
    bool write_;
    std::size_t pos_ = 0;
};

/** Test fixture: one SM + ideal network + scripted LLC responder. */
struct SmRig
{
    NocParams np;
    IdealNetwork net;
    SmParams sp;
    Sm sm;
    std::uint64_t llcRequests = 0;

    SmRig()
        : np(makeNp()), net(np), sp(makeSp()),
          sm(sp, &net, [](Addr line) {
              return static_cast<SliceId>(line % 16);
          })
    {
        net.setReplyHandler([this](const NocMessage &msg, Cycle now) {
            sm.onReply(msg, now);
        });
    }

    static NocParams
    makeNp()
    {
        NocParams p;
        p.topology = NocTopology::Ideal;
        p.numSms = 2;
        p.numClusters = 2;
        p.numMcs = 4;
        p.slicesPerMc = 4;
        p.idealLatency = 5;
        return p;
    }

    static SmParams
    makeSp()
    {
        SmParams p;
        p.id = 0;
        p.cluster = 0;
        p.l1.name = "l1";
        p.l1.sizeBytes = 8 * 128; // tiny L1: 8 lines
        p.l1.assoc = 2;
        p.l1.lineBytes = 128;
        p.l1Latency = 4;
        p.maxResidentCtas = 2;
        p.maxResidentWarps = 8;
        return p;
    }

    /** Run @p cycles, servicing LLC requests after a fixed delay. */
    void
    run(Cycle cycles, Cycle start = 0)
    {
        for (Cycle c = start; c < start + cycles; ++c) {
            net.tick(c);
            // Scripted memory side: answer every request next cycle.
            for (SliceId s = 0; s < np.numSlices(); ++s) {
                while (net.hasRequestFor(s)) {
                    const NocMessage req = net.popRequestFor(s, c);
                    ++llcRequests;
                    if (req.kind == MsgKind::ReadReq) {
                        NocMessage rep;
                        rep.kind = MsgKind::ReadReply;
                        rep.lineAddr = req.lineAddr;
                        rep.src = s;
                        rep.dst = req.src;
                        rep.sizeBytes = 144;
                        rep.token = req.token;
                        net.injectReply(rep, c);
                    }
                }
            }
            sm.tick(c);
        }
    }
};

KernelInfo
scriptKernel(std::vector<Addr> addrs, std::uint32_t compute,
             std::uint32_t ctas, std::uint32_t warps,
             bool write = false)
{
    KernelInfo k;
    k.name = "script";
    k.numCtas = ctas;
    k.warpsPerCta = warps;
    k.makeGen = [addrs, compute, write](CtaId, std::uint32_t) {
        return std::make_unique<ScriptGen>(addrs, compute, write);
    };
    return k;
}

} // namespace

TEST(Sm, CompletesSimpleKernel)
{
    SmRig rig;
    const KernelInfo k = scriptKernel({100, 200, 300}, 2, 1, 2);
    rig.sm.launchKernel(&k, {0}, 0);
    EXPECT_FALSE(rig.sm.done());
    rig.run(2000);
    EXPECT_TRUE(rig.sm.done());
    // 2 warps x (3 mem + 3x2 compute) instructions.
    EXPECT_EQ(rig.sm.stats().instructions, 2u * 9u);
    EXPECT_EQ(rig.sm.stats().ctasCompleted, 1u);
}

TEST(Sm, L1CachesRepeatedLine)
{
    SmRig rig;
    // Same line 8 times: 1 LLC fetch, 7 L1 hits.
    const KernelInfo k = scriptKernel(std::vector<Addr>(8, 100), 1,
                                      1, 1);
    rig.sm.launchKernel(&k, {0}, 0);
    rig.run(2000);
    EXPECT_TRUE(rig.sm.done());
    EXPECT_EQ(rig.llcRequests, 1u);
    EXPECT_EQ(rig.sm.l1().stats().readHits, 7u);
}

TEST(Sm, MshrMergesConcurrentWarpMisses)
{
    SmRig rig;
    // Two warps read the same line simultaneously: one LLC request.
    const KernelInfo k = scriptKernel({500}, 1, 1, 2);
    rig.sm.launchKernel(&k, {0}, 0);
    rig.run(2000);
    EXPECT_TRUE(rig.sm.done());
    EXPECT_EQ(rig.llcRequests, 1u);
}

TEST(Sm, WritesAreFireAndForget)
{
    SmRig rig;
    const KernelInfo k =
        scriptKernel({100, 200}, 1, 1, 1, /*write=*/true);
    rig.sm.launchKernel(&k, {0}, 0);
    rig.run(500);
    EXPECT_TRUE(rig.sm.done());
    EXPECT_EQ(rig.sm.stats().stores, 2u);
    // Writes reach the LLC side (write-through L1).
    EXPECT_EQ(rig.llcRequests, 2u);
    // Write-through no-allocate: nothing cached.
    EXPECT_EQ(rig.sm.l1().stats().readHits, 0u);
}

TEST(Sm, StallBlocksIssueButAllowsCompletion)
{
    SmRig rig;
    const KernelInfo k = scriptKernel({100, 200, 300, 400}, 1, 1, 1);
    rig.sm.launchKernel(&k, {0}, 0);
    rig.run(40);
    const std::uint64_t before = rig.sm.stats().instructions;
    rig.sm.setStalled(true);
    rig.run(200, 40);
    // No new instructions while stalled (outstanding ones finished).
    EXPECT_LE(rig.sm.stats().instructions, before + 1);
    EXPECT_TRUE(rig.sm.quiescentMemory());
    rig.sm.setStalled(false);
    rig.run(2000, 240);
    EXPECT_TRUE(rig.sm.done());
}

TEST(Sm, MultipleCtasRotateThroughSlots)
{
    SmRig rig;
    // 5 CTAs, 2 resident max: completion must activate the rest.
    const KernelInfo k = scriptKernel({100, 228}, 1, 5, 2);
    rig.sm.launchKernel(&k, {0, 1, 2, 3, 4}, 0);
    rig.run(5000);
    EXPECT_TRUE(rig.sm.done());
    EXPECT_EQ(rig.sm.stats().ctasCompleted, 5u);
}

TEST(Sm, FlushL1ForcesRefetch)
{
    SmRig rig;
    const KernelInfo k = scriptKernel({100, 100}, 30, 1, 1);
    rig.sm.launchKernel(&k, {0}, 0);
    rig.run(3000);
    EXPECT_TRUE(rig.sm.done());
    const std::uint64_t first = rig.llcRequests;
    EXPECT_EQ(first, 1u); // second access was an L1 hit

    rig.sm.flushL1();
    const KernelInfo k2 = scriptKernel({100}, 1, 1, 1);
    rig.sm.launchKernel(&k2, {0}, 3000);
    rig.run(2000, 3000);
    EXPECT_EQ(rig.llcRequests, first + 1); // refetched after flush
}

TEST(Sm, GtoPrefersCurrentWarp)
{
    // With pure compute work the greedy scheduler retires one warp's
    // batch without interleaving (observable via total progress).
    SmRig rig;
    const KernelInfo k = scriptKernel({100}, 50, 1, 4);
    rig.sm.launchKernel(&k, {0}, 0);
    rig.run(30);
    // 2 schedulers x 30 cycles: no stalls while compute is available.
    EXPECT_GE(rig.sm.stats().computeInstrs, 55u);
}

TEST(Sm, DoneRequiresAllCtas)
{
    SmRig rig;
    const KernelInfo k = scriptKernel({100}, 1, 3, 1);
    rig.sm.launchKernel(&k, {0, 1, 2}, 0);
    rig.run(5);
    EXPECT_FALSE(rig.sm.done());
    rig.run(2000, 5);
    EXPECT_TRUE(rig.sm.done());
}

TEST(Sm, WarpSlotsAreAllFreedAfterEveryKernel)
{
    // A completing CTA frees every finished warp slot carrying its
    // id. Back-to-back kernels reuse CTA id 1; a slot left behind by
    // any of them shows up as an 8-warp CTA that can never start on
    // the 8-slot SM (long serving runs used to deadlock this way).
    SmRig rig;
    const KernelInfo k = scriptKernel({100, 228, 356}, 2, 1, 4);
    Cycle now = 0;
    for (int i = 0; i < 3; ++i) {
        rig.sm.launchKernel(&k, {1}, now);
        rig.run(2000, now);
        now += 2000;
        ASSERT_TRUE(rig.sm.done()) << "kernel " << i;
    }
    const KernelInfo wide =
        scriptKernel({100}, 1, 1, rig.sp.maxResidentWarps);
    rig.sm.launchKernel(&wide, {0}, now);
    rig.run(2000, now);
    EXPECT_TRUE(rig.sm.done()) << "8-warp CTA never found free slots";
    EXPECT_EQ(rig.sm.stats().ctasCompleted, 4u);
}

} // namespace amsc
