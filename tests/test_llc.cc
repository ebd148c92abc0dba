/**
 * @file
 * Tests for the LLC subsystem: slice mapper, profiler (LSP/bandwidth
 * models), sharing tracker, and the timed LLC slice.
 */

#include <gtest/gtest.h>

#include <set>

#include "llc/llc_slice.hh"
#include "llc/profiler.hh"
#include "llc/sharing_tracker.hh"
#include "llc/slice_mapper.hh"
#include "mem/memory_system.hh"
#include "noc/ideal_network.hh"

namespace amsc
{

namespace
{

MappingParams
mapParams()
{
    MappingParams mp;
    mp.numMcs = 4;
    mp.banksPerMc = 4;
    mp.linesPerRow = 16;
    mp.slicesPerMc = 4;
    return mp;
}

} // namespace

// ---------------------------------------------------------- SliceMapper

TEST(SliceMapper, SharedModeIgnoresCluster)
{
    AddressMapping mapping(mapParams());
    SliceMapper m(mapping, 1);
    for (Addr a = 0; a < 200; ++a) {
        EXPECT_EQ(m.sliceFor(a, 0), m.sliceFor(a, 3));
    }
}

TEST(SliceMapper, PrivateModeSelectsClusterSlice)
{
    AddressMapping mapping(mapParams());
    SliceMapper m(mapping, 1);
    m.setMode(0, LlcMode::Private);
    for (Addr a = 0; a < 200; ++a) {
        for (ClusterId cl = 0; cl < 4; ++cl) {
            const SliceId s = m.sliceFor(a, cl);
            EXPECT_EQ(s % 4, cl);
            EXPECT_EQ(s / 4, mapping.decode(a).mc);
        }
    }
}

TEST(SliceMapper, PrivateModeCoversWholePartitionPerCluster)
{
    // A cluster can reach every MC (full memory visibility).
    AddressMapping mapping(mapParams());
    SliceMapper m(mapping, 1);
    m.setMode(0, LlcMode::Private);
    std::set<SliceId> slices;
    for (Addr a = 0; a < 4000; ++a)
        slices.insert(m.sliceFor(a, 2));
    EXPECT_EQ(slices.size(), 4u); // one slice per MC, all reachable
}

TEST(SliceMapper, PerAppModes)
{
    AddressMapping mapping(mapParams());
    SliceMapper m(mapping, 2);
    m.setMode(1, LlcMode::Private);
    EXPECT_EQ(m.mode(0), LlcMode::Shared);
    EXPECT_EQ(m.mode(1), LlcMode::Private);
    // Same line, same cluster, different apps may use different
    // slices.
    bool differs = false;
    for (Addr a = 0; a < 100 && !differs; ++a)
        differs = m.sliceFor(a, 1, 0) != m.sliceFor(a, 1, 1);
    EXPECT_TRUE(differs);
}

// ------------------------------------------------------------- Profiler

TEST(Profiler, LspBalancedEqualsCount)
{
    EXPECT_DOUBLE_EQ(LlcProfiler::lsp({10, 10, 10, 10}), 4.0);
}

TEST(Profiler, LspSingleHotSliceIsOne)
{
    EXPECT_DOUBLE_EQ(LlcProfiler::lsp({100, 0, 0, 0}), 1.0);
}

TEST(Profiler, LspEmptyIsOne)
{
    EXPECT_DOUBLE_EQ(LlcProfiler::lsp({0, 0, 0}), 1.0);
}

TEST(Profiler, BandwidthModelMatchesPaperFormula)
{
    // BW = hit x LSP x sliceBW + miss x memBW.
    EXPECT_DOUBLE_EQ(
        LlcProfiler::bandwidth(0.8, 16.0, 32.0, 0.2, 640.0),
        0.8 * 16.0 * 32.0 + 0.2 * 640.0);
}

TEST(Profiler, SnapshotSkewedSharedTraffic)
{
    ProfilerParams pp;
    pp.numSlices = 16;
    pp.numClusters = 4;
    pp.numMcs = 4;
    pp.atd.sliceSets = 8;
    pp.atd.sampledSets = 8;
    LlcProfiler prof(pp);
    prof.beginWindow();
    // All traffic to slice 0 -> LSP_shared ~ 1.
    for (int i = 0; i < 100; ++i)
        prof.onSliceAccess(0, static_cast<Addr>(i % 4), 0, i >= 4,
                           true, i);
    const ProfileSnapshot s = prof.snapshot();
    EXPECT_NEAR(s.sharedLsp, 1.0, 1e-9);
    EXPECT_NEAR(s.sharedMissRate, 0.04, 1e-9);
}

TEST(Profiler, PrivateLspScalesClusterCounters)
{
    ProfilerParams pp;
    pp.numSlices = 16;
    pp.numClusters = 4;
    pp.numMcs = 4;
    LlcProfiler prof(pp);
    prof.beginWindow();
    // Cluster 0 spreads requests across all 4 MCs evenly.
    for (int i = 0; i < 100; ++i)
        prof.onRequestIssued(0, static_cast<McId>(i % 4));
    // Other clusters' requests are not counted (paper: first
    // cluster's SM-router only).
    for (int i = 0; i < 100; ++i)
        prof.onRequestIssued(1, 0);
    const ProfileSnapshot s = prof.snapshot();
    EXPECT_NEAR(s.privateLsp, 16.0, 1e-9); // 4 x numClusters
}

TEST(Profiler, PrivateLspCappedAtSliceCount)
{
    ProfilerParams pp;
    pp.numSlices = 8; // fewer slices than clusters x MCs
    pp.numClusters = 4;
    pp.numMcs = 4;
    LlcProfiler prof(pp);
    prof.beginWindow();
    for (int i = 0; i < 100; ++i)
        prof.onRequestIssued(0, static_cast<McId>(i % 4));
    EXPECT_LE(prof.snapshot().privateLsp, 8.0);
}

TEST(Profiler, WindowResetClears)
{
    ProfilerParams pp;
    pp.numSlices = 16;
    pp.numClusters = 4;
    pp.numMcs = 4;
    pp.atd.sliceSets = 8;
    pp.atd.sampledSets = 8;
    LlcProfiler prof(pp);
    prof.beginWindow();
    prof.onSliceAccess(0, 0, 0, false, true, 0);
    prof.onRequestIssued(0, 0);
    prof.beginWindow();
    const ProfileSnapshot s = prof.snapshot();
    EXPECT_EQ(s.sampledAccesses, 0u);
    EXPECT_DOUBLE_EQ(s.sharedLsp, 1.0);
}

// -------------------------------------------------------- SharingTracker

TEST(SharingTracker, DisabledByDefault)
{
    SharingTracker t(1000);
    t.onAccess(1, 0, 0);
    t.flush(2000);
    EXPECT_EQ(t.totalLineWindows(), 0u);
}

TEST(SharingTracker, SingleClusterBucket)
{
    SharingTracker t(1000);
    t.setEnabled(true);
    t.onAccess(1, 3, 10);
    t.onAccess(1, 3, 20);
    t.flush(2000);
    EXPECT_EQ(t.totalLineWindows(), 1u);
    EXPECT_DOUBLE_EQ(t.bucketFraction(0), 1.0);
}

TEST(SharingTracker, MultiClusterBuckets)
{
    SharingTracker t(1000);
    t.setEnabled(true);
    // Line 1: clusters {0,1} -> bucket 1 (2 clusters).
    t.onAccess(1, 0, 0);
    t.onAccess(1, 1, 1);
    // Line 2: clusters {0,1,2} -> bucket 2 (3-4 clusters).
    t.onAccess(2, 0, 2);
    t.onAccess(2, 1, 3);
    t.onAccess(2, 2, 4);
    // Line 3: 5 clusters -> bucket 3.
    for (ClusterId c = 0; c < 5; ++c)
        t.onAccess(3, c, 5);
    t.flush(2000);
    EXPECT_EQ(t.totalLineWindows(), 3u);
    EXPECT_NEAR(t.bucketFraction(1), 1.0 / 3, 1e-9);
    EXPECT_NEAR(t.bucketFraction(2), 1.0 / 3, 1e-9);
    EXPECT_NEAR(t.bucketFraction(3), 1.0 / 3, 1e-9);
}

TEST(SharingTracker, WindowsRollAtBoundary)
{
    SharingTracker t(1000);
    t.setEnabled(true);
    t.onAccess(7, 0, 100);
    // New window: the same line touched by another cluster counts as
    // a fresh observation, not 2-cluster sharing.
    t.onAccess(7, 1, 1500);
    t.flush(3000);
    EXPECT_EQ(t.totalLineWindows(), 2u);
    EXPECT_DOUBLE_EQ(t.bucketFraction(0), 1.0);
}

TEST(SharingTracker, ClearResets)
{
    SharingTracker t(1000);
    t.setEnabled(true);
    t.onAccess(1, 0, 0);
    t.flush(5000);
    t.clear();
    EXPECT_EQ(t.totalLineWindows(), 0u);
}

// ------------------------------------------------------------- LlcSlice

namespace
{

struct SliceRig
{
    NocParams np;
    IdealNetwork net;
    MappingParams mp;
    AddressMapping mapping;
    MemorySystem mem;
    LlcSliceParams sp;
    LlcSlice slice;
    bool writeThrough = false;
    /** Replies the network delivered since run() began. */
    std::vector<NocMessage> replies;

    SliceRig()
        : np(makeNp()), net(np), mp(mapParams()), mapping(mp),
          mem(4, makeDram(), mapping), sp(makeSp()),
          slice(sp, &net, &mem, [](SmId) { return AppId{0}; },
                [this](AppId) { return writeThrough; })
    {
        mem.setReadCallback(
            [this](Addr line, std::uint64_t, Cycle now) {
                slice.onDramReply(line, now);
            });
        net.setReplyHandler([this](const NocMessage &msg, Cycle) {
            replies.push_back(msg);
        });
    }

    static NocParams
    makeNp()
    {
        NocParams p;
        p.topology = NocTopology::Ideal;
        p.numSms = 4;
        p.numClusters = 2;
        p.numMcs = 4;
        p.slicesPerMc = 4;
        p.idealLatency = 2;
        return p;
    }

    static DramParams
    makeDram()
    {
        DramParams d;
        d.banksPerMc = 4;
        d.busBytesPerCycle = 64;
        return d;
    }

    static LlcSliceParams
    makeSp()
    {
        LlcSliceParams p;
        p.id = 0;
        p.mc = 0;
        p.numSets = 4;
        p.assoc = 2;
        p.hitLatency = 3;
        p.missLatency = 2;
        return p;
    }

    /** Push a request into the network towards slice 0. */
    void
    request(Addr line, bool write, SmId sm, Cycle now)
    {
        NocMessage m;
        m.kind = write ? MsgKind::WriteReq : MsgKind::ReadReq;
        m.lineAddr = line;
        m.src = sm;
        m.dst = 0;
        m.sizeBytes = write ? 144 : 16;
        net.injectRequest(m, now);
    }

    /** Run and collect the replies delivered meanwhile (dst SMs). */
    std::vector<NocMessage>
    run(Cycle cycles, Cycle start = 0)
    {
        replies.clear();
        for (Cycle c = start; c < start + cycles; ++c) {
            net.tick(c);
            slice.tick(c);
            mem.tick(c);
        }
        return replies;
    }
};

/** Lines that map to the slice's MC 0 (so DRAM routing works). */
Addr
mc0Line(const AddressMapping &mapping, int n)
{
    Addr a = 0;
    int found = 0;
    while (true) {
        if (mapping.decode(a).mc == 0) {
            if (found == n)
                return a;
            ++found;
        }
        ++a;
    }
}

} // namespace

TEST(LlcSlice, MissFetchesFromDramAndReplies)
{
    SliceRig rig;
    const Addr line = mc0Line(rig.mapping, 0);
    rig.request(line, false, 1, 0);
    const auto replies = rig.run(300);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].dst, 1u);
    EXPECT_EQ(replies[0].lineAddr, line);
    EXPECT_EQ(rig.slice.stats().readMisses, 1u);
    EXPECT_EQ(rig.slice.stats().dramReads, 1u);
    EXPECT_TRUE(rig.slice.drained());
}

TEST(LlcSlice, HitServedWithoutDram)
{
    SliceRig rig;
    const Addr line = mc0Line(rig.mapping, 0);
    rig.request(line, false, 1, 0);
    rig.run(300);
    rig.request(line, false, 2, 300);
    const auto replies = rig.run(100, 300);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(rig.slice.stats().readHits, 1u);
    EXPECT_EQ(rig.slice.stats().dramReads, 1u); // no new fetch
}

TEST(LlcSlice, ConcurrentMissesMergeToOneFetch)
{
    SliceRig rig;
    const Addr line = mc0Line(rig.mapping, 0);
    rig.request(line, false, 0, 0);
    rig.request(line, false, 1, 0);
    rig.request(line, false, 2, 0);
    const auto replies = rig.run(400);
    EXPECT_EQ(replies.size(), 3u); // one reply per requester
    EXPECT_EQ(rig.slice.stats().dramReads, 1u);
    EXPECT_EQ(rig.slice.stats().readMisses, 1u);
    EXPECT_EQ(rig.slice.stats().readMergedHits, 2u);
}

TEST(LlcSlice, WriteBackModeAbsorbsWriteHits)
{
    SliceRig rig;
    rig.writeThrough = false;
    const Addr line = mc0Line(rig.mapping, 0);
    rig.request(line, false, 0, 0); // install
    rig.run(300);
    rig.request(line, true, 0, 300); // write hit, absorbed
    rig.run(100, 300);
    EXPECT_EQ(rig.slice.stats().writeHits, 1u);
    EXPECT_EQ(rig.slice.stats().dramWrites, 0u);
}

TEST(LlcSlice, WriteThroughModeForwardsWriteHits)
{
    SliceRig rig;
    rig.writeThrough = true;
    const Addr line = mc0Line(rig.mapping, 0);
    rig.request(line, false, 0, 0);
    rig.run(300);
    rig.request(line, true, 0, 300);
    rig.run(200, 300);
    EXPECT_EQ(rig.slice.stats().writeHits, 1u);
    EXPECT_EQ(rig.slice.stats().dramWrites, 1u);
}

TEST(LlcSlice, WriteMissForwardsWithoutAllocation)
{
    SliceRig rig;
    const Addr line = mc0Line(rig.mapping, 0);
    rig.request(line, true, 0, 0);
    rig.run(200);
    EXPECT_EQ(rig.slice.stats().dramWrites, 1u);
    EXPECT_EQ(rig.slice.tags().numValidLines(), 0u);
}

TEST(LlcSlice, DirtyEvictionWritesBack)
{
    SliceRig rig;
    rig.writeThrough = false;
    // Fill one set (4 sets here; set = line % 4): lines 0,4 -> set 0.
    std::vector<Addr> set0;
    for (int i = 0; set0.size() < 3; ++i) {
        const Addr a = mc0Line(rig.mapping, i);
        if (a % 4 == 0)
            set0.push_back(a);
    }
    rig.request(set0[0], false, 0, 0);
    rig.run(300);
    rig.request(set0[0], true, 0, 300); // dirty it
    rig.run(100, 300);
    rig.request(set0[1], false, 0, 400); // fill way 2
    rig.run(300, 400);
    rig.request(set0[2], false, 0, 700); // evicts dirty set0[0]
    rig.run(400, 700);
    EXPECT_GE(rig.slice.stats().dramWrites, 1u);
}

TEST(LlcSlice, WritebackAllFlushesDirtyLines)
{
    SliceRig rig;
    rig.writeThrough = false;
    const Addr line = mc0Line(rig.mapping, 0);
    rig.request(line, false, 0, 0);
    rig.run(300);
    rig.request(line, true, 0, 300);
    rig.run(100, 300);
    rig.slice.startWritebackAll(400);
    EXPECT_FALSE(rig.slice.drained());
    rig.run(200, 400);
    EXPECT_TRUE(rig.slice.drained());
    EXPECT_GE(rig.slice.stats().writebacks, 1u);
}

TEST(LlcSlice, InvalidateAllDropsContents)
{
    SliceRig rig;
    const Addr line = mc0Line(rig.mapping, 0);
    rig.request(line, false, 0, 0);
    rig.run(300);
    EXPECT_EQ(rig.slice.tags().numValidLines(), 1u);
    rig.slice.invalidateAll();
    EXPECT_EQ(rig.slice.tags().numValidLines(), 0u);
}

TEST(LlcSlice, ObserverSeesAccesses)
{
    SliceRig rig;
    int observed = 0;
    bool last_hit = true;
    rig.slice.setObserver([&](SliceId s, Addr, SmId, bool hit,
                              bool is_read, Cycle) {
        EXPECT_EQ(s, 0u);
        EXPECT_TRUE(is_read);
        last_hit = hit;
        ++observed;
    });
    const Addr line = mc0Line(rig.mapping, 0);
    rig.request(line, false, 0, 0);
    rig.run(300);
    EXPECT_EQ(observed, 1);
    EXPECT_FALSE(last_hit);
}

} // namespace amsc
