/**
 * @file
 * Property-based and parameterized sweeps over the substrates:
 * invariants that must hold for any geometry, seed, or traffic mix.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "cache/mshr.hh"
#include "cache/tag_array.hh"
#include "common/rng.hh"
#include "llc/slice_mapper.hh"
#include "mem/memory_system.hh"
#include "noc/network_factory.hh"

namespace amsc
{

// ------------------------------------------------ cache geometry sweep

class TagArrayGeometry
    : public ::testing::TestWithParam<
          std::tuple<int, int, ReplPolicy>>
{
};

TEST_P(TagArrayGeometry, CapacityAndResidencyInvariants)
{
    const auto [sets, assoc, repl] = GetParam();
    TagArray tags(static_cast<std::uint32_t>(sets),
                  static_cast<std::uint32_t>(assoc), repl, 7);
    Rng rng(42);
    std::set<Addr> inserted;
    Eviction ev;
    for (int i = 0; i < sets * assoc * 4; ++i) {
        const Addr a = rng.below(
            static_cast<std::uint64_t>(sets) * assoc * 8);
        if (tags.probe(a) == nullptr) {
            tags.insert(a, static_cast<Cycle>(i), ev);
            inserted.insert(a);
            if (ev.valid)
                inserted.erase(ev.lineAddr);
        } else {
            tags.access(a, static_cast<Cycle>(i));
        }
        // Valid lines never exceed capacity.
        ASSERT_LE(tags.numValidLines(),
                  static_cast<std::uint64_t>(sets) * assoc);
    }
    // The tag array contains exactly the never-evicted inserts.
    EXPECT_EQ(tags.numValidLines(), inserted.size());
    for (const Addr a : inserted)
        EXPECT_NE(tags.probe(a), nullptr);
}

TEST_P(TagArrayGeometry, LruKeepsMostRecentWorkingSet)
{
    const auto [sets, assoc, repl] = GetParam();
    if (repl != ReplPolicy::Lru)
        GTEST_SKIP() << "LRU-specific property";
    TagArray tags(static_cast<std::uint32_t>(sets),
                  static_cast<std::uint32_t>(assoc), repl);
    Eviction ev;
    // Touch `assoc` distinct lines of set 0 after heavy churn: all
    // must be resident afterwards.
    Cycle now = 0;
    for (int churn = 0; churn < 4 * assoc; ++churn)
        tags.insert(static_cast<Addr>(sets) * churn, ++now, ev);
    std::vector<Addr> recent;
    for (int i = 0; i < assoc; ++i) {
        const Addr a = static_cast<Addr>(sets) * (100 + i);
        recent.push_back(a);
        tags.insert(a, ++now, ev);
        tags.access(a, ++now);
    }
    for (const Addr a : recent)
        EXPECT_NE(tags.probe(a), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TagArrayGeometry,
    ::testing::Values(
        std::make_tuple(1, 2, ReplPolicy::Lru),
        std::make_tuple(64, 6, ReplPolicy::Lru),   // L1 geometry
        std::make_tuple(48, 16, ReplPolicy::Lru),  // LLC slice
        std::make_tuple(48, 16, ReplPolicy::Fifo),
        std::make_tuple(48, 16, ReplPolicy::Random),
        std::make_tuple(48, 16, ReplPolicy::Srrip),
        std::make_tuple(48, 16, ReplPolicy::Brrip),
        std::make_tuple(48, 16, ReplPolicy::Drrip),
        std::make_tuple(7, 3, ReplPolicy::Lru),    // odd geometry
        std::make_tuple(7, 3, ReplPolicy::Drrip))); // duel > sets/2

// ---------------------------------------------------- MSHR conservation

TEST(MshrProperty, RandomChurnConservesTargets)
{
    MshrFile<int> mshrs(16, 4);
    Rng rng(9);
    std::map<Addr, int> expected; // line -> outstanding targets
    int next_tag = 0;
    for (int step = 0; step < 20000; ++step) {
        const Addr line = rng.below(64);
        if (rng.chance(0.7)) {
            const MshrAllocResult r = mshrs.allocate(line, next_tag);
            if (r == MshrAllocResult::NewEntry ||
                r == MshrAllocResult::Merged) {
                ++expected[line];
                ++next_tag;
                ASSERT_EQ(r == MshrAllocResult::NewEntry,
                          expected[line] == 1);
            }
        } else if (mshrs.contains(line)) {
            const auto targets = mshrs.complete(line);
            ASSERT_EQ(static_cast<int>(targets.size()),
                      expected[line]);
            expected.erase(line);
        }
        ASSERT_EQ(mshrs.numActiveEntries(), expected.size());
    }
}

// ------------------------------------------------ slice mapper lattice

class SliceMapperScheme
    : public ::testing::TestWithParam<MappingScheme>
{
  protected:
    MappingParams
    params() const
    {
        MappingParams mp;
        mp.scheme = GetParam();
        mp.numMcs = 8;
        mp.banksPerMc = 16;
        mp.linesPerRow = 16;
        mp.slicesPerMc = 8;
        return mp;
    }
};

TEST_P(SliceMapperScheme, SliceAlwaysInOwningPartition)
{
    AddressMapping mapping(params());
    SliceMapper m(mapping, 1);
    for (const LlcMode mode : {LlcMode::Shared, LlcMode::Private}) {
        m.setMode(0, mode);
        for (Addr a = 0; a < 4096; a += 3) {
            for (ClusterId cl = 0; cl < 8; cl += 3) {
                const SliceId s = m.sliceFor(a, cl);
                ASSERT_EQ(s / 8, mapping.decode(a).mc)
                    << "slice outside its memory partition";
            }
        }
    }
}

TEST_P(SliceMapperScheme, PrivateModeIsolatesClusters)
{
    AddressMapping mapping(params());
    SliceMapper m(mapping, 1);
    m.setMode(0, LlcMode::Private);
    // Two different clusters never share a slice in private mode.
    for (Addr a = 0; a < 2048; a += 7) {
        for (ClusterId c1 = 0; c1 < 8; ++c1) {
            for (ClusterId c2 = c1 + 1; c2 < 8; ++c2) {
                ASSERT_NE(m.sliceFor(a, c1), m.sliceFor(a, c2));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Schemes, SliceMapperScheme,
                         ::testing::Values(MappingScheme::Pae,
                                           MappingScheme::Hynix),
                         [](const auto &info) {
                             return AddressMapping::schemeName(
                                 info.param);
                         });

// --------------------------------------------- DRAM completion property

TEST(DramProperty, AllReadsCompleteUnderRandomTraffic)
{
    MappingParams mp;
    mp.numMcs = 4;
    mp.banksPerMc = 8;
    mp.linesPerRow = 16;
    mp.slicesPerMc = 4;
    AddressMapping mapping(mp);
    DramParams dp;
    dp.banksPerMc = 8;
    MemorySystem mem(4, dp, mapping);
    std::uint64_t completed = 0;
    mem.setReadCallback(
        [&completed](Addr, std::uint64_t, Cycle) { ++completed; });

    Rng rng(5);
    std::uint64_t issued = 0;
    for (Cycle c = 0; c < 30000; ++c) {
        if (issued < 2000 && rng.chance(0.4)) {
            const Addr a = rng.below(1 << 20);
            if (mem.canAccept(a)) {
                mem.access(a, rng.chance(0.3), 0, c);
                if (true)
                    ++issued; // count both; writes complete silently
            }
        }
        mem.tick(c);
        if (completed + 0 == issued && issued == 2000 &&
            mem.drained())
            break;
    }
    // Drain whatever remains.
    for (Cycle c = 30000; !mem.drained() && c < 60000; ++c)
        mem.tick(c);
    EXPECT_TRUE(mem.drained());
    EXPECT_GT(completed, 0u);
}

// ----------------------------------------- mixed-traffic network fuzz

class NetworkFuzz
    : public ::testing::TestWithParam<std::tuple<NocTopology, int>>
{
};

TEST_P(NetworkFuzz, SimultaneousRequestReplyConservation)
{
    const auto [topo, seed] = GetParam();
    NocParams p;
    p.topology = topo;
    p.numSms = 16;
    p.numClusters = 4;
    p.numMcs = 4;
    p.slicesPerMc = 4;
    auto net = makeNetwork(p);
    Rng rng(static_cast<std::uint64_t>(seed));

    int req_in = 0;
    int req_out = 0;
    int rep_in = 0;
    int rep_out = 0;
    net->setReplyHandler(
        [&rep_out](const NocMessage &m, SmId at, Cycle) {
            EXPECT_EQ(m.dst, at) << "misrouted reply";
            ++rep_out;
        });
    for (Cycle c = 0; c < 6000; ++c) {
        if (req_in < 300) {
            const SmId sm = static_cast<SmId>(rng.below(p.numSms));
            if (net->canInjectRequest(sm)) {
                NocMessage m;
                m.kind = rng.chance(0.3) ? MsgKind::WriteReq
                                         : MsgKind::ReadReq;
                m.src = sm;
                m.dst = static_cast<SliceId>(
                    rng.below(p.numSlices()));
                m.sizeBytes = m.kind == MsgKind::WriteReq ? 144 : 16;
                net->injectRequest(m, c);
                ++req_in;
            }
        }
        if (rep_in < 300) {
            const SliceId sl =
                static_cast<SliceId>(rng.below(p.numSlices()));
            if (net->canInjectReply(sl)) {
                NocMessage m;
                m.kind = MsgKind::ReadReply;
                m.src = sl;
                m.dst = static_cast<SmId>(rng.below(p.numSms));
                m.sizeBytes = 144;
                net->injectReply(m, c);
                ++rep_in;
            }
        }
        net->tick(c);
        for (SliceId s = 0; s < p.numSlices(); ++s) {
            while (net->hasRequestFor(s)) {
                ASSERT_EQ(net->popRequestFor(s, c).dst, s);
                ++req_out;
            }
        }
    }
    EXPECT_EQ(req_out, req_in);
    EXPECT_EQ(rep_out, rep_in);
    EXPECT_TRUE(net->drained());
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, NetworkFuzz,
    ::testing::Combine(::testing::Values(NocTopology::FullXbar,
                                         NocTopology::Concentrated,
                                         NocTopology::Hierarchical),
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<NocTopology, int>>
           &info) {
        return topologyName(std::get<0>(info.param)) + "_s" +
            std::to_string(std::get<1>(info.param));
    });

// ----------------------------------------------------- zipf invariants

TEST(ZipfProperty, HigherAlphaConcentratesMore)
{
    Rng rng(3);
    double prev_head = -1.0;
    for (const double alpha : {0.0, 0.4, 0.8, 1.2}) {
        ZipfSampler z(10000, alpha);
        Rng r(17);
        int head = 0;
        const int n = 20000;
        for (int i = 0; i < n; ++i)
            head += z.sample(r) < 100;
        const double frac = static_cast<double>(head) / n;
        EXPECT_GT(frac, prev_head) << "alpha " << alpha;
        prev_head = frac;
    }
}

} // namespace amsc
