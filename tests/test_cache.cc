/**
 * @file
 * Unit tests for the cache substrate: TagArray, replacement, MSHR,
 * CacheModel, ATD.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "cache/atd.hh"
#include "cache/cache_model.hh"
#include "cache/mshr.hh"
#include "cache/tag_array.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "sim/sim_config.hh"

namespace amsc
{

// ------------------------------------------------------------ TagArray

TEST(TagArray, MissThenHitAfterInsert)
{
    TagArray t(16, 4);
    EXPECT_EQ(t.probe(100), nullptr);
    Eviction ev;
    t.insert(100, 1, ev);
    EXPECT_FALSE(ev.valid);
    EXPECT_NE(t.probe(100), nullptr);
}

TEST(TagArray, LruEvictsLeastRecentlyUsed)
{
    TagArray t(1, 2); // one set, 2 ways
    Eviction ev;
    t.insert(10, 1, ev);
    t.insert(20, 2, ev);
    // Touch 10 so 20 becomes LRU.
    ASSERT_NE(t.access(10, 3), nullptr);
    t.insert(30, 4, ev);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, 20u);
    EXPECT_NE(t.probe(10), nullptr);
    EXPECT_EQ(t.probe(20), nullptr);
}

TEST(TagArray, SetIndexSeparatesConflicts)
{
    TagArray t(16, 1);
    Eviction ev;
    t.insert(3, 1, ev);
    t.insert(4, 1, ev); // different set, no conflict
    EXPECT_NE(t.probe(3), nullptr);
    EXPECT_NE(t.probe(4), nullptr);
    t.insert(3 + 16, 2, ev); // same set as 3
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, 3u);
}

TEST(TagArray, NonPowerOfTwoSets)
{
    // The 96 KB/16-way LLC slice has 48 sets.
    TagArray t(48, 16);
    Eviction ev;
    for (Addr a = 0; a < 48 * 16; ++a)
        t.insert(a, a, ev);
    EXPECT_EQ(t.numValidLines(), 48u * 16u);
    // Every line still present: perfectly balanced modulo mapping.
    for (Addr a = 0; a < 48 * 16; ++a)
        EXPECT_NE(t.probe(a), nullptr);
}

TEST(TagArray, InvalidateSingleLine)
{
    TagArray t(8, 2);
    Eviction ev;
    CacheLine *line = t.insert(5, 1, ev);
    line->dirty = true;
    const Eviction inv = t.invalidate(5);
    EXPECT_TRUE(inv.valid);
    EXPECT_TRUE(inv.dirty);
    EXPECT_EQ(t.probe(5), nullptr);
    // Invalidating a missing line reports nothing.
    EXPECT_FALSE(t.invalidate(5).valid);
}

TEST(TagArray, InvalidateAll)
{
    TagArray t(8, 2);
    Eviction ev;
    for (Addr a = 0; a < 10; ++a)
        t.insert(a, a, ev);
    t.invalidateAll();
    EXPECT_EQ(t.numValidLines(), 0u);
}

TEST(TagArray, CollectDirtyLinesClearsDirty)
{
    TagArray t(8, 2);
    Eviction ev;
    t.insert(1, 1, ev)->dirty = true;
    t.insert(2, 1, ev)->dirty = true;
    t.insert(3, 1, ev); // clean
    auto dirty = t.collectDirtyLines();
    EXPECT_EQ(dirty.size(), 2u);
    EXPECT_TRUE(t.collectDirtyLines().empty());
    // Lines stay valid after the write-back pass.
    EXPECT_EQ(t.numValidLines(), 3u);
}

TEST(TagArray, FifoIgnoresHits)
{
    TagArray t(1, 2, ReplPolicy::Fifo);
    Eviction ev;
    t.insert(10, 1, ev);
    t.insert(20, 2, ev);
    t.access(10, 3); // FIFO should not promote
    t.insert(30, 4, ev);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, 10u); // oldest inserted leaves
}

TEST(TagArray, InsertPrefersInvalidWays)
{
    TagArray t(1, 4);
    Eviction ev;
    t.insert(1, 1, ev);
    t.invalidate(1);
    t.insert(2, 2, ev);
    EXPECT_FALSE(ev.valid); // reused the invalid way
}

// ---------------------------------------------------------------- MSHR

TEST(Mshr, PrimaryThenMerge)
{
    MshrFile<int> m(4, 4);
    EXPECT_EQ(m.allocate(100, 1), MshrAllocResult::NewEntry);
    EXPECT_EQ(m.allocate(100, 2), MshrAllocResult::Merged);
    EXPECT_TRUE(m.contains(100));
    const auto targets = m.complete(100);
    ASSERT_EQ(targets.size(), 2u);
    EXPECT_EQ(targets[0], 1);
    EXPECT_EQ(targets[1], 2);
    EXPECT_FALSE(m.contains(100));
}

TEST(Mshr, EntryExhaustion)
{
    MshrFile<int> m(2, 4);
    EXPECT_EQ(m.allocate(1, 0), MshrAllocResult::NewEntry);
    EXPECT_EQ(m.allocate(2, 0), MshrAllocResult::NewEntry);
    EXPECT_EQ(m.allocate(3, 0), MshrAllocResult::NoFreeEntry);
    m.complete(1);
    EXPECT_EQ(m.allocate(3, 0), MshrAllocResult::NewEntry);
}

TEST(Mshr, TargetExhaustion)
{
    MshrFile<int> m(2, 2);
    EXPECT_EQ(m.allocate(1, 0), MshrAllocResult::NewEntry);
    EXPECT_EQ(m.allocate(1, 1), MshrAllocResult::Merged);
    EXPECT_EQ(m.allocate(1, 2), MshrAllocResult::NoFreeTarget);
    EXPECT_TRUE(m.canAllocate(2));
    EXPECT_FALSE(m.canAllocate(1));
}

TEST(Mshr, CountsAndClear)
{
    MshrFile<int> m(4, 4);
    m.allocate(1, 0);
    m.allocate(1, 1);
    m.allocate(2, 0);
    EXPECT_EQ(m.numActiveEntries(), 2u);
    EXPECT_EQ(m.numActiveTargets(), 3u);
    m.clear();
    EXPECT_EQ(m.numActiveEntries(), 0u);
}

namespace
{

/** The map layout the flat MSHR table replaced: the reference. */
struct MapMshr
{
    std::uint32_t entries;
    std::uint32_t targets;
    std::map<Addr, std::vector<int>> lines;

    MshrAllocResult
    allocate(Addr line, int t)
    {
        auto it = lines.find(line);
        if (it != lines.end()) {
            if (it->second.size() >= targets)
                return MshrAllocResult::NoFreeTarget;
            it->second.push_back(t);
            return MshrAllocResult::Merged;
        }
        if (lines.size() >= entries)
            return MshrAllocResult::NoFreeEntry;
        lines[line].push_back(t);
        return MshrAllocResult::NewEntry;
    }

    std::vector<std::uint8_t>
    ckpt() const
    {
        CkptWriter w;
        w.varint(lines.size());
        for (const auto &[line, ts] : lines) {
            w.u64(line);
            w.varint(ts.size());
            for (const int t : ts)
                ckptValue(w, t);
        }
        return w.takeBuffer();
    }
};

std::vector<std::uint8_t>
mshrBytes(const MshrFile<int> &m)
{
    CkptWriter w;
    m.saveCkpt(w);
    return w.takeBuffer();
}

} // namespace

TEST(Mshr, MatchesMapReferenceUnderRandomChurn)
{
    // Random allocate/complete/clear sequences against the map
    // reference on several geometries: every result, every completed
    // target list (in order) and the checkpoint bytes must match. The
    // line pool holds a run of four lines that share one home bucket
    // of the index plus random line-aligned addresses, and is larger
    // than the table, so the table fills, target lists fill and
    // probe runs form, wrap and get shifted back on erase.
    for (const auto &[entries, targets] :
         {std::pair<std::uint32_t, std::uint32_t>{1, 1}, {2, 3},
          {4, 4}, {16, 4}, {64, 16}}) {
        SCOPED_TRACE(std::to_string(entries) + "x" +
                     std::to_string(targets));
        MshrFile<int> m(entries, targets);
        MapMshr ref{entries, targets, {}};
        Rng rng(entries * 31 + targets);

        std::vector<Addr> pool;
        std::map<std::size_t, std::vector<Addr>> by_bucket;
        for (Addr line = 0; line < 4096 * 128; line += 128)
            by_bucket[m.homeBucket(line)].push_back(line);
        for (const auto &[bucket, lines] : by_bucket) {
            if (lines.size() >= 4) {
                pool.assign(lines.begin(), lines.begin() + 4);
                break;
            }
        }
        ASSERT_EQ(pool.size(), 4u);
        while (pool.size() < 3 * entries + 4)
            pool.push_back(rng.below(1u << 20) * 128);

        std::map<MshrAllocResult, int> outcomes;
        int next = 0;
        for (int step = 0; step < 30000; ++step) {
            // Half the picks hit the colliding run, so its target
            // lists fill.
            const Addr line = pool[rng.below(
                rng.below(2) == 0 ? 4 : pool.size())];
            const std::uint64_t op = rng.below(1000);
            if (op < 750) {
                const bool can = m.canAllocate(line);
                const MshrAllocResult want = ref.allocate(line, next);
                const MshrAllocResult got = m.allocate(line, next);
                ASSERT_EQ(got, want) << "step " << step;
                ASSERT_EQ(can, want == MshrAllocResult::NewEntry ||
                                   want == MshrAllocResult::Merged);
                ++outcomes[got];
                ++next;
            } else if (op < 999) {
                ASSERT_EQ(m.contains(line), ref.lines.count(line) != 0);
                if (!m.contains(line))
                    continue;
                const auto done = m.complete(line);
                const std::vector<int> got(done.begin(), done.end());
                ASSERT_EQ(got, ref.lines[line]) << "step " << step;
                ref.lines.erase(line);
            } else {
                m.clear();
                ref.lines.clear();
            }
            ASSERT_EQ(m.numActiveEntries(), ref.lines.size());
            ASSERT_EQ(m.hasFreeEntry(), ref.lines.size() < entries);
            if (step % 50 == 0) {
                std::size_t n = 0;
                for (const auto &[l, ts] : ref.lines)
                    n += ts.size();
                ASSERT_EQ(m.numActiveTargets(), n);
                const std::vector<std::uint8_t> bytes = ref.ckpt();
                ASSERT_EQ(mshrBytes(m), bytes) << "step " << step;
                MshrFile<int> copy(entries, targets);
                CkptReader r(bytes.data(), bytes.size());
                copy.loadCkpt(r);
                ASSERT_EQ(mshrBytes(copy), bytes);
            }
        }
        EXPECT_GT(outcomes[MshrAllocResult::NewEntry], 0);
        if (targets > 1) {
            EXPECT_GT(outcomes[MshrAllocResult::Merged], 0);
        }
        EXPECT_GT(outcomes[MshrAllocResult::NoFreeEntry], 0);
        EXPECT_GT(outcomes[MshrAllocResult::NoFreeTarget], 0);
    }
}

TEST(Mshr, LoaderRejectsCountsOverItsBounds)
{
    // A 2-entry, 2-target file: a payload at its bounds restores, one
    // more entry or one more target fails the reader, and so does a
    // repeated line.
    const auto payload = [](const std::vector<std::pair<Addr, int>> &es) {
        CkptWriter w;
        w.varint(es.size());
        for (const auto &[line, n] : es) {
            w.u64(line);
            w.varint(static_cast<std::uint64_t>(n));
            for (int t = 0; t < n; ++t)
                ckptValue(w, t);
        }
        return w.takeBuffer();
    };
    const auto load = [](const std::vector<std::uint8_t> &bytes) {
        MshrFile<int> m(2, 2);
        CkptReader r(bytes.data(), bytes.size());
        m.loadCkpt(r);
        return m.numActiveTargets();
    };
    EXPECT_EQ(load(payload({{128, 2}, {256, 2}})), 4u);
    EXPECT_THROW(load(payload({{128, 1}, {256, 1}, {384, 1}})),
                 FormatError);
    EXPECT_THROW(load(payload({{128, 3}})), FormatError);
    EXPECT_THROW(load(payload({{128, 1}, {128, 1}})), FormatError);
}

// ----------------------------------------------------------- CacheModel

namespace
{

CacheParams
smallCache(WritePolicy wp, WriteAllocPolicy wa)
{
    CacheParams p;
    p.name = "t";
    p.sizeBytes = 8 * 128; // 8 lines
    p.assoc = 2;
    p.lineBytes = 128;
    p.writePolicy = wp;
    p.writeAlloc = wa;
    return p;
}

} // namespace

TEST(CacheModel, ReadMissThenFillThenHit)
{
    CacheModel c(smallCache(WritePolicy::WriteBack,
                            WriteAllocPolicy::Allocate));
    const LookupResult r1 = c.lookup(10, false, 0, 1);
    EXPECT_FALSE(r1.hit);
    EXPECT_EQ(r1.fillAddr, 10u);
    c.fill(10, false, 0, 2);
    const LookupResult r2 = c.lookup(10, false, 0, 3);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(c.stats().readMisses, 1u);
    EXPECT_EQ(c.stats().readHits, 1u);
}

TEST(CacheModel, WriteThroughForwardsAllWrites)
{
    CacheModel c(smallCache(WritePolicy::WriteThrough,
                            WriteAllocPolicy::NoAllocate));
    // Write miss: forwarded, not installed.
    const LookupResult r1 = c.lookup(5, true, 0, 1);
    EXPECT_TRUE(r1.forwardWrite);
    EXPECT_EQ(r1.fillAddr, kNoAddr);
    EXPECT_FALSE(c.contains(5));
    // Install via a read, then write hit still forwards.
    c.lookup(5, false, 0, 2);
    c.fill(5, false, 0, 2);
    const LookupResult r2 = c.lookup(5, true, 0, 3);
    EXPECT_TRUE(r2.hit);
    EXPECT_TRUE(r2.forwardWrite);
    // Write-through never creates dirty lines.
    EXPECT_TRUE(c.collectDirtyLines().empty());
}

TEST(CacheModel, WriteBackDirtiesAndWritesBackOnEviction)
{
    CacheParams p = smallCache(WritePolicy::WriteBack,
                               WriteAllocPolicy::Allocate);
    p.sizeBytes = 2 * 128; // 1 set, 2 ways
    p.assoc = 2;
    CacheModel c(p);
    c.lookup(0, true, 0, 1);
    c.fill(0, true, 0, 1); // dirty install
    c.lookup(2, false, 0, 2);
    c.fill(2, false, 0, 2);
    // Next fill evicts line 0 (LRU) which is dirty.
    c.lookup(4, false, 0, 3);
    const FillResult f = c.fill(4, false, 0, 3);
    EXPECT_TRUE(f.writeback);
    EXPECT_EQ(f.writebackAddr, 0u);
}

TEST(CacheModel, DoubleFillIsIdempotent)
{
    CacheModel c(smallCache(WritePolicy::WriteBack,
                            WriteAllocPolicy::Allocate));
    c.lookup(9, false, 0, 1);
    c.fill(9, false, 0, 1);
    const FillResult f = c.fill(9, false, 0, 2);
    EXPECT_FALSE(f.writeback);
    EXPECT_EQ(c.stats().fills, 1u);
}

TEST(CacheModel, MissRateComputation)
{
    CacheModel c(smallCache(WritePolicy::WriteThrough,
                            WriteAllocPolicy::NoAllocate));
    c.lookup(1, false, 0, 1); // miss
    c.fill(1, false, 0, 1);
    c.lookup(1, false, 0, 2); // hit
    c.lookup(1, false, 0, 3); // hit
    c.lookup(2, false, 0, 4); // miss
    EXPECT_DOUBLE_EQ(c.stats().missRate(), 0.5);
}

TEST(CacheModel, AccessorMaskTracksClusters)
{
    CacheModel c(smallCache(WritePolicy::WriteBack,
                            WriteAllocPolicy::Allocate));
    c.lookup(3, false, 2, 1);
    c.fill(3, false, 2, 1);
    c.lookup(3, false, 5, 2);
    const CacheLine *line = c.tags().probe(3);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->accessorMask, (1u << 2) | (1u << 5));
    EXPECT_EQ(line->lastAccessor, 5u);
}

TEST(CacheModel, GeometryValidation)
{
    CacheParams p;
    p.sizeBytes = 48 * 1024;
    p.assoc = 6;
    p.lineBytes = 128;
    EXPECT_EQ(p.numSets(), 64u);
    p.sizeBytes = 96 * 1024;
    p.assoc = 16;
    EXPECT_EQ(p.numSets(), 48u);
}

// ------------------------------------------------------------------ ATD

TEST(Atd, SamplesOnlyConfiguredSets)
{
    AtdParams p;
    p.sliceSets = 48;
    p.sampledSets = 8; // stride 6: sets 0,6,...,42
    Atd atd(p);
    EXPECT_TRUE(atd.sampled(0));
    EXPECT_TRUE(atd.sampled(6));
    EXPECT_FALSE(atd.sampled(1));
    EXPECT_FALSE(atd.sampled(47));
    atd.observe(1, 0, 0); // unsampled: ignored
    EXPECT_EQ(atd.samples(), 0u);
    atd.observe(0, 0, 0);
    EXPECT_EQ(atd.samples(), 1u);
}

TEST(Atd, SharedMissRateMeasured)
{
    AtdParams p;
    p.sliceSets = 8;
    p.sampledSets = 8; // all sets sampled
    p.assoc = 2;
    Atd atd(p);
    atd.observe(0, 0, 0); // miss
    atd.observe(0, 0, 1); // hit
    atd.observe(0, 0, 2); // hit
    atd.observe(8, 0, 3); // miss (same set 0, new tag)
    EXPECT_NEAR(atd.sampledSharedMissRate(), 0.5, 1e-9);
}

TEST(Atd, PrivateHitRequiresSameRouterRevisit)
{
    AtdParams p;
    p.sliceSets = 8;
    p.sampledSets = 8;
    Atd atd(p);
    atd.observe(0, 0, 0); // install by router 0
    atd.observe(0, 1, 1); // router 1: shared hit, private miss
    atd.observe(0, 0, 2); // router 0 again: private hit
    atd.observe(0, 1, 3); // router 1 again: private hit
    EXPECT_NEAR(atd.sampledSharedMissRate(), 0.25, 1e-9);
    EXPECT_NEAR(atd.predictedPrivateMissRate(), 0.5, 1e-9);
}

TEST(Atd, SingleClusterWorkloadPredictsEqualMissRates)
{
    // When one router touches everything, the private prediction
    // converges to the shared measurement (Rule #1 territory).
    AtdParams p;
    p.sliceSets = 8;
    p.sampledSets = 8;
    Atd atd(p);
    for (int rep = 0; rep < 3; ++rep) {
        for (Addr a = 0; a < 16; ++a)
            atd.observe(a, 3, rep * 16 + a);
    }
    EXPECT_NEAR(atd.predictedPrivateMissRate(),
                atd.sampledSharedMissRate(), 1e-9);
}

TEST(Atd, ResetClearsCountersNotTags)
{
    AtdParams p;
    p.sliceSets = 8;
    p.sampledSets = 8;
    Atd atd(p);
    atd.observe(0, 0, 0);
    atd.reset();
    EXPECT_EQ(atd.samples(), 0u);
    // Tag survives: next observe is a hit.
    atd.observe(0, 0, 1);
    EXPECT_NEAR(atd.sampledSharedMissRate(), 0.0, 1e-9);
}

TEST(Atd, HardwareCostMatchesPaperScale)
{
    AtdParams p; // 8 sets x 16 ways, 8 routers
    Atd atd(p);
    // Paper: 432 bytes for the ATD.
    EXPECT_EQ(atd.hardwareCostBytes(19), 432u);

    // Paper: 448 bytes of reconfiguration hardware in total -- the
    // default config's ATD plus one 16-bit LSP counter per MC.
    const SimConfig cfg;
    const Atd sized(cfg.buildLlcParams().profiler.atd);
    EXPECT_EQ(sized.hardwareCostBytes() + cfg.numMcs * 2u, 448u);
}

TEST(Atd, LruReplacementWithinSampledSet)
{
    AtdParams p;
    p.sliceSets = 8;
    p.sampledSets = 8;
    p.assoc = 2;
    Atd atd(p);
    atd.observe(0, 0, 0);  // set 0
    atd.observe(8, 0, 1);  // set 0, second way
    atd.observe(16, 0, 2); // evicts tag 0
    atd.observe(0, 0, 3);  // miss again
    EXPECT_EQ(atd.samples(), 4u);
    EXPECT_NEAR(atd.sampledSharedMissRate(), 1.0, 1e-9);
}

} // namespace amsc
