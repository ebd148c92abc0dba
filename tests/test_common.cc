/**
 * @file
 * Unit tests for the common substrate: Rng/Zipf, DelayQueue, stats,
 * KvArgs.
 */

#include <gtest/gtest.h>

#include <deque>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "common/ckpt.hh"
#include "common/delay_queue.hh"
#include "common/error.hh"
#include "common/kvargs.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace amsc
{

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowIsInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = r.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo = saw_lo || v == 3;
        saw_hi = saw_hi || v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformMeanIsHalf)
{
    Rng r(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ChanceEdgeCases)
{
    Rng r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceFrequencyMatchesProbability)
{
    Rng r(17);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng parent(21);
    Rng child = parent.split();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += parent.next() == child.next();
    EXPECT_LT(same, 3);
}

TEST(Zipf, UniformWhenAlphaZero)
{
    ZipfSampler z(10, 0.0);
    Rng r(3);
    std::vector<int> counts(10, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[z.sample(r)];
    for (int c : counts)
        EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.02);
}

TEST(Zipf, SkewConcentratesOnLowRanks)
{
    ZipfSampler z(1000, 1.0);
    Rng r(5);
    int head = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        head += z.sample(r) < 10;
    // With alpha=1 the top-10 of 1000 should hold ~39% of draws.
    EXPECT_GT(static_cast<double>(head) / n, 0.3);
}

TEST(Zipf, SamplesAlwaysInRange)
{
    ZipfSampler z(37, 0.8);
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(z.sample(r), 37u);
}

TEST(Zipf, LargePopulationBucketed)
{
    // Populations beyond the CDF cap still sample the full range.
    ZipfSampler z(1 << 20, 0.6);
    Rng r(9);
    std::uint64_t max_seen = 0;
    for (int i = 0; i < 100000; ++i)
        max_seen = std::max(max_seen, z.sample(r));
    EXPECT_LT(max_seen, 1u << 20);
    EXPECT_GT(max_seen, 1u << 16);
}

// --------------------------------------------------------- DelayQueue

TEST(DelayQueue, ItemInvisibleUntilReady)
{
    DelayQueue<int> q;
    q.push(42, 10, 5);
    EXPECT_FALSE(q.ready(10));
    EXPECT_FALSE(q.ready(14));
    EXPECT_TRUE(q.ready(15));
    EXPECT_EQ(q.pop(15), 42);
}

TEST(DelayQueue, FifoOrderPreserved)
{
    DelayQueue<int> q;
    q.push(1, 0, 3);
    q.push(2, 1, 3);
    q.push(3, 2, 3);
    EXPECT_EQ(q.pop(10), 1);
    EXPECT_EQ(q.pop(10), 2);
    EXPECT_EQ(q.pop(10), 3);
}

TEST(DelayQueue, CapacityEnforced)
{
    DelayQueue<int> q(2);
    EXPECT_FALSE(q.full());
    q.push(1, 0, 1);
    q.push(2, 0, 1);
    EXPECT_TRUE(q.full());
    q.pop(5);
    EXPECT_FALSE(q.full());
}

TEST(DelayQueue, ZeroLatencyVisibleSameCycle)
{
    DelayQueue<int> q;
    q.push(7, 4, 0);
    EXPECT_TRUE(q.ready(4));
}

TEST(DelayQueue, OutOfOrderReadyCyclesClampToFifoOrder)
{
    // The LLC slice pushes hit replies at hitLatency (e.g. 30) and
    // fill replies at 1..n cycles: the later push can have the
    // *earlier* raw ready cycle. The queue must stay FIFO and clamp
    // the successor to its predecessor's ready cycle -- this used to
    // trip an ordering assert in Debug builds (llc_slice.cc
    // replyQueue_) while being benign in Release, because pop() only
    // exposes the front anyway.
    DelayQueue<int> q;
    q.push(1, 0, 30); // ready at 30
    q.push(2, 5, 1);  // raw ready 6 < 30: clamped to 30
    q.push(3, 6, 100); // ready at 106
    EXPECT_FALSE(q.ready(29));
    EXPECT_EQ(q.frontReadyCycle(), 30u);
    EXPECT_EQ(q.pop(30), 1);
    // The clamped item is ready the same cycle its predecessor was,
    // exactly as the unclamped FIFO would have exposed it.
    EXPECT_TRUE(q.ready(30));
    EXPECT_EQ(q.frontReadyCycle(), 30u);
    EXPECT_EQ(q.pop(30), 2);
    EXPECT_FALSE(q.ready(105));
    EXPECT_EQ(q.pop(106), 3);
}

TEST(DelayQueue, ClearEmpties)
{
    DelayQueue<int> q;
    q.push(1, 0, 1);
    q.push(2, 0, 1);
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
}

TEST(DelayQueue, ForEachVisitsAll)
{
    DelayQueue<int> q;
    q.push(1, 0, 1);
    q.push(2, 0, 1);
    int sum = 0;
    q.forEach([&sum](const int &v) { sum += v; });
    EXPECT_EQ(sum, 3);
}

namespace
{

std::vector<std::uint8_t>
queueBytes(const DelayQueue<int> &q)
{
    CkptWriter w;
    q.saveCkpt(w);
    return w.takeBuffer();
}

} // namespace

TEST(DelayQueue, RingWrapsManyTimesInFifoOrder)
{
    // Capacity 5 sits in a ring of 8 slots. Pushing up to three and
    // popping up to two items per cycle walks the head across the
    // wrap point hundreds of times; every pop must match a plain
    // FIFO reference, and a checkpoint taken mid-wrap must restore
    // the same bytes and the same pops.
    DelayQueue<int> q(5);
    std::deque<std::pair<Cycle, int>> ref;
    Rng rng(17);
    int next = 0;
    int popped = 0;
    for (Cycle now = 0; now < 4000; ++now) {
        for (std::uint64_t k = rng.below(4); k > 0 && !q.full(); --k) {
            const Cycle lat = rng.below(3);
            Cycle ready = now + lat;
            if (!ref.empty() && ref.back().first > ready)
                ready = ref.back().first;
            q.push(next, now, lat);
            ref.emplace_back(ready, next++);
        }
        ASSERT_EQ(q.size(), ref.size());
        for (int k = 0; k < 2 && q.ready(now); ++k) {
            ASSERT_EQ(q.frontReadyCycle(), ref.front().first);
            ASSERT_EQ(q.pop(now), ref.front().second);
            ref.pop_front();
            ++popped;
        }
        ASSERT_EQ(q.ready(now), !ref.empty() && ref.front().first <= now);
        if (now % 97 == 0) {
            const std::vector<std::uint8_t> bytes = queueBytes(q);
            DelayQueue<int> copy(5);
            CkptReader r(bytes.data(), bytes.size());
            copy.loadCkpt(r);
            EXPECT_TRUE(r.atEnd());
            ASSERT_EQ(queueBytes(copy), bytes);
            std::vector<int> a;
            std::vector<int> b;
            q.forEach([&a](const int &v) { a.push_back(v); });
            copy.forEach([&b](const int &v) { b.push_back(v); });
            ASSERT_EQ(a, b);
        }
    }
    EXPECT_GT(popped, 2000);
}

TEST(DelayQueue, UnboundedQueueGrowsAcrossTheWrapPoint)
{
    // Each round pushes three and pops two, so the ring doubles
    // while its head is off slot 0 and its contents wrap; a final
    // burst grows it again. Order must survive every growth.
    DelayQueue<int> q;
    int next = 0;
    int expect = 0;
    for (int round = 0; round < 50; ++round) {
        for (int k = 0; k < 3; ++k)
            q.push(next++, round, 0);
        for (int k = 0; k < 2; ++k)
            ASSERT_EQ(q.pop(round), expect++);
    }
    for (int k = 0; k < 100; ++k)
        q.push(next++, 50, 0);
    while (!q.empty())
        ASSERT_EQ(q.pop(50), expect++);
    EXPECT_EQ(expect, next);
}

TEST(DelayQueue, LoaderRejectsCountOverCapacity)
{
    DelayQueue<int> q(2);
    for (int n = 2; n <= 3; ++n) {
        CkptWriter w;
        w.varint(static_cast<std::uint64_t>(n));
        for (int i = 0; i < n; ++i) {
            w.u64(10);
            w.pod(i);
        }
        CkptReader r(w.buffer().data(), w.buffer().size());
        if (n == 2) {
            q.loadCkpt(r);
            EXPECT_EQ(q.size(), 2u);
        } else {
            EXPECT_THROW(q.loadCkpt(r), FormatError);
        }
    }
}

// ---------------------------------------------------------- byte codec

TEST(CkptCodec, VarintRoundTrip)
{
    const std::uint64_t values[] = {
        0,   1,   127, 128,  129,   16383, 16384, 1ULL << 32,
        ~0ULL, 0x9e3779b97f4a7c15ULL};
    for (const std::uint64_t v : values) {
        CkptWriter w;
        w.varint(v);
        CkptReader r(w.buffer().data(), w.size());
        EXPECT_EQ(r.varint(), v);
        EXPECT_TRUE(r.atEnd());
    }
}

TEST(CkptCodec, VarintRejectsTruncation)
{
    CkptWriter w;
    w.varint(1ULL << 40);
    CkptReader r(w.buffer().data(), w.size() - 1);
    EXPECT_THROW(r.varint(), FormatError);
}

TEST(CkptCodec, VarintRejectsOverflow)
{
    // A 10-byte encoding whose final byte carries bits that cannot
    // fit in 64 bits must be rejected, not silently truncated.
    std::vector<std::uint8_t> buf(9, 0x80);
    buf.push_back(0x7e);
    CkptReader r(buf.data(), buf.size());
    EXPECT_THROW(r.varint(), FormatError);
}

TEST(CkptCodec, ZigzagRoundTrip)
{
    const std::int64_t values[] = {0, 1, -1, 63, -64, 1 << 20,
                                   -(1 << 20),
                                   std::numeric_limits<std::int64_t>::max(),
                                   std::numeric_limits<std::int64_t>::min()};
    for (const std::int64_t v : values) {
        CkptWriter w;
        w.svarint(v);
        CkptReader r(w.buffer().data(), w.size());
        EXPECT_EQ(r.svarint(), v);
        EXPECT_TRUE(r.atEnd());
    }
    // Zigzag keeps small magnitudes of either sign to one byte.
    CkptWriter w;
    w.svarint(-64);
    w.svarint(63);
    EXPECT_EQ(w.size(), 2u);
}

// --------------------------------------------------------------- Stats

TEST(Stats, CounterRegistrationAndDump)
{
    StatSet set("test");
    std::uint64_t counter = 41;
    set.addCounter("c", "a counter", counter);
    ++counter;
    std::ostringstream os;
    set.dump(os);
    EXPECT_NE(os.str().find("test.c"), std::string::npos);
    EXPECT_NE(os.str().find("42"), std::string::npos);
}

TEST(Stats, FindResolvesValue)
{
    StatSet set("g");
    double x = 1.5;
    set.addScalar("x", "", x);
    double v = 0;
    EXPECT_TRUE(set.find("x", v));
    EXPECT_DOUBLE_EQ(v, 1.5);
    EXPECT_FALSE(set.find("missing", v));
}

TEST(Stats, ChildGroupsDumpWithPrefix)
{
    StatSet parent("p");
    StatSet child("c");
    std::uint64_t n = 3;
    child.addCounter("n", "", n);
    parent.addChild(&child);
    std::ostringstream os;
    parent.dump(os);
    EXPECT_NE(os.str().find("p.c.n"), std::string::npos);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h({1.0, 2.0, 4.0});
    h.record(0.5);
    h.record(1.5);
    h.record(3.0);
    h.record(100.0); // overflow
    EXPECT_EQ(h.numBuckets(), 4u);
    EXPECT_DOUBLE_EQ(h.bucketCount(0), 1.0);
    EXPECT_DOUBLE_EQ(h.bucketCount(1), 1.0);
    EXPECT_DOUBLE_EQ(h.bucketCount(2), 1.0);
    EXPECT_DOUBLE_EQ(h.bucketCount(3), 1.0);
    EXPECT_DOUBLE_EQ(h.bucketFraction(0), 0.25);
}

TEST(Histogram, WeightsAndMean)
{
    Histogram h({10.0});
    h.record(2.0, 3.0); // weight 3
    h.record(8.0, 1.0);
    EXPECT_DOUBLE_EQ(h.total(), 4.0);
    EXPECT_DOUBLE_EQ(h.mean(), (2.0 * 3 + 8.0) / 4.0);
    h.clear();
    EXPECT_DOUBLE_EQ(h.total(), 0.0);
}

TEST(Means, HarmonicGeometricArithmetic)
{
    const std::vector<double> v{1.0, 2.0, 4.0};
    EXPECT_NEAR(mean(v), 7.0 / 3.0, 1e-12);
    EXPECT_NEAR(harmonicMean(v), 3.0 / (1.0 + 0.5 + 0.25), 1e-12);
    EXPECT_NEAR(geometricMean(v), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(harmonicMean({}), 0.0);
}

// -------------------------------------------------------------- KvArgs

TEST(KvArgs, ParsesKeyValuesAndPositionals)
{
    const KvArgs args =
        KvArgs::parse({"alpha=1", "pos0", "beta=x", "gamma=2.5"});
    EXPECT_TRUE(args.has("alpha"));
    EXPECT_EQ(args.getInt("alpha", 0), 1);
    EXPECT_EQ(args.getString("beta", ""), "x");
    EXPECT_DOUBLE_EQ(args.getDouble("gamma", 0.0), 2.5);
    ASSERT_EQ(args.positionals().size(), 1u);
    EXPECT_EQ(args.positionals()[0], "pos0");
}

TEST(KvArgs, DefaultsWhenAbsent)
{
    const KvArgs args = KvArgs::parse(std::vector<std::string>{});
    EXPECT_EQ(args.getInt("x", 7), 7);
    EXPECT_EQ(args.getString("y", "d"), "d");
    EXPECT_TRUE(args.getBool("z", true));
}

TEST(KvArgs, BoolForms)
{
    const KvArgs args = KvArgs::parse(
        {"a=1", "b=true", "c=no", "d=off", "e=YES"});
    EXPECT_TRUE(args.getBool("a", false));
    EXPECT_TRUE(args.getBool("b", false));
    EXPECT_FALSE(args.getBool("c", true));
    EXPECT_FALSE(args.getBool("d", true));
    EXPECT_TRUE(args.getBool("e", false));
}

TEST(KvArgs, UnusedKeysReported)
{
    const KvArgs args = KvArgs::parse({"used=1", "unused=2"});
    (void)args.getInt("used", 0);
    const auto unused = args.unusedKeys();
    ASSERT_EQ(unused.size(), 1u);
    EXPECT_EQ(unused[0], "unused");
}

TEST(KvArgs, HexIntegers)
{
    const KvArgs args = KvArgs::parse({"addr=0x40"});
    EXPECT_EQ(args.getInt("addr", 0), 0x40);
}

} // namespace amsc
