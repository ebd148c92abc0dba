/**
 * @file
 * Unit tests for NoC building blocks: arbiter, channel, endpoint
 * adapters, router.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hh"
#include "noc/arbiter.hh"
#include "noc/channel.hh"
#include "noc/concentrator.hh"
#include "noc/endpoint.hh"
#include "noc/router.hh"

namespace amsc
{

// -------------------------------------------------------------- Arbiter

namespace
{

/** Grant among the asserted bits of @p req. */
std::uint32_t
grantBits(RoundRobinArbiter &arb, const std::vector<bool> &req)
{
    return arb.grant([&req](std::uint32_t i) { return req[i]; });
}

} // namespace

TEST(Arbiter, GrantsOnlyRequesters)
{
    RoundRobinArbiter arb(4);
    std::vector<bool> req{false, true, false, false};
    EXPECT_EQ(grantBits(arb, req), 1u);
    req[1] = false;
    EXPECT_EQ(grantBits(arb, req), 4u); // none
}

TEST(Arbiter, RoundRobinIsFair)
{
    RoundRobinArbiter arb(3);
    std::vector<bool> req{true, true, true};
    std::vector<int> wins(3, 0);
    for (int i = 0; i < 300; ++i)
        ++wins[grantBits(arb, req)];
    EXPECT_EQ(wins[0], 100);
    EXPECT_EQ(wins[1], 100);
    EXPECT_EQ(wins[2], 100);
}

TEST(Arbiter, PointerAdvancesPastWinner)
{
    RoundRobinArbiter arb(4);
    std::vector<bool> req{true, false, false, true};
    EXPECT_EQ(grantBits(arb, req), 0u);
    // Pointer now at 1: next grant must pick 3 before 0.
    EXPECT_EQ(grantBits(arb, req), 3u);
    EXPECT_EQ(grantBits(arb, req), 0u);
}

TEST(Arbiter, PointerHoldsWithoutGrant)
{
    RoundRobinArbiter arb(4);
    std::vector<bool> none{false, false, false, false};
    grantBits(arb, none);
    EXPECT_EQ(arb.pointer(), 0u);
}

// -------------------------------------------------------------- Channel

TEST(Channel, CreditsLimitInFlight)
{
    FlitChannel ch(2, 1, 2, 1.0, 32);
    EXPECT_TRUE(ch.canSend());
    ch.send(Flit{}, 0);
    ch.send(Flit{}, 0);
    EXPECT_FALSE(ch.canSend());
}

TEST(Channel, FlitArrivesAfterLatency)
{
    FlitChannel ch(3, 1, 4, 1.0, 32);
    Flit f;
    f.head = true;
    ch.send(f, 10);
    EXPECT_FALSE(ch.hasArrival(12));
    EXPECT_TRUE(ch.hasArrival(13));
    const Flit out = ch.receive(13);
    EXPECT_TRUE(out.head);
}

TEST(Channel, CreditReturnRestoresBudget)
{
    FlitChannel ch(1, 2, 1, 1.0, 32);
    ch.send(Flit{}, 0);
    EXPECT_FALSE(ch.canSend());
    ch.receive(1);
    ch.returnCredit(1); // arrives at sender at cycle 3
    ch.tickSender(2);
    EXPECT_FALSE(ch.canSend());
    ch.tickSender(3);
    EXPECT_TRUE(ch.canSend());
}

TEST(Channel, QuiescentTracksInFlight)
{
    FlitChannel ch(1, 1, 4, 1.0, 32);
    EXPECT_TRUE(ch.quiescent());
    ch.send(Flit{}, 0);
    EXPECT_FALSE(ch.quiescent());
    ch.receive(1);
    ch.returnCredit(1);
    EXPECT_FALSE(ch.quiescent()); // credit still in flight
    ch.tickSender(2);
    EXPECT_TRUE(ch.quiescent());
}

TEST(Channel, ActivityCountsTraversals)
{
    FlitChannel ch(1, 1, 8, 12.3, 32);
    ch.send(Flit{}, 0);
    ch.send(Flit{}, 1);
    EXPECT_EQ(ch.activity().flitTraversals, 2u);
    EXPECT_DOUBLE_EQ(ch.activity().lengthMm, 12.3);
}

// ------------------------------------------------------------ Endpoints

TEST(Endpoint, PacketizationFlitCounts)
{
    PacketFormat fmt;
    NocMessage m;
    m.kind = MsgKind::ReadReq;
    m.sizeBytes = fmt.sizeOf(MsgKind::ReadReq);
    EXPECT_EQ(m.numFlits(32), 1u);
    m.sizeBytes = fmt.sizeOf(MsgKind::ReadReply);
    EXPECT_EQ(m.numFlits(32), 5u); // 144 B / 32 B
    EXPECT_EQ(m.numFlits(16), 9u);
    EXPECT_EQ(m.numFlits(64), 3u);
}

TEST(Endpoint, InjectThenEjectRoundTrip)
{
    FlitChannel ch(1, 1, 8, 1.0, 32);
    InjectionAdapter inj(&ch, 32, 4);
    EjectionAdapter ej(&ch, 4);

    NocMessage m;
    m.kind = MsgKind::ReadReply;
    m.sizeBytes = 144; // 5 flits
    m.dst = 3;
    m.token = 99;
    inj.accept(m, 0);

    Cycle c = 0;
    while (!ej.hasMessage() && c < 50) {
        inj.tick(c);
        ej.tick(c);
        ++c;
    }
    ASSERT_TRUE(ej.hasMessage());
    const NocMessage out = ej.pop();
    EXPECT_EQ(out.token, 99u);
    EXPECT_EQ(out.dst, 3u);
    // 5 flits at 1 per cycle + wire latency.
    EXPECT_GE(c, 5u);
    EXPECT_TRUE(inj.drained());
    EXPECT_TRUE(ej.drained());
}

TEST(Endpoint, EjectionBackpressureStopsReceiving)
{
    FlitChannel ch(1, 1, 4, 1.0, 32);
    InjectionAdapter inj(&ch, 32, 8);
    EjectionAdapter ej(&ch, 1); // single-message queue

    for (int i = 0; i < 3; ++i) {
        NocMessage m;
        m.sizeBytes = 16; // 1 flit
        m.token = static_cast<std::uint64_t>(i);
        inj.accept(m, 0);
    }
    for (Cycle c = 0; c < 30; ++c) {
        inj.tick(c);
        ej.tick(c);
    }
    // Only one message fits; the rest is stuck behind backpressure.
    EXPECT_TRUE(ej.hasMessage());
    EXPECT_EQ(ej.queueSize(), 1u);
    EXPECT_FALSE(inj.drained() && ch.quiescent());
    // Draining the consumer unblocks the pipeline.
    EXPECT_EQ(ej.pop().token, 0u);
    for (Cycle c = 30; c < 60; ++c) {
        inj.tick(c);
        ej.tick(c);
        if (ej.hasMessage() && ej.queueSize() == 1)
            ej.pop();
    }
    EXPECT_TRUE(inj.drained());
}

TEST(Endpoint, InjectionQueueCapacity)
{
    FlitChannel ch(1, 1, 4, 1.0, 32);
    InjectionAdapter inj(&ch, 32, 2);
    NocMessage m;
    m.sizeBytes = 16;
    inj.accept(m, 0);
    inj.accept(m, 0);
    EXPECT_FALSE(inj.canAccept());
}

// --------------------------------------------------------- Concentrator

TEST(Concentrator, RoundRobinAmongSources)
{
    FlitChannel ch(1, 1, 8, 1.0, 32);
    ConcentratorAdapter conc(&ch, 32, 2, 4);
    EjectionAdapter ej(&ch, 8);

    NocMessage m;
    m.sizeBytes = 16;
    m.token = 100;
    conc.accept(0, m, 0);
    m.token = 200;
    conc.accept(1, m, 0);
    m.token = 101;
    conc.accept(0, m, 0);

    std::vector<std::uint64_t> order;
    for (Cycle c = 0; c < 30; ++c) {
        conc.tick(c);
        ej.tick(c);
        while (ej.hasMessage())
            order.push_back(ej.pop().token);
    }
    ASSERT_EQ(order.size(), 3u);
    // Fair interleave: 100, 200, 101.
    EXPECT_EQ(order[0], 100u);
    EXPECT_EQ(order[1], 200u);
    EXPECT_EQ(order[2], 101u);
}

TEST(Concentrator, PacketsNeverInterleave)
{
    FlitChannel ch(1, 1, 8, 1.0, 32);
    ConcentratorAdapter conc(&ch, 32, 2, 4);
    // Multi-flit packets from both sources.
    NocMessage m;
    m.sizeBytes = 144; // 5 flits
    m.token = 1;
    conc.accept(0, m, 0);
    m.token = 2;
    conc.accept(1, m, 0);

    // Drain raw flits and check head/tail bracketing.
    int in_packet = 0;
    int completed = 0;
    for (Cycle c = 0; c < 40; ++c) {
        conc.tick(c);
        while (ch.hasArrival(c)) {
            const Flit f = ch.receive(c);
            ch.returnCredit(c);
            if (f.head) {
                EXPECT_EQ(in_packet, 0);
                in_packet = 1;
            }
            if (f.tail) {
                EXPECT_EQ(in_packet, 1);
                in_packet = 0;
                ++completed;
            }
        }
    }
    EXPECT_EQ(completed, 2);
}

TEST(Distributor, RoutesToLocalQueues)
{
    FlitChannel ch(1, 1, 8, 1.0, 32);
    InjectionAdapter inj(&ch, 32, 8);
    // dst -> local queue: dst % 2 over destinations 0..5.
    DistributorAdapter dist(&ch, 2, 4, {0, 1, 0, 1, 0, 1});
    NocMessage m;
    m.sizeBytes = 16;
    m.dst = 5; // local 1
    inj.accept(m, 0);
    m.dst = 4; // local 0
    inj.accept(m, 0);
    for (Cycle c = 0; c < 20; ++c) {
        inj.tick(c);
        dist.tick(c);
    }
    ASSERT_TRUE(dist.hasMessage(0));
    ASSERT_TRUE(dist.hasMessage(1));
    EXPECT_EQ(dist.pop(1).dst, 5u);
    EXPECT_EQ(dist.pop(0).dst, 4u);
}

// --------------------------------------------- checkpoint loader bounds

namespace
{

/** @p n default messages as a queue payload. */
void
writeQueue(CkptWriter &w, std::uint64_t n)
{
    w.varint(n);
    for (std::uint64_t i = 0; i < n; ++i)
        ckptValue(w, NocMessage{});
}

/** Load @p w's bytes into @p c; true when the reader accepts them. */
template <typename C>
bool
loads(C &c, const CkptWriter &w)
{
    CkptReader r(w.buffer().data(), w.buffer().size());
    try {
        c.loadCkpt(r);
    } catch (const FormatError &) {
        return false;
    }
    return true;
}

} // namespace

TEST(CkptBounds, InjectionQueueCap)
{
    // Queue cap 2: two messages restore, three fail the reader.
    FlitChannel ch(1, 1, 8, 1.0, 32);
    InjectionAdapter inj(&ch, 32, 2);
    for (std::uint64_t n : {2, 3}) {
        CkptWriter w;
        writeQueue(w, n);
        w.u32(0);
        EXPECT_EQ(loads(inj, w), n == 2) << n;
    }
    // A packet cursor with nothing queued also fails.
    CkptWriter w;
    writeQueue(w, 0);
    w.u32(1);
    EXPECT_FALSE(loads(inj, w));
}

TEST(CkptBounds, EjectionQueueCap)
{
    FlitChannel ch(1, 1, 8, 1.0, 32);
    EjectionAdapter ej(&ch, 2);
    for (std::uint64_t n : {2, 3}) {
        CkptWriter w;
        writeQueue(w, n);
        ckptValue(w, NocMessage{});
        EXPECT_EQ(loads(ej, w), n == 2) << n;
    }
}

TEST(CkptBounds, ConcentratorQueueCapAndCursor)
{
    // Two sources, cap 2 each; the second source's queue carries the
    // count under test.
    FlitChannel ch(1, 1, 8, 1.0, 32);
    ConcentratorAdapter conc(&ch, 32, 2, 2);
    const auto payload = [](std::uint64_t n, std::uint32_t cursor) {
        CkptWriter w;
        writeQueue(w, 0);
        writeQueue(w, n);
        w.u32(0);      // arbiter pointer
        w.u32(cursor); // current source
        w.u32(0);      // flits sent
        return w;
    };
    EXPECT_TRUE(loads(conc, payload(2, kInvalidId)));
    EXPECT_TRUE(loads(conc, payload(2, 1)));
    EXPECT_FALSE(loads(conc, payload(3, kInvalidId)));
    // A cursor on an empty queue would make tick() read its front.
    EXPECT_FALSE(loads(conc, payload(2, 0)));
    EXPECT_FALSE(loads(conc, payload(2, 2)));
}

TEST(CkptBounds, DistributorQueueCap)
{
    FlitChannel ch(1, 1, 8, 1.0, 32);
    DistributorAdapter dist(&ch, 2, 2, {0, 1});
    for (std::uint64_t n : {2, 3}) {
        CkptWriter w;
        writeQueue(w, n);
        writeQueue(w, 0);
        ckptValue(w, NocMessage{});
        w.u32(0);
        w.b(false);
        EXPECT_EQ(loads(dist, w), n == 2) << n;
    }
}

TEST(CkptBounds, ChannelCredits)
{
    // Four credits: flits or credit returns in flight past four, or
    // more banked credits than that, fail the reader.
    FlitChannel ch(1, 1, 4, 1.0, 32);
    const auto payload = [](std::uint32_t credits, std::uint64_t flits) {
        CkptWriter w;
        w.u32(credits);
        w.varint(flits);
        for (std::uint64_t i = 0; i < flits; ++i) {
            w.u64(1);
            ckptValue(w, Flit{});
        }
        w.varint(0); // credit returns
        w.u64(0);    // traversals
        return w;
    };
    EXPECT_TRUE(loads(ch, payload(0, 4)));
    EXPECT_FALSE(loads(ch, payload(0, 5)));
    EXPECT_FALSE(loads(ch, payload(5, 0)));
}

// ---------------------------------------------------------------- Router

namespace
{

/** 2x2 router harness with manual channels. */
struct RouterRig
{
    RouterParams rp;
    std::vector<FlitChannel> in;
    std::vector<FlitChannel> out;
    Router router;

    explicit RouterRig(std::uint32_t ports = 2, bool gateable = false)
        : rp(makeParams(ports, gateable)),
          in(ports, FlitChannel(1, 1, rp.vcDepthFlits, 1.0, 32)),
          out(ports, FlitChannel(1, 1, 8, 1.0, 32)),
          router(rp, identityRoutes(ports))
    {
        for (std::uint32_t p = 0; p < ports; ++p) {
            router.connectInput(p, &in[p]);
            router.connectOutput(p, &out[p]);
        }
    }

    /** Route table sending dst d to output d. */
    static std::vector<std::uint32_t>
    identityRoutes(std::uint32_t ports)
    {
        std::vector<std::uint32_t> routes(ports);
        for (std::uint32_t d = 0; d < ports; ++d)
            routes[d] = d;
        return routes;
    }

    static RouterParams
    makeParams(std::uint32_t ports, bool gateable)
    {
        RouterParams rp;
        rp.numInPorts = ports;
        rp.numOutPorts = ports;
        rp.gateable = gateable;
        return rp;
    }

    void
    tickAll(Cycle c)
    {
        router.tick(c);
        for (auto &ch : in)
            ch.tickSender(c);
    }
};

Flit
headTail(std::uint32_t dst)
{
    Flit f;
    f.head = true;
    f.tail = true;
    f.msg.dst = dst;
    f.msg.sizeBytes = 16;
    return f;
}

} // namespace

TEST(Router, SingleFlitTraversalLatency)
{
    RouterRig rig;
    rig.in[0].send(headTail(1), 0);
    Cycle arrived = 0;
    for (Cycle c = 0; c < 20 && arrived == 0; ++c) {
        rig.tickAll(c);
        if (rig.out[1].hasArrival(c))
            arrived = c;
    }
    // wire(1) + pipeline(3) + ST grant + wire(1) ~= 6 cycles.
    EXPECT_GT(arrived, 3u);
    EXPECT_LE(arrived, 8u);
    EXPECT_EQ(rig.router.activity().xbarTraversals, 1u);
}

TEST(Router, OutputContentionSerializes)
{
    RouterRig rig;
    rig.in[0].send(headTail(0), 0);
    rig.in[1].send(headTail(0), 0);
    int delivered = 0;
    for (Cycle c = 0; c < 30; ++c) {
        rig.tickAll(c);
        while (rig.out[0].hasArrival(c)) {
            rig.out[0].receive(c);
            rig.out[0].returnCredit(c);
            ++delivered;
        }
    }
    EXPECT_EQ(delivered, 2);
    EXPECT_EQ(rig.router.activity().bufferWrites, 2u);
}

TEST(Router, WormholeHoldsOutputForWholePacket)
{
    RouterRig rig;
    // 3-flit packet from input 0 and a competing packet from input 1,
    // both to output 0.
    Flit h;
    h.head = true;
    h.msg.dst = 0;
    Flit b;
    Flit t;
    t.tail = true;
    rig.in[0].send(h, 0);
    rig.in[0].send(b, 1);
    rig.in[0].send(t, 2);
    rig.in[1].send(headTail(0), 0);

    std::vector<int> source_order;
    int seen = 0;
    for (Cycle c = 0; c < 40 && seen < 4; ++c) {
        rig.tickAll(c);
        while (rig.out[0].hasArrival(c)) {
            const Flit f = rig.out[0].receive(c);
            rig.out[0].returnCredit(c);
            // Identify source by head/tail pattern: competing packet
            // is the single head+tail flit.
            source_order.push_back(f.head && f.tail ? 1 : 0);
            ++seen;
        }
    }
    ASSERT_EQ(seen, 4);
    // The 3 flits of packet 0 must be contiguous.
    for (std::size_t i = 0; i < source_order.size(); ++i) {
        if (source_order[i] == 1) {
            EXPECT_TRUE(i == 0 || i == 3);
        }
    }
}

TEST(Router, BackpressureWhenNoCredit)
{
    RouterRig rig;
    // Stream 12 packets toward output 1 whose ejection never
    // returns credits (depth 8): at most 8 flits may cross.
    int sent = 0;
    for (Cycle c = 0; c < 60; ++c) {
        if (sent < 12 && rig.in[0].canSend()) {
            rig.in[0].send(headTail(1), c);
            ++sent;
        }
        rig.tickAll(c);
        // Return input-side credits so injection keeps flowing.
    }
    EXPECT_LE(rig.out[1].activity().flitTraversals, 8u);
    EXPECT_FALSE(rig.router.drained());
}

TEST(Router, BypassConnectsIToI)
{
    RouterRig rig(2, true);
    rig.router.setBypass(true);
    // In bypass, routing is positional: flit at input 0 exits output
    // 0 even though its dst says 1.
    rig.in[0].send(headTail(1), 0);
    bool at0 = false;
    bool at1 = false;
    for (Cycle c = 0; c < 20; ++c) {
        rig.tickAll(c);
        at0 = at0 || rig.out[0].hasArrival(c);
        at1 = at1 || rig.out[1].hasArrival(c);
    }
    EXPECT_TRUE(at0);
    EXPECT_FALSE(at1);
    EXPECT_EQ(rig.router.activity().bypassTraversals, 1u);
    EXPECT_EQ(rig.router.activity().xbarTraversals, 0u);
    EXPECT_GT(rig.router.activity().gatedCycles, 0u);
}

TEST(Router, BypassFasterThanPipeline)
{
    RouterRig normal(2, true);
    RouterRig gated(2, true);
    gated.router.setBypass(true);

    normal.in[0].send(headTail(0), 0);
    gated.in[0].send(headTail(0), 0);
    Cycle t_normal = 0;
    Cycle t_gated = 0;
    for (Cycle c = 0; c < 20; ++c) {
        normal.tickAll(c);
        gated.tickAll(c);
        if (t_normal == 0 && normal.out[0].hasArrival(c))
            t_normal = c;
        if (t_gated == 0 && gated.out[0].hasArrival(c))
            t_gated = c;
    }
    EXPECT_LT(t_gated, t_normal);
}

} // namespace amsc
