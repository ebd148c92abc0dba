/**
 * @file
 * Unit tests for NoC building blocks: arbiter, channel, source and
 * sink ports, router.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hh"
#include "noc/arbiter.hh"
#include "noc/channel.hh"
#include "noc/port.hh"
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

// ---------------------------------------------------------------- Ports

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

namespace
{

/**
 * A source port and a sink port over one channel, each serving the
 * same number of endpoints: @p n queues per side, the sink's for
 * endpoints kFirst to kFirst + n - 1.
 */
struct PortRig
{
    static constexpr std::uint32_t kFirst = 4;

    FlitChannel ch;
    std::vector<Ring<NocMessage>> srcQ;
    std::vector<Ring<NocMessage>> sinkQ;
    SourcePort src;
    SinkPort sink;

    PortRig(std::uint32_t n, std::size_t sink_cap)
        : ch(1, 1, 8, 1.0, 32), srcQ(n, Ring<NocMessage>(8)),
          sinkQ(n, Ring<NocMessage>(sink_cap)),
          src(&ch, 32, srcQ.data(), n),
          sink(&ch, sinkQ.data(), kFirst, n, sink_cap)
    {}

    void
    tick(Cycle c)
    {
        src.tick(c);
        sink.tick(c);
    }

    /**
     * Delivered messages, in the sink's delivery order; their arrival
     * endpoints are appended to `arrivedAt`.
     */
    std::vector<NocMessage>
    take()
    {
        std::vector<NocMessage> out;
        sink.deliver([&](const NocMessage &m, std::uint32_t at) {
            out.push_back(m);
            arrivedAt.push_back(at);
        });
        return out;
    }

    std::vector<std::uint32_t> arrivedAt;
};

NocMessage
sized(std::uint32_t bytes, std::uint64_t token, std::uint32_t dst = 0)
{
    NocMessage m;
    m.sizeBytes = bytes;
    m.token = token;
    m.dst = dst;
    return m;
}

} // namespace

/** Every port test runs with one and with two endpoints per port. */
class Ports : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(Ports, InjectThenEjectRoundTrip)
{
    const std::uint32_t n = GetParam();
    PortRig rig(n, 4);
    // A 5-flit reply for the port's last endpoint.
    NocMessage m = sized(144, 99, PortRig::kFirst + n - 1);
    m.kind = MsgKind::ReadReply;
    rig.srcQ[n - 1].push_back(m);

    Cycle c = 0;
    while (rig.sinkQ[n - 1].empty() && c < 50)
        rig.tick(c++);
    ASSERT_FALSE(rig.sinkQ[n - 1].empty());
    EXPECT_FALSE(rig.sink.drained());
    const std::vector<NocMessage> out = rig.take();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].token, 99u);
    EXPECT_EQ(out[0].dst, PortRig::kFirst + n - 1);
    EXPECT_EQ(rig.arrivedAt,
              std::vector<std::uint32_t>{PortRig::kFirst + n - 1});
    // 5 flits at 1 per cycle + wire latency.
    EXPECT_GE(c, 5u);
    EXPECT_TRUE(rig.src.drained());
    EXPECT_TRUE(rig.sink.drained());
}

TEST_P(Ports, SinkBackpressureStopsReceiving)
{
    // Single-message sink queues: one message fits, the rest stays
    // behind backpressure until the consumer pops.
    const std::uint32_t n = GetParam();
    PortRig rig(n, 1);
    for (std::uint64_t i = 0; i < 3; ++i)
        rig.srcQ[0].push_back(sized(16, i, PortRig::kFirst));
    for (Cycle c = 0; c < 30; ++c)
        rig.tick(c);
    EXPECT_EQ(rig.sinkQ[0].size(), 1u);
    EXPECT_FALSE(rig.src.drained() && rig.ch.quiescent());
    // Draining the consumer unblocks the pipeline.
    EXPECT_EQ(rig.take().at(0).token, 0u);
    for (Cycle c = 30; c < 60; ++c) {
        rig.tick(c);
        rig.take();
    }
    EXPECT_TRUE(rig.src.drained());
}

TEST_P(Ports, SinkFullQueueBlocksTheWholePort)
{
    // Endpoint kFirst's queue is full: a message for the port's other
    // endpoint waits behind it too (head-of-line blocking).
    const std::uint32_t n = GetParam();
    PortRig rig(n, 1);
    rig.sinkQ[0].push_back(sized(16, 1, PortRig::kFirst));
    rig.srcQ[0].push_back(sized(16, 2, PortRig::kFirst + n - 1));
    for (Cycle c = 0; c < 20; ++c)
        rig.tick(c);
    EXPECT_EQ(rig.ch.flitsInFlight(), 1u); // waits on the wire
    EXPECT_EQ(rig.sinkQ[n - 1].size(), n == 1 ? 1u : 0u);
    rig.sinkQ[0].pop_front();
    for (Cycle c = 20; c < 40; ++c)
        rig.tick(c);
    ASSERT_EQ(rig.sinkQ[n - 1].size(), 1u);
    EXPECT_EQ(rig.sinkQ[n - 1].front().token, 2u);
}

TEST_P(Ports, SourceRoundRobinsAmongQueues)
{
    // Tokens 100 and 101 queue at endpoint 0, 200 at the port's last
    // endpoint (behind 100 when they share the one queue): the port
    // delivers 100, 200, 101 either way.
    const std::uint32_t n = GetParam();
    PortRig rig(n, 8);
    rig.srcQ[0].push_back(sized(16, 100, PortRig::kFirst));
    rig.srcQ[n - 1].push_back(sized(16, 200, PortRig::kFirst));
    rig.srcQ[0].push_back(sized(16, 101, PortRig::kFirst));

    std::vector<std::uint64_t> order;
    for (Cycle c = 0; c < 30; ++c) {
        rig.tick(c);
        for (const NocMessage &m : rig.take())
            order.push_back(m.token);
    }
    EXPECT_EQ(order, (std::vector<std::uint64_t>{100, 200, 101}));
}

TEST_P(Ports, SourcePacketsNeverInterleave)
{
    const std::uint32_t n = GetParam();
    PortRig rig(n, 8);
    // Multi-flit packets from the first and the last queue.
    rig.srcQ[0].push_back(sized(144, 1)); // 5 flits
    rig.srcQ[n - 1].push_back(sized(144, 2));

    // Drain raw flits and check head/tail bracketing.
    int in_packet = 0;
    int completed = 0;
    for (Cycle c = 0; c < 40; ++c) {
        rig.src.tick(c);
        while (rig.ch.hasArrival(c)) {
            const Flit f = rig.ch.receive(c);
            rig.ch.returnCredit(c);
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

TEST_P(Ports, SinkRoutesByDestination)
{
    // Two messages, for endpoints kFirst + 1 and kFirst. A
    // two-endpoint sink files each under its dst; a one-endpoint sink
    // keeps both, whatever their dst says (a bypassed MC-router
    // forwards input i to output i).
    const std::uint32_t n = GetParam();
    PortRig rig(n, 4);
    rig.srcQ[0].push_back(sized(16, 1, PortRig::kFirst + 1));
    rig.srcQ[0].push_back(sized(16, 2, PortRig::kFirst));
    for (Cycle c = 0; c < 20; ++c)
        rig.tick(c);
    if (n == 1) {
        ASSERT_EQ(rig.sinkQ[0].size(), 2u);
        EXPECT_EQ(rig.sinkQ[0][0].dst, PortRig::kFirst + 1);
        EXPECT_EQ(rig.sinkQ[0][1].dst, PortRig::kFirst);
    } else {
        ASSERT_EQ(rig.sinkQ[0].size(), 1u);
        ASSERT_EQ(rig.sinkQ[1].size(), 1u);
        EXPECT_EQ(rig.sinkQ[0].front().dst, PortRig::kFirst);
        EXPECT_EQ(rig.sinkQ[1].front().dst, PortRig::kFirst + 1);
    }
    // Delivery names the queue each message left.
    rig.take();
    const std::uint32_t last = PortRig::kFirst + n - 1;
    EXPECT_EQ(rig.arrivedAt,
              (std::vector<std::uint32_t>{PortRig::kFirst, last}));
}

TEST(PortsDeath, SinkRejectsAForeignDestination)
{
    // Only a multi-endpoint sink reads dst; one outside its range is
    // a routing error.
    PortRig rig(2, 4);
    rig.srcQ[0].push_back(sized(16, 1, PortRig::kFirst + 2));
    EXPECT_DEATH(
        {
            for (Cycle c = 0; c < 20; ++c)
                rig.tick(c);
        },
        "sink port");
}

// --------------------------------------------- checkpoint loader bounds

namespace
{

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

TEST_P(Ports, CkptSourceCursor)
{
    // The port's last queue holds two one-flit messages, its first
    // (when distinct) none.
    const std::uint32_t n = GetParam();
    PortRig rig(n, 2);
    rig.srcQ[n - 1].push_back(sized(16, 1));
    rig.srcQ[n - 1].push_back(sized(16, 2));
    const auto payload = [](std::uint32_t cursor, std::uint32_t sent) {
        CkptWriter w;
        w.u32(0);      // arbiter pointer
        w.u32(cursor); // current queue
        w.u32(sent);   // flits sent
        return w;
    };
    EXPECT_TRUE(loads(rig.src, payload(kInvalidId, 0)));
    EXPECT_TRUE(loads(rig.src, payload(n - 1, 0)));
    // A cursor on a missing or empty queue would make tick() read its
    // front; a packet cursor must lie inside the current packet.
    EXPECT_FALSE(loads(rig.src, payload(n, 0)));
    if (n > 1) {
        EXPECT_FALSE(loads(rig.src, payload(0, 0)));
    }
    EXPECT_FALSE(loads(rig.src, payload(n - 1, 1)));
    EXPECT_FALSE(loads(rig.src, payload(kInvalidId, 1)));
}

TEST_P(Ports, CkptSinkLatch)
{
    const std::uint32_t n = GetParam();
    PortRig rig(n, 2);
    const auto payload = [](std::uint32_t local, bool pending) {
        CkptWriter w;
        ckptValue(w, NocMessage{});
        w.u32(local);
        w.b(pending);
        return w;
    };
    EXPECT_TRUE(loads(rig.sink, payload(n - 1, true)));
    EXPECT_TRUE(loads(rig.sink, payload(n, false)));
    EXPECT_FALSE(loads(rig.sink, payload(n, true)));
}

INSTANTIATE_TEST_SUITE_P(
    EndpointsPerPort, Ports, ::testing::Values(1u, 2u),
    [](const ::testing::TestParamInfo<std::uint32_t> &info) {
        return "x" + std::to_string(info.param);
    });

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
