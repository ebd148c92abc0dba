/**
 * @file
 * Whole-network property tests, parameterized over all topologies:
 * message conservation, correct delivery, drain semantics, latency
 * sanity, private-mode reconfiguration, live-set exactness; plus the
 * NoC sizing checks of SimConfig::validate().
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "common/error.hh"
#include "common/rng.hh"
#include "noc/hier_xbar.hh"
#include "noc/network_factory.hh"
#include "sim/sim_config.hh"
#include "throw_util.hh"

namespace amsc
{

namespace
{

NocParams
smallParams(NocTopology topo, std::uint32_t width = 32,
            std::uint32_t conc = 2)
{
    NocParams p;
    p.topology = topo;
    p.numSms = 16;
    p.numClusters = 4;
    p.numMcs = 4;
    p.slicesPerMc = 4;
    p.channelWidthBytes = width;
    p.concentration = conc;
    return p;
}

NocMessage
readReq(SmId src, SliceId dst)
{
    NocMessage m;
    m.kind = MsgKind::ReadReq;
    m.src = src;
    m.dst = dst;
    m.sizeBytes = 16;
    m.token = (static_cast<std::uint64_t>(src) << 32) | dst;
    return m;
}

NocMessage
readReply(SliceId src, SmId dst)
{
    NocMessage m;
    m.kind = MsgKind::ReadReply;
    m.src = src;
    m.dst = dst;
    m.sizeBytes = 144;
    m.token = (static_cast<std::uint64_t>(src) << 32) | dst;
    return m;
}

std::vector<std::uint8_t>
ckptBytes(const Network &net)
{
    CkptWriter w;
    net.saveCkpt(w);
    return w.takeBuffer();
}

} // namespace

class NetworkTopologyTest
    : public ::testing::TestWithParam<NocTopology>
{
  protected:
    std::unique_ptr<Network>
    make(std::uint32_t width = 32, std::uint32_t conc = 2)
    {
        return makeNetwork(smallParams(GetParam(), width, conc));
    }
};

TEST_P(NetworkTopologyTest, RequestConservationRandomTraffic)
{
    auto net = make();
    const NocParams p = smallParams(GetParam());
    Rng rng(7);

    std::map<std::uint64_t, int> sent;
    int injected = 0;
    int delivered = 0;
    for (Cycle c = 0; c < 3000; ++c) {
        if (injected < 400) {
            const SmId sm =
                static_cast<SmId>(rng.below(p.numSms));
            const SliceId sl =
                static_cast<SliceId>(rng.below(p.numSlices()));
            if (net->canInjectRequest(sm)) {
                NocMessage m = readReq(sm, sl);
                ++sent[m.token];
                net->injectRequest(m, c);
                ++injected;
            }
        }
        net->tick(c);
        for (SliceId s = 0; s < p.numSlices(); ++s) {
            while (net->hasRequestFor(s)) {
                const NocMessage m = net->popRequestFor(s, c);
                EXPECT_EQ(m.dst, s) << "misrouted request";
                --sent[m.token];
                ++delivered;
            }
        }
    }
    EXPECT_EQ(injected, 400);
    EXPECT_EQ(delivered, 400);
    for (const auto &[tok, n] : sent)
        EXPECT_EQ(n, 0) << "lost or duplicated message";
    EXPECT_TRUE(net->drained());
}

TEST_P(NetworkTopologyTest, ReplyConservationRandomTraffic)
{
    auto net = make();
    const NocParams p = smallParams(GetParam());
    Rng rng(11);

    int injected = 0;
    int delivered = 0;
    net->setReplyHandler(
        [&delivered](const NocMessage &m, SmId at, Cycle) {
            EXPECT_EQ(m.dst, at) << "misrouted reply";
            ++delivered;
        });
    for (Cycle c = 0; c < 6000; ++c) {
        if (injected < 300) {
            const SliceId sl =
                static_cast<SliceId>(rng.below(p.numSlices()));
            const SmId sm =
                static_cast<SmId>(rng.below(p.numSms));
            if (net->canInjectReply(sl)) {
                net->injectReply(readReply(sl, sm), c);
                ++injected;
            }
        }
        net->tick(c);
    }
    EXPECT_EQ(delivered, injected);
    EXPECT_TRUE(net->drained());
}

TEST_P(NetworkTopologyTest, HotSliceDeliversEverything)
{
    // All SMs hammer slice 0: the paper's serialization scenario.
    auto net = make();
    const NocParams p = smallParams(GetParam());
    int injected = 0;
    int delivered = 0;
    for (Cycle c = 0; c < 5000; ++c) {
        for (SmId sm = 0; sm < p.numSms; ++sm) {
            if (injected < 200 && net->canInjectRequest(sm)) {
                net->injectRequest(readReq(sm, 0), c);
                ++injected;
            }
        }
        net->tick(c);
        while (net->hasRequestFor(0)) {
            net->popRequestFor(0, c);
            ++delivered;
        }
    }
    EXPECT_EQ(delivered, injected);
    EXPECT_EQ(delivered, 200);
}

TEST_P(NetworkTopologyTest, LatencyAccountingSane)
{
    auto net = make();
    net->injectRequest(readReq(0, 5), 0);
    for (Cycle c = 0; c < 100; ++c) {
        net->tick(c);
        if (net->hasRequestFor(5))
            net->popRequestFor(5, c);
    }
    EXPECT_EQ(net->requestStats().messagesDelivered, 1u);
    const double lat = net->requestStats().avgLatency();
    EXPECT_GT(lat, 0.0);
    EXPECT_LT(lat, 60.0);
}

TEST_P(NetworkTopologyTest, DrainedInitially)
{
    auto net = make();
    EXPECT_TRUE(net->drained());
}

TEST_P(NetworkTopologyTest, ActivityGeometryReported)
{
    auto net = make();
    const NocActivity act = net->activity();
    if (GetParam() == NocTopology::Ideal) {
        EXPECT_TRUE(act.routers.empty());
        return;
    }
    EXPECT_FALSE(act.routers.empty());
    EXPECT_FALSE(act.links.empty());
    for (const auto &r : act.routers) {
        EXPECT_GT(r.numInPorts, 0u);
        EXPECT_GT(r.numOutPorts, 0u);
    }
}

TEST_P(NetworkTopologyTest, LiveSetTickMatchesFullTick)
{
    // The crossbars tick only the components in their live set. A
    // fresh network restored from a checkpoint has every bit set, so
    // for one cycle it ticks every component, like a network without
    // a live set: clone the live network that way each cycle, drive
    // both alike and require the same events, deliveries and state.
    // Injection runs in the first 200 of every 1000 cycles so
    // components go idle and wake again. A quarter of the requests go
    // to slice 5, which pops one message every 7th cycle, so its
    // ejection queue fills and backpressure stalls the flits behind
    // it. On H-Xbar the second 1000 cycles run in private mode, where
    // idle MC-routers count gated cycles. The second geometry has
    // zero-latency links (a router wakes a later one within the same
    // cycle) and slow credits (a credit is still in flight when its
    // sender's bit could be cleared).
    NocParams slow_credits = smallParams(GetParam());
    slow_credits.shortLinkLatency = 0;
    slow_credits.longLinkLatency = 0;
    slow_credits.creditLatency = 3;
    for (const NocParams &p : {smallParams(GetParam()), slow_credits}) {
        SCOPED_TRACE("credit latency " +
                     std::to_string(p.creditLatency));
        auto net = makeNetwork(p);
        std::vector<std::uint64_t> got;
        std::vector<std::uint64_t> want;
        net->setReplyHandler([&got](const NocMessage &m, Cycle) {
            got.push_back(m.token);
        });
        Rng rng(23);
        std::uint64_t token = 0;
        for (Cycle c = 0; c < 4000; ++c) {
            if (net->supportsPowerGating() &&
                (c == 1000 || c == 2000)) {
                ASSERT_TRUE(net->drained()) << c;
                net->setPrivateMode(c == 1000);
            }
            auto ref = makeNetwork(p);
            const std::vector<std::uint8_t> state = ckptBytes(*net);
            CkptReader r(state.data(), state.size());
            ref->loadCkpt(r);
            ref->setReplyHandler([&want](const NocMessage &m, Cycle) {
                want.push_back(m.token);
            });

            for (int k = 0; c % 1000 < 200 && k < 3; ++k) {
                const SmId sm = static_cast<SmId>(rng.below(p.numSms));
                const SliceId sl =
                    static_cast<SliceId>(rng.below(p.numSlices()));
                if (rng.below(2) == 0 && net->canInjectRequest(sm)) {
                    NocMessage m =
                        readReq(sm, rng.below(4) == 0 ? 5 : sl);
                    m.token = ++token;
                    net->injectRequest(m, c);
                    ref->injectRequest(m, c);
                } else if (net->canInjectReply(sl)) {
                    NocMessage m = readReply(sl, sm);
                    m.token = ++token;
                    net->injectReply(m, c);
                    ref->injectReply(m, c);
                }
            }
            ASSERT_EQ(net->nextEventCycle(c), ref->nextEventCycle(c))
                << "cycle " << c;

            net->tick(c);
            ref->tick(c);
            for (SliceId s = 0; s < p.numSlices(); ++s) {
                const bool slow = s == 5;
                if (slow && c % 7 != 0)
                    continue;
                while (net->hasRequestFor(s)) {
                    got.push_back(net->popRequestFor(s, c).token);
                    if (slow)
                        break;
                }
                while (ref->hasRequestFor(s)) {
                    want.push_back(ref->popRequestFor(s, c).token);
                    if (slow)
                        break;
                }
            }
            ASSERT_EQ(got, want) << "cycle " << c;
            ASSERT_EQ(ckptBytes(*net), ckptBytes(*ref)) << "cycle " << c;
            got.clear();
            want.clear();
        }
        EXPECT_GT(token, 1000u);
        EXPECT_TRUE(net->drained());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologies, NetworkTopologyTest,
    ::testing::Values(NocTopology::Ideal, NocTopology::FullXbar,
                      NocTopology::Concentrated,
                      NocTopology::Hierarchical),
    [](const ::testing::TestParamInfo<NocTopology> &info) {
        return topologyName(info.param);
    });

// ------------------------------------------- channel width sweep

class NetworkWidthTest
    : public ::testing::TestWithParam<std::tuple<NocTopology, int>>
{
};

TEST_P(NetworkWidthTest, ConservationAcrossWidths)
{
    const auto [topo, width] = GetParam();
    auto net = makeNetwork(smallParams(topo, width));
    const NocParams p = smallParams(topo, width);
    Rng rng(3);
    int injected = 0;
    int delivered = 0;
    net->setReplyHandler(
        [&delivered](const NocMessage &, Cycle) { ++delivered; });
    for (Cycle c = 0; c < 8000; ++c) {
        if (injected < 150) {
            const SliceId sl =
                static_cast<SliceId>(rng.below(p.numSlices()));
            if (net->canInjectReply(sl)) {
                net->injectReply(
                    readReply(sl, static_cast<SmId>(
                                      rng.below(p.numSms))),
                    c);
                ++injected;
            }
        }
        net->tick(c);
    }
    EXPECT_EQ(delivered, injected);
}

INSTANTIATE_TEST_SUITE_P(
    Widths, NetworkWidthTest,
    ::testing::Combine(::testing::Values(NocTopology::FullXbar,
                                         NocTopology::Concentrated,
                                         NocTopology::Hierarchical),
                       ::testing::Values(16, 32, 64)),
    [](const ::testing::TestParamInfo<std::tuple<NocTopology, int>>
           &info) {
        return topologyName(std::get<0>(info.param)) + "_w" +
            std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------ endpoint queues

/** Full-Xbar and C-Xbar\@2: one and two endpoints per port. */
class CrossbarQueueTest : public ::testing::TestWithParam<NocTopology>
{
  protected:
    static NocParams
    params(std::size_t cap)
    {
        NocParams p = smallParams(GetParam());
        p.injectQueueCap = cap;
        p.ejectQueueCap = cap;
        return p;
    }
};

TEST_P(CrossbarQueueTest, InjectionQueueCapacity)
{
    auto net = makeNetwork(params(2));
    net->injectRequest(readReq(1, 0), 0);
    net->injectRequest(readReq(1, 0), 0);
    EXPECT_FALSE(net->canInjectRequest(1));
    EXPECT_TRUE(net->canInjectRequest(0));
    net->injectReply(readReply(3, 0), 0);
    net->injectReply(readReply(3, 0), 0);
    EXPECT_FALSE(net->canInjectReply(3));
    EXPECT_TRUE(net->canInjectReply(2));
}

TEST_P(CrossbarQueueTest, CkptQueueCapsBoundTheLoader)
{
    // Fill one queue of each kind to 4 in a network with caps of 4;
    // an identical network restores it, one with caps of 3 fails the
    // reader naming the queue. Nobody pops requests and no reply
    // handler is installed, so delivered messages stay queued.
    const char *const queue[] = {"request source queue",
                                 "request sink queue",
                                 "reply source queue", "reply sink queue"};
    for (int kind = 0; kind < 4; ++kind) {
        SCOPED_TRACE(queue[kind]);
        auto net = makeNetwork(params(4));
        // Four messages from one endpoint wait at its source queue
        // until a tick; four from four endpoints to one endpoint fill
        // its sink queue within 300 cycles.
        for (std::uint32_t i = 0; i < 4; ++i) {
            switch (kind) {
            case 0: net->injectRequest(readReq(1, 0), 0); break;
            case 1: net->injectRequest(readReq(i, 1), 0); break;
            case 2: net->injectReply(readReply(1, 0), 0); break;
            default: net->injectReply(readReply(i, 1), 0); break;
            }
        }
        for (Cycle c = 0; kind % 2 == 1 && c < 300; ++c)
            net->tick(c);
        const std::vector<std::uint8_t> bytes = ckptBytes(*net);
        auto same = makeNetwork(params(4));
        CkptReader ok(bytes.data(), bytes.size());
        same->loadCkpt(ok);
        EXPECT_EQ(ckptBytes(*same), bytes);
        auto small = makeNetwork(params(3));
        CkptReader bad(bytes.data(), bytes.size());
        AMSC_EXPECT_THROW_MSG(small->loadCkpt(bad), FormatError,
                              std::string(queue[kind]) + " over its cap");
    }
}

INSTANTIATE_TEST_SUITE_P(
    Crossbars, CrossbarQueueTest,
    ::testing::Values(NocTopology::FullXbar, NocTopology::Concentrated),
    [](const ::testing::TestParamInfo<NocTopology> &info) {
        return topologyName(info.param);
    });

// ---------------------------------------------------- config checks

TEST(NocConfig, ZeroSizesAreRejected)
{
    // A zero channel width divides by zero when packetizing; zero
    // buffer or queue slots starve the NoC until max_cycles; a zero
    // C-Xbar concentration leaves SMs without a router port.
    const auto zeroed = [](auto field) {
        SimConfig cfg;
        cfg.*field = 0;
        return cfg;
    };
    AMSC_EXPECT_THROW_MSG(
        zeroed(&SimConfig::channelWidthBytes).validate(), ConfigError,
        "channel_width");
    AMSC_EXPECT_THROW_MSG(zeroed(&SimConfig::vcDepthFlits).validate(),
                          ConfigError, "vc_depth");
    AMSC_EXPECT_THROW_MSG(zeroed(&SimConfig::injectQueueCap).validate(),
                          ConfigError, "inject_queue_cap");
    AMSC_EXPECT_THROW_MSG(zeroed(&SimConfig::ejectQueueCap).validate(),
                          ConfigError, "eject_queue_cap");
    AMSC_EXPECT_THROW_MSG(zeroed(&SimConfig::concentration).validate(),
                          ConfigError, "concentration");
    SimConfig ok;
    ok.shortLinkLatency = 0;
    ok.longLinkLatency = 0;
    ok.validate(); // zero link latencies stay legal
}

// ------------------------------------------------- H-Xbar specifics

TEST(HierXbar, CoDesignInvariantEnforced)
{
    NocParams p = smallParams(NocTopology::Hierarchical);
    p.slicesPerMc = 2; // != numClusters (4)
    AMSC_EXPECT_THROW_MSG(HierXbarNetwork net(p), ConfigError,
                          "co-design");
}

TEST(HierXbar, PrivateModeBypassRouting)
{
    // In private mode, requests from cluster k reach slice (mc, k)
    // through the bypass: verify positional correctness.
    const NocParams p = smallParams(NocTopology::Hierarchical);
    HierXbarNetwork net(p);
    net.setPrivateMode(true);
    EXPECT_TRUE(net.privateMode());

    const std::uint32_t spc = p.smsPerCluster();
    int delivered = 0;
    for (ClusterId cl = 0; cl < p.numClusters; ++cl) {
        const SmId sm = cl * spc;
        for (McId mc = 0; mc < p.numMcs; ++mc) {
            // Private-mode destination: slice (mc, cluster).
            const SliceId dst = mc * p.slicesPerMc + cl;
            NocMessage m = readReq(sm, dst);
            Cycle c = delivered * 200;
            net.injectRequest(m, c);
            for (; c < static_cast<Cycle>(delivered + 1) * 200; ++c) {
                net.tick(c);
                if (net.hasRequestFor(dst)) {
                    const NocMessage out = net.popRequestFor(dst, c);
                    EXPECT_EQ(out.dst, dst);
                    ++delivered;
                    break;
                }
            }
        }
    }
    EXPECT_EQ(delivered,
              static_cast<int>(p.numClusters * p.numMcs));
}

TEST(HierXbar, PrivateModeRepliesReachSms)
{
    const NocParams p = smallParams(NocTopology::Hierarchical);
    HierXbarNetwork net(p);
    net.setPrivateMode(true);
    const std::uint32_t spc = p.smsPerCluster();

    std::vector<SmId> got; // arrival SM of each delivered reply
    net.setReplyHandler(
        [&got](const NocMessage &, SmId at, Cycle) { got.push_back(at); });
    Cycle c = 0;
    for (ClusterId cl = 0; cl < p.numClusters; ++cl) {
        const SmId sm = cl * spc + 1;
        const SliceId src = 2 * p.slicesPerMc + cl; // mc 2, own slice
        net.injectReply(readReply(src, sm), c);
        for (Cycle end = c + 300; c < end && got.size() <= cl; ++c)
            net.tick(c);
        ASSERT_EQ(got.size(), cl + 1u);
        EXPECT_EQ(got.back(), sm);
    }
}

TEST(HierXbar, ModeSwitchRequiresDrain)
{
    const NocParams p = smallParams(NocTopology::Hierarchical);
    HierXbarNetwork net(p);
    net.injectRequest(readReq(0, 3), 0);
    EXPECT_FALSE(net.drained());
    EXPECT_DEATH(net.setPrivateMode(true), "drained");
}

TEST(HierXbar, RoundTripAfterModeCycle)
{
    // shared -> private -> shared keeps delivering correctly.
    const NocParams p = smallParams(NocTopology::Hierarchical);
    HierXbarNetwork net(p);

    auto roundtrip = [&net, &p](Cycle start) {
        net.injectRequest(readReq(1, 7), start);
        bool got = false;
        for (Cycle c = start; c < start + 300; ++c) {
            net.tick(c); // keep ticking: credits must drain too
            if (net.hasRequestFor(7)) {
                net.popRequestFor(7, c);
                got = true;
            }
        }
        return got;
    };
    EXPECT_TRUE(roundtrip(0));
    ASSERT_TRUE(net.drained());
    net.setPrivateMode(true);
    // Private-mode-consistent destination for cluster of SM 1 (=0).
    net.injectRequest(readReq(1, 1 * p.slicesPerMc + 0), 1000);
    bool ok = false;
    for (Cycle c = 1000; c < 1300; ++c) {
        net.tick(c);
        if (net.hasRequestFor(1 * p.slicesPerMc + 0)) {
            net.popRequestFor(1 * p.slicesPerMc + 0, c);
            ok = true;
        }
    }
    EXPECT_TRUE(ok);
    ASSERT_TRUE(net.drained());
    net.setPrivateMode(false);
    EXPECT_TRUE(roundtrip(2000));
}

TEST(HierXbar, GatedCyclesAccumulateInPrivateMode)
{
    const NocParams p = smallParams(NocTopology::Hierarchical);
    HierXbarNetwork net(p);
    net.setPrivateMode(true);
    for (Cycle c = 0; c < 100; ++c)
        net.tick(c);
    std::uint64_t gated = 0;
    for (const auto &r : net.activity().routers)
        gated += r.gatedCycles;
    // 8 gateable MC-router objects (4 req + 4 rep) x 100 cycles.
    EXPECT_EQ(gated, 800u);
}

TEST(CXbar, HigherConcentrationReducesThroughput)
{
    // Saturate injection from all SMs to all slices; concentration 8
    // must deliver fewer messages than concentration 2 in equal time.
    auto run = [](std::uint32_t conc) {
        NocParams p = smallParams(NocTopology::Concentrated, 32, conc);
        auto net = makeNetwork(p);
        Rng rng(5);
        int delivered = 0;
        for (Cycle c = 0; c < 2000; ++c) {
            for (SmId sm = 0; sm < p.numSms; ++sm) {
                if (net->canInjectRequest(sm)) {
                    net->injectRequest(
                        readReq(sm, static_cast<SliceId>(rng.below(
                                        p.numSlices()))),
                        c);
                }
            }
            net->tick(c);
            for (SliceId s = 0; s < p.numSlices(); ++s) {
                while (net->hasRequestFor(s)) {
                    net->popRequestFor(s, c);
                    ++delivered;
                }
            }
        }
        return delivered;
    };
    EXPECT_GT(run(2), run(8) * 2);
}

} // namespace amsc
