/**
 * @file
 * NoC explorer: drive any of the four network models standalone with
 * synthetic traffic patterns and report latency, throughput, power
 * and area -- a playground for the paper's section 3 design space.
 *
 * Usage: noc_explorer [noc=hxbar] [channel_width=32]
 *                     [pattern=uniform|hotspot] [load=0.3] [...]
 */

#include <cstdio>

#include "common/kvargs.hh"
#include "common/rng.hh"
#include "noc/network_factory.hh"
#include "power/noc_power.hh"
#include "sim/sim_config.hh"

using namespace amsc;

int
main(int argc, char **argv)
{
    const KvArgs args = KvArgs::parse(argc, argv);
    SimConfig cfg;
    cfg.applyKv(args);
    const NocParams np = cfg.buildNocParams();
    const std::string pattern = args.getString("pattern", "uniform");
    const double load = args.getDouble("load", 0.3);
    const Cycle horizon = args.getUint("cycles", 20000);

    auto net = makeNetwork(np);
    Rng rng(cfg.seed);

    std::printf("=== %s | %u SMs -> %u slices | %u B channels | "
                "pattern=%s load=%.2f ===\n",
                net->name().c_str(), np.numSms, np.numSlices(),
                np.channelWidthBytes, pattern.c_str(), load);

    std::uint64_t delivered_req = 0;
    std::uint64_t delivered_rep = 0;
    net->setReplyHandler([&delivered_rep](const NocMessage &, Cycle) {
        ++delivered_rep;
    });
    for (Cycle c = 0; c < horizon; ++c) {
        // Request side: SMs inject reads.
        for (SmId sm = 0; sm < np.numSms; ++sm) {
            if (!rng.chance(load))
                continue;
            const SliceId dst = pattern == "hotspot"
                ? static_cast<SliceId>(rng.below(4))
                : static_cast<SliceId>(rng.below(np.numSlices()));
            if (net->canInjectRequest(sm)) {
                NocMessage m;
                m.kind = MsgKind::ReadReq;
                m.src = sm;
                m.dst = dst;
                m.sizeBytes = np.packet.sizeOf(MsgKind::ReadReq);
                net->injectRequest(m, c);
            }
        }
        net->tick(c);
        // Slices bounce each request back as a data reply.
        for (SliceId s = 0; s < np.numSlices(); ++s) {
            while (net->hasRequestFor(s)) {
                const NocMessage req = net->popRequestFor(s, c);
                ++delivered_req;
                if (net->canInjectReply(s)) {
                    NocMessage rep;
                    rep.kind = MsgKind::ReadReply;
                    rep.src = s;
                    rep.dst = req.src;
                    rep.sizeBytes =
                        np.packet.sizeOf(MsgKind::ReadReply);
                    net->injectReply(rep, c);
                }
            }
        }
    }

    std::printf("  requests delivered  %llu (%.3f/cycle)\n",
                static_cast<unsigned long long>(delivered_req),
                static_cast<double>(delivered_req) /
                    static_cast<double>(horizon));
    std::printf("  replies delivered   %llu (%.3f/cycle, %.1f "
                "B/cycle data)\n",
                static_cast<unsigned long long>(delivered_rep),
                static_cast<double>(delivered_rep) /
                    static_cast<double>(horizon),
                static_cast<double>(delivered_rep) * 128.0 /
                    static_cast<double>(horizon));
    std::printf("  request latency     %.1f cycles\n",
                net->requestStats().avgLatency());
    std::printf("  reply latency       %.1f cycles\n",
                net->replyStats().avgLatency());

    const NocPowerModel model;
    const NocPowerResult pw =
        model.evaluate(net->activity(), horizon);
    std::printf("  area                %.2f mm^2 "
                "(buf %.2f, xbar %.2f, links %.2f, other %.2f)\n",
                pw.totalAreaMm2(), pw.areaMm2.buffer,
                pw.areaMm2.crossbar, pw.areaMm2.links,
                pw.areaMm2.other);
    std::printf("  power               %.1f mW (dynamic %.1f + "
                "static %.1f)\n",
                pw.totalPowerMw(), pw.dynamicMw.total(),
                pw.staticMw.total());
    args.warnUnused();
    return 0;
}
