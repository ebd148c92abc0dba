#include "noc/concentrated_xbar.hh"

#include "common/bitutils.hh"
#include "common/log.hh"

namespace amsc
{

ConcentratedXbarNetwork::ConcentratedXbarNetwork(const NocParams &params)
    : CrossbarBase(params, params.concentration)
{
    const std::uint32_t c = params_.concentration;
    if (c == 0)
        panic("C-Xbar requires concentration >= 1");
    const std::uint32_t sms = params_.numSms;
    const std::uint32_t slices = params_.numSlices();
    const auto sm_ports = static_cast<std::uint32_t>(divCeil(sms, c));
    const auto slice_ports =
        static_cast<std::uint32_t>(divCeil(slices, c));

    // ---- Request network: concentrated SMs -> distributed slices --
    RouterParams rq;
    rq.name = "cxbar.req";
    rq.numInPorts = sm_ports;
    rq.numOutPorts = slice_ports;
    rq.vcDepthFlits = params_.vcDepthFlits;
    rq.pipelineLatency = params_.routerPipelineLatency;
    rq.channelWidthBytes = params_.channelWidthBytes;
    Router *req_router =
        makeRouter(rq, slices, [c](std::uint32_t dst) { return dst / c; });

    for (std::uint32_t p = 0; p < sm_ports; ++p) {
        FlitChannel *ch =
            makeChannel(params_.longLinkLatency,
                        req_router->inputBufferDepth(),
                        params_.longLinkMm);
        addRequestSource(ch);
        req_router->connectInput(p, ch);
    }
    for (std::uint32_t p = 0; p < slice_ports; ++p) {
        FlitChannel *ch = makeChannel(params_.longLinkLatency,
                                      params_.vcDepthFlits,
                                      params_.longLinkMm);
        req_router->connectOutput(p, ch);
        addRequestSink(ch);
    }

    // ---- Reply network: concentrated slices -> distributed SMs ----
    RouterParams rp;
    rp.name = "cxbar.rep";
    rp.numInPorts = slice_ports;
    rp.numOutPorts = sm_ports;
    rp.vcDepthFlits = params_.vcDepthFlits;
    rp.pipelineLatency = params_.routerPipelineLatency;
    rp.channelWidthBytes = params_.channelWidthBytes;
    Router *rep_router =
        makeRouter(rp, sms, [c](std::uint32_t dst) { return dst / c; });

    for (std::uint32_t p = 0; p < slice_ports; ++p) {
        FlitChannel *ch =
            makeChannel(params_.longLinkLatency,
                        rep_router->inputBufferDepth(),
                        params_.longLinkMm);
        addReplySource(ch);
        rep_router->connectInput(p, ch);
    }
    for (std::uint32_t p = 0; p < sm_ports; ++p) {
        FlitChannel *ch = makeChannel(params_.longLinkLatency,
                                      params_.vcDepthFlits,
                                      params_.longLinkMm);
        rep_router->connectOutput(p, ch);
        addReplySink(ch);
    }
    wireLiveSet();
}

std::string
ConcentratedXbarNetwork::name() const
{
    return "C-Xbar@" + std::to_string(params_.concentration);
}

} // namespace amsc
