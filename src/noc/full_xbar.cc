#include "noc/full_xbar.hh"

namespace amsc
{

FullXbarNetwork::FullXbarNetwork(const NocParams &params)
    : CrossbarBase(params, 1)
{
    const std::uint32_t sms = params_.numSms;
    const std::uint32_t slices = params_.numSlices();

    // ---- Request network: SMs -> slices --------------------------
    RouterParams rq;
    rq.name = "fullxbar.req";
    rq.numInPorts = sms;
    rq.numOutPorts = slices;
    rq.vcDepthFlits = params_.vcDepthFlits;
    rq.pipelineLatency = params_.routerPipelineLatency;
    rq.channelWidthBytes = params_.channelWidthBytes;
    reqRouter_ =
        makeRouter(rq, slices, [](std::uint32_t dst) { return dst; });

    for (SmId sm = 0; sm < sms; ++sm) {
        FlitChannel *ch =
            makeChannel(params_.longLinkLatency,
                        reqRouter_->inputBufferDepth(),
                        params_.longLinkMm);
        addRequestSource(ch);
        reqRouter_->connectInput(sm, ch);
    }
    for (SliceId s = 0; s < slices; ++s) {
        // The ejection-side flit buffer is one VC deep; the larger
        // message queue behind the sink port models the slice front
        // queue.
        FlitChannel *ch = makeChannel(params_.longLinkLatency,
                                      params_.vcDepthFlits,
                                      params_.longLinkMm);
        reqRouter_->connectOutput(s, ch);
        addRequestSink(ch);
    }

    // ---- Reply network: slices -> SMs ----------------------------
    RouterParams rp;
    rp.name = "fullxbar.rep";
    rp.numInPorts = slices;
    rp.numOutPorts = sms;
    rp.vcDepthFlits = params_.vcDepthFlits;
    rp.pipelineLatency = params_.routerPipelineLatency;
    rp.channelWidthBytes = params_.channelWidthBytes;
    repRouter_ =
        makeRouter(rp, sms, [](std::uint32_t dst) { return dst; });

    for (SliceId s = 0; s < slices; ++s) {
        FlitChannel *ch =
            makeChannel(params_.longLinkLatency,
                        repRouter_->inputBufferDepth(),
                        params_.longLinkMm);
        addReplySource(ch);
        repRouter_->connectInput(s, ch);
    }
    for (SmId sm = 0; sm < sms; ++sm) {
        FlitChannel *ch = makeChannel(params_.longLinkLatency,
                                      params_.vcDepthFlits,
                                      params_.longLinkMm);
        repRouter_->connectOutput(sm, ch);
        addReplySink(ch);
    }
    wireLiveSet();
}

} // namespace amsc
