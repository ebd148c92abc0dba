#include "noc/concentrated_xbar.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/log.hh"

namespace amsc
{

ConcentratedXbarNetwork::ConcentratedXbarNetwork(const NocParams &params)
    : CrossbarBase(params), conc_(params.concentration)
{
    if (conc_ == 0)
        fatal("C-Xbar requires concentration >= 1");
    const std::uint32_t sms = params_.numSms;
    const std::uint32_t slices = params_.numSlices();
    reqPorts_ = static_cast<std::uint32_t>(divCeil(sms, conc_));
    repPorts_ = static_cast<std::uint32_t>(divCeil(slices, conc_));
    const std::uint32_t c = conc_;
    const auto local = [c](std::uint32_t dst) { return dst % c; };

    // ---- Request network: concentrated SMs -> distributed slices --
    RouterParams rq;
    rq.name = "cxbar.req";
    rq.numInPorts = reqPorts_;
    rq.numOutPorts = repPorts_;
    rq.vcDepthFlits = params_.vcDepthFlits;
    rq.pipelineLatency = params_.routerPipelineLatency;
    rq.channelWidthBytes = params_.channelWidthBytes;
    Router *req_router =
        makeRouter(rq, slices, [c](std::uint32_t dst) { return dst / c; });

    for (std::uint32_t p = 0; p < reqPorts_; ++p) {
        FlitChannel *ch =
            makeChannel(params_.longLinkLatency,
                        req_router->inputBufferDepth(),
                        params_.longLinkMm);
        const std::uint32_t srcs =
            std::min(c, sms - p * c);
        reqConc_.push_back(std::make_unique<ConcentratorAdapter>(
            ch, params_.channelWidthBytes, srcs,
            params_.injectQueueCap));
        req_router->connectInput(p, ch);
    }
    for (std::uint32_t p = 0; p < repPorts_; ++p) {
        FlitChannel *ch = makeChannel(params_.longLinkLatency,
                                      params_.vcDepthFlits,
                                      params_.longLinkMm);
        req_router->connectOutput(p, ch);
        const std::uint32_t dsts = std::min(c, slices - p * c);
        reqDist_.push_back(std::make_unique<DistributorAdapter>(
            ch, dsts, params_.ejectQueueCap, dstTable(slices, local)));
    }

    // ---- Reply network: concentrated slices -> distributed SMs ----
    RouterParams rp;
    rp.name = "cxbar.rep";
    rp.numInPorts = repPorts_;
    rp.numOutPorts = reqPorts_;
    rp.vcDepthFlits = params_.vcDepthFlits;
    rp.pipelineLatency = params_.routerPipelineLatency;
    rp.channelWidthBytes = params_.channelWidthBytes;
    Router *rep_router =
        makeRouter(rp, sms, [c](std::uint32_t dst) { return dst / c; });

    for (std::uint32_t p = 0; p < repPorts_; ++p) {
        FlitChannel *ch =
            makeChannel(params_.longLinkLatency,
                        rep_router->inputBufferDepth(),
                        params_.longLinkMm);
        const std::uint32_t srcs = std::min(c, slices - p * c);
        repConc_.push_back(std::make_unique<ConcentratorAdapter>(
            ch, params_.channelWidthBytes, srcs,
            params_.injectQueueCap));
        rep_router->connectInput(p, ch);
    }
    for (std::uint32_t p = 0; p < reqPorts_; ++p) {
        FlitChannel *ch = makeChannel(params_.longLinkLatency,
                                      params_.vcDepthFlits,
                                      params_.longLinkMm);
        rep_router->connectOutput(p, ch);
        const std::uint32_t dsts = std::min(c, sms - p * c);
        repDist_.push_back(std::make_unique<DistributorAdapter>(
            ch, dsts, params_.ejectQueueCap, dstTable(sms, local)));
    }
    wireLiveSet();
}

std::string
ConcentratedXbarNetwork::name() const
{
    return "C-Xbar@" + std::to_string(conc_);
}

bool
ConcentratedXbarNetwork::canInjectRequest(SmId sm) const
{
    return reqConc_[sm / conc_]->canAccept(sm % conc_);
}

void
ConcentratedXbarNetwork::injectRequest(NocMessage msg, Cycle now)
{
    ++reqStats_.messagesInjected;
    reqConc_[msg.src / conc_]->accept(msg.src % conc_, msg, now);
}

bool
ConcentratedXbarNetwork::canInjectReply(SliceId slice) const
{
    return repConc_[slice / conc_]->canAccept(slice % conc_);
}

void
ConcentratedXbarNetwork::injectReply(NocMessage msg, Cycle now)
{
    ++repStats_.messagesInjected;
    repConc_[msg.src / conc_]->accept(msg.src % conc_, msg, now);
}

bool
ConcentratedXbarNetwork::hasRequestFor(SliceId slice) const
{
    return reqDist_[slice / conc_]->hasMessage(slice % conc_);
}

NocMessage
ConcentratedXbarNetwork::popRequestFor(SliceId slice, Cycle now)
{
    NocMessage msg = reqDist_[slice / conc_]->pop(slice % conc_);
    accountDelivery(reqStats_, msg, now);
    return msg;
}

bool
ConcentratedXbarNetwork::hasReplyFor(SmId sm) const
{
    return repDist_[sm / conc_]->hasMessage(sm % conc_);
}

NocMessage
ConcentratedXbarNetwork::popReplyFor(SmId sm, Cycle now)
{
    NocMessage msg = repDist_[sm / conc_]->pop(sm % conc_);
    accountDelivery(repStats_, msg, now);
    return msg;
}

} // namespace amsc
