#include "noc/hier_xbar.hh"

#include "common/error.hh"
#include "common/log.hh"

namespace amsc
{

HierXbarNetwork::HierXbarNetwork(const NocParams &params)
    : CrossbarBase(params, 1)
{
    const std::uint32_t clusters = params_.numClusters;
    const std::uint32_t mcs = params_.numMcs;
    const std::uint32_t spc = params_.smsPerCluster();
    const std::uint32_t spm = params_.slicesPerMc;

    if (spm != clusters)
        throw ConfigError(strfmt("H-Xbar co-design requires "
                                 "slicesPerMc (%u) == numClusters (%u)",
                                 spm, clusters));

    const std::uint32_t sms = params_.numSms;
    const std::uint32_t slices = params_.numSlices();

    // ================= Request direction ==========================
    // SM-routers: spc SM inputs, mcs outputs; route by owning MC.
    for (ClusterId c = 0; c < clusters; ++c) {
        RouterParams rp;
        rp.name = "hxbar.smr" + std::to_string(c) + ".req";
        rp.numInPorts = spc;
        rp.numOutPorts = mcs;
        rp.vcDepthFlits = params_.vcDepthFlits;
        rp.pipelineLatency = params_.routerPipelineLatency;
        rp.channelWidthBytes = params_.channelWidthBytes;
        smRoutersReq_.push_back(makeRouter(
            rp, slices, [spm](std::uint32_t dst) { return dst / spm; }));
    }

    // MC-routers: clusters inputs, spm slice outputs; route by
    // slice-within-MC; gateable for the private mode.
    for (McId m = 0; m < mcs; ++m) {
        RouterParams rp;
        rp.name = "hxbar.mcr" + std::to_string(m) + ".req";
        rp.numInPorts = clusters;
        rp.numOutPorts = spm;
        rp.vcDepthFlits = params_.vcDepthFlits;
        rp.pipelineLatency = params_.routerPipelineLatency;
        rp.channelWidthBytes = params_.channelWidthBytes;
        rp.gateable = true;
        mcRoutersReq_.push_back(makeRouter(
            rp, slices, [spm](std::uint32_t dst) { return dst % spm; }));
    }

    // SM -> SM-router short links (cluster-major SM numbering).
    for (SmId sm = 0; sm < sms; ++sm) {
        const ClusterId c = params_.clusterOf(sm);
        const std::uint32_t local = sm % spc;
        FlitChannel *ch =
            makeChannel(params_.shortLinkLatency,
                        smRoutersReq_[c]->inputBufferDepth(),
                        params_.shortLinkMm);
        addRequestSource(ch);
        smRoutersReq_[c]->connectInput(local, ch);
    }

    // SM-router -> MC-router long links.
    for (ClusterId c = 0; c < clusters; ++c) {
        for (McId m = 0; m < mcs; ++m) {
            FlitChannel *ch =
                makeChannel(params_.longLinkLatency,
                            mcRoutersReq_[m]->inputBufferDepth(),
                            params_.longLinkMm);
            smRoutersReq_[c]->connectOutput(m, ch);
            mcRoutersReq_[m]->connectInput(c, ch);
        }
    }

    // MC-router -> slice short links + ejection (slice m * spm + j).
    for (McId m = 0; m < mcs; ++m) {
        for (std::uint32_t j = 0; j < spm; ++j) {
            FlitChannel *ch = makeChannel(params_.shortLinkLatency,
                                          params_.vcDepthFlits,
                                          params_.shortLinkMm);
            mcRoutersReq_[m]->connectOutput(j, ch);
            addRequestSink(ch);
        }
    }

    // ================= Reply direction ============================
    // MC-routers (reply): spm slice inputs, clusters outputs; route
    // by the destination SM's cluster.
    for (McId m = 0; m < mcs; ++m) {
        RouterParams rp;
        rp.name = "hxbar.mcr" + std::to_string(m) + ".rep";
        rp.numInPorts = spm;
        rp.numOutPorts = clusters;
        rp.vcDepthFlits = params_.vcDepthFlits;
        rp.pipelineLatency = params_.routerPipelineLatency;
        rp.channelWidthBytes = params_.channelWidthBytes;
        rp.gateable = true;
        mcRoutersRep_.push_back(makeRouter(
            rp, sms, [spc](std::uint32_t dst) { return dst / spc; }));
    }

    // SM-routers (reply): mcs inputs, spc SM outputs; route by the
    // SM's local index within the cluster.
    for (ClusterId c = 0; c < clusters; ++c) {
        RouterParams rp;
        rp.name = "hxbar.smr" + std::to_string(c) + ".rep";
        rp.numInPorts = mcs;
        rp.numOutPorts = spc;
        rp.vcDepthFlits = params_.vcDepthFlits;
        rp.pipelineLatency = params_.routerPipelineLatency;
        rp.channelWidthBytes = params_.channelWidthBytes;
        smRoutersRep_.push_back(makeRouter(
            rp, sms, [spc](std::uint32_t dst) { return dst % spc; }));
    }

    // Slice -> MC-router short links (slice m * spm + j).
    for (McId m = 0; m < mcs; ++m) {
        for (std::uint32_t j = 0; j < spm; ++j) {
            FlitChannel *ch =
                makeChannel(params_.shortLinkLatency,
                            mcRoutersRep_[m]->inputBufferDepth(),
                            params_.shortLinkMm);
            addReplySource(ch);
            mcRoutersRep_[m]->connectInput(j, ch);
        }
    }

    // MC-router -> SM-router long links.
    for (McId m = 0; m < mcs; ++m) {
        for (ClusterId c = 0; c < clusters; ++c) {
            FlitChannel *ch =
                makeChannel(params_.longLinkLatency,
                            smRoutersRep_[c]->inputBufferDepth(),
                            params_.longLinkMm);
            mcRoutersRep_[m]->connectOutput(c, ch);
            smRoutersRep_[c]->connectInput(m, ch);
        }
    }

    // SM-router -> SM short links + ejection.
    for (SmId sm = 0; sm < sms; ++sm) {
        const ClusterId c = params_.clusterOf(sm);
        const std::uint32_t local = sm % spc;
        FlitChannel *ch = makeChannel(params_.shortLinkLatency,
                                      params_.vcDepthFlits,
                                      params_.shortLinkMm);
        smRoutersRep_[c]->connectOutput(local, ch);
        addReplySink(ch);
    }
    wireLiveSet();
}

void
HierXbarNetwork::setPrivateMode(bool enable)
{
    if (enable == privateMode_)
        return;
    if (!drained())
        panic("H-Xbar reconfigured while not drained");
    for (Router *r : mcRoutersReq_)
        r->setBypass(enable);
    for (Router *r : mcRoutersRep_)
        r->setBypass(enable);
    privateMode_ = enable;
}

void
HierXbarNetwork::saveCkpt(CkptWriter &w) const
{
    CrossbarBase::saveCkpt(w);
    w.b(privateMode_);
}

void
HierXbarNetwork::loadCkpt(CkptReader &r)
{
    // Per-router bypass flags ride along in Router::loadCkpt; only
    // the aggregate mode flag needs restoring here.
    CrossbarBase::loadCkpt(r);
    privateMode_ = r.b();
}

} // namespace amsc
