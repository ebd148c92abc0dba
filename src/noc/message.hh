/**
 * @file
 * Network messages, flits, and activity counters.
 *
 * The GPU NoC consists of two logically separate networks (paper
 * section 3.1): the request network carries SM -> LLC-slice traffic,
 * the reply network carries LLC-slice -> SM traffic. Both move
 * NocMessages that are packetized into fixed-size flits matching the
 * channel width (wormhole switching).
 */

#ifndef AMSC_NOC_MESSAGE_HH
#define AMSC_NOC_MESSAGE_HH

#include <cstdint>
#include <vector>

#include "common/bitutils.hh"
#include "common/ckpt.hh"
#include "common/types.hh"

namespace amsc
{

/** Message kinds carried by the two networks. */
enum class MsgKind : std::uint8_t
{
    ReadReq,   ///< SM -> slice, control-only
    WriteReq,  ///< SM -> slice, control + line data (write-through L1)
    ReadReply, ///< slice -> SM, control + line data
    AtomicReq, ///< SM -> slice, read-modify-write at the ROP/LLC
};

/**
 * One network message (a packet before flitization). `kind` sits
 * beside the 32-bit fields so the message packs into 40 bytes: every
 * flit and message queue slot holds one.
 */
struct NocMessage
{
    /** Line-granular address. */
    Addr lineAddr = kNoAddr;
    /** Source endpoint: SM id (requests) or global slice id (replies). */
    std::uint32_t src = 0;
    /** Destination endpoint: global slice id (requests) or SM id. */
    std::uint32_t dst = 0;
    /** Total packet size in bytes (header + payload). */
    std::uint32_t sizeBytes = 16;
    MsgKind kind = MsgKind::ReadReq;
    /** Cycle the message entered the source queue. */
    Cycle injectCycle = 0;
    /** Opaque requester context, echoed end to end. */
    std::uint64_t token = 0;

    /** Number of flits on a channel @p width_bytes wide. */
    std::uint32_t
    numFlits(std::uint32_t width_bytes) const
    {
        return static_cast<std::uint32_t>(
            divCeil(sizeBytes, width_bytes));
    }
};

/*
 * NocMessage and Flit contain padding, so raw pod() serialization
 * would leak indeterminate bytes into checkpoints; encode field-wise.
 */
inline void
ckptValue(CkptWriter &w, const NocMessage &m)
{
    ckptFields(w, m.kind, m.lineAddr, m.src, m.dst, m.sizeBytes,
               m.injectCycle, m.token);
}

inline void
ckptValue(CkptReader &r, NocMessage &m)
{
    ckptFields(r, m.kind, m.lineAddr, m.src, m.dst, m.sizeBytes,
               m.injectCycle, m.token);
}

/** Packet sizing rules shared by all networks. */
struct PacketFormat
{
    std::uint32_t controlBytes = 16; ///< header / address / ack bytes
    std::uint32_t lineBytes = 128;   ///< data payload (cache line)

    std::uint32_t
    sizeOf(MsgKind kind) const
    {
        switch (kind) {
          case MsgKind::ReadReq:
          case MsgKind::AtomicReq: // operand rides in the header
            return controlBytes;
          case MsgKind::WriteReq:
          case MsgKind::ReadReply:
            return controlBytes + lineBytes;
        }
        return controlBytes;
    }
};

/** One flit. Only head flits carry the message descriptor. */
struct Flit
{
    bool head = false;
    bool tail = false;
    /** Valid on head flits only. */
    NocMessage msg{};
};

inline void
ckptValue(CkptWriter &w, const Flit &f)
{
    ckptFields(w, f.head, f.tail, f.msg);
}

inline void
ckptValue(CkptReader &r, Flit &f)
{
    ckptFields(r, f.head, f.tail, f.msg);
}

/** Geometry and activity of one router, consumed by the power model. */
struct RouterActivity
{
    std::uint32_t numInPorts = 0;
    std::uint32_t numOutPorts = 0;
    std::uint32_t numVcs = 1;
    std::uint32_t vcDepthFlits = 8;
    std::uint32_t channelWidthBytes = 32;
    bool gateable = false; ///< MC-routers can be power-gated

    std::uint64_t bufferWrites = 0;
    std::uint64_t bufferReads = 0;
    std::uint64_t xbarTraversals = 0;
    std::uint64_t allocRounds = 0;
    std::uint64_t activeCycles = 0;
    std::uint64_t gatedCycles = 0;
    /** Flits forwarded through the bypass path while gated. */
    std::uint64_t bypassTraversals = 0;
};

#ifdef __LP64__
// Field-drift guard: these field lists are also RunResult's journal
// encoding and what identicalResults() compares. Other ABIs may pad
// differently, so the size is pinned on LP64 only.
static_assert(sizeof(RouterActivity) == 80,
              "add the new RouterActivity field to both ckptValue() "
              "lists");
#endif

inline void
ckptValue(CkptWriter &w, const RouterActivity &a)
{
    ckptFields(w, a.numInPorts, a.numOutPorts, a.numVcs,
               a.vcDepthFlits, a.channelWidthBytes, a.gateable,
               a.bufferWrites, a.bufferReads, a.xbarTraversals,
               a.allocRounds, a.activeCycles, a.gatedCycles,
               a.bypassTraversals);
}

inline void
ckptValue(CkptReader &r, RouterActivity &a)
{
    ckptFields(r, a.numInPorts, a.numOutPorts, a.numVcs,
               a.vcDepthFlits, a.channelWidthBytes, a.gateable,
               a.bufferWrites, a.bufferReads, a.xbarTraversals,
               a.allocRounds, a.activeCycles, a.gatedCycles,
               a.bypassTraversals);
}

/** Geometry and activity of one link, consumed by the power model. */
struct LinkActivity
{
    double lengthMm = 1.0;
    std::uint32_t widthBytes = 32;
    std::uint64_t flitTraversals = 0;
};

#ifdef __LP64__
static_assert(sizeof(LinkActivity) == 24,
              "add the new LinkActivity field to both ckptValue() lists");
#endif

inline void
ckptValue(CkptWriter &w, const LinkActivity &a)
{
    ckptFields(w, a.lengthMm, a.widthBytes, a.flitTraversals);
}

inline void
ckptValue(CkptReader &r, LinkActivity &a)
{
    ckptFields(r, a.lengthMm, a.widthBytes, a.flitTraversals);
}

/** Whole-network activity snapshot. */
struct NocActivity
{
    std::vector<RouterActivity> routers;
    std::vector<LinkActivity> links;

    /** Merge another snapshot (e.g. request + reply networks). */
    void
    append(const NocActivity &other)
    {
        routers.insert(routers.end(), other.routers.begin(),
                       other.routers.end());
        links.insert(links.end(), other.links.begin(),
                     other.links.end());
    }
};

} // namespace amsc

#endif // AMSC_NOC_MESSAGE_HH
