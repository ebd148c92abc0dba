/**
 * @file
 * Replay of recorded warp instruction streams.
 *
 * ReplayGen implements WarpTraceGen by streaming one warp's records
 * back from a trace file. Payload bytes are pulled through the shared
 * TraceReader in fixed-size chunks, so memory per live warp is O(1)
 * (one small buffer) regardless of stream length, and a full-GPU
 * replay touches the disk sequentially per warp.
 *
 * Because the simulator is deterministic given its instruction
 * streams, replaying a trace reproduces the recorded run's RunResult
 * exactly -- same cycles, same IPC, same miss rates -- which is what
 * `amsc trace verify` asserts.
 */

#ifndef AMSC_TRACE_REPLAY_GEN_HH
#define AMSC_TRACE_REPLAY_GEN_HH

#include <memory>
#include <vector>

#include "gpu/trace.hh"
#include "trace/trace_reader.hh"

namespace amsc
{

/** Generator streaming a recorded warp block back from disk. */
class ReplayGen : public WarpTraceGen
{
  public:
    /**
     * @param reader shared open trace file.
     * @param kernel manifest index of the kernel being replayed.
     *
     * A warp with no recorded block (recording cut before it
     * launched) replays as an empty stream.
     */
    ReplayGen(std::shared_ptr<const TraceReader> reader,
              std::uint32_t kernel, CtaId cta, std::uint32_t warp);

    bool nextInstr(WarpInstr &out, Cycle now) override;

    void
    saveCkpt(CkptWriter &w) const override
    {
        // Collapse the read-ahead buffer into an effective file
        // position: bytes decoded == fileOffset_ minus the buffered
        // tail (avail_ - pos_). Restore re-reads from there.
        const std::uint64_t buffered = avail_ - pos_;
        w.varint(instrsLeft_);
        w.varint(fileOffset_ - buffered);
        w.varint(fileBytesLeft_ + buffered);
        w.u64(prev_);
    }

    void
    loadCkpt(CkptReader &r) override
    {
        instrsLeft_ = r.varint();
        fileOffset_ = r.varint();
        fileBytesLeft_ = r.varint();
        prev_ = r.u64();
        pos_ = 0;
        avail_ = 0;
    }

  private:
    void refill();

    std::shared_ptr<const TraceReader> reader_;
    std::uint64_t instrsLeft_ = 0;
    std::uint64_t fileOffset_ = 0;  ///< next unread payload byte
    std::uint64_t fileBytesLeft_ = 0;
    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;   ///< decode cursor within buf_
    std::size_t avail_ = 0; ///< valid bytes within buf_
    Addr prev_ = 0;
};

/**
 * Materialize the trace's kernel sequence as replayable KernelInfos,
 * substituting ReplayGen factories for the original generators.
 */
std::vector<KernelInfo> makeReplayKernels(
    const std::shared_ptr<const TraceReader> &reader);

} // namespace amsc

#endif // AMSC_TRACE_REPLAY_GEN_HH
