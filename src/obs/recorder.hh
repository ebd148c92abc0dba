/**
 * @file
 * The timeline recorder: pull-only observer wiring for one run.
 *
 * TimelineRecorder attaches to a built GpuSystem and translates its
 * observer streams into TimelineSink events plus windowed JSONL
 * stats records:
 *
 *  - LlcSystem controller events -> one phase track per adaptive app
 *    (Profiling / SharedRun / reconfig drain / PrivateRun ...) with
 *    "decision" instants carrying the Rule #1/#2 evaluation and the
 *    ATD estimates, and "reprofile" instants for the Rule #3
 *    triggers;
 *  - a periodic GpuSystem cycle observer -> per-slice occupancy and
 *    windowed miss rate, per-MC row-hit rate / queue depth /
 *    refreshes / bus utilization, NoC flit rates;
 *  - the MemoryController command observer (PR 5) -> per-MC
 *    activate/refresh counts per window;
 *  - the same window boundary -> one StatsStreamer delta record.
 *
 * Everything is read-only: attaching a recorder (null sink or file
 * sink) leaves RunResult bit-identical (tests/test_obs.cc). The
 * SweepRunner builds a recorder per point from the configuration
 * keys (timeline / timeline_out / stats_stream_out /
 * stats_stream_period); fromConfig() returns nullptr when all of
 * them are off, so the default path never constructs one.
 */

#ifndef AMSC_OBS_RECORDER_HH
#define AMSC_OBS_RECORDER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/stats_stream.hh"
#include "obs/timeline.hh"
#include "sim/gpu_system.hh"

namespace amsc::obs
{

/** Observer wiring + window bookkeeping for one GpuSystem run. */
class TimelineRecorder
{
  public:
    /**
     * Attach to @p gpu. @p sink receives the event stream (null
     * pointer = NullTimelineSink), @p stream (optional) the windowed
     * JSONL records; the window length is
     * gpu.config().statsStreamPeriod.
     */
    TimelineRecorder(GpuSystem &gpu,
                     std::unique_ptr<TimelineSink> sink,
                     std::unique_ptr<StatsStreamer> stream);

    /** Detaches all observers; finishes the sink if still open. */
    ~TimelineRecorder();

    TimelineRecorder(const TimelineRecorder &) = delete;
    TimelineRecorder &operator=(const TimelineRecorder &) = delete;

    /**
     * Emit the final (possibly short) window, close open phases and
     * finalize the output files. Call after GpuSystem::run().
     */
    void finish();

    /**
     * Build a recorder per the registry keys; nullptr when neither
     * the timeline nor the stats stream is enabled.
     */
    static std::unique_ptr<TimelineRecorder>
    fromConfig(GpuSystem &gpu);

  private:
    void onCtrlEvent(const LlcCtrlEvent &e);
    void onServingEvent(int arrival_track, int request_track,
                        const ServingEvent &e);
    void sample(Cycle now);
    void emitCounters(Cycle now);
    void emitStreamRecord(Cycle now);

    GpuSystem &gpu_;
    std::unique_ptr<TimelineSink> sink_;
    std::unique_ptr<StatsStreamer> stream_;
    Cycle period_ = 0;
    bool finished_ = false;

    int ctrlTrack_ = -1;
    int sliceTrack_ = -1;
    int dramTrack_ = -1;
    int nocTrack_ = -1;
    /** Apps whose request driver this recorder observes (detach). */
    std::vector<AppId> servingApps_;

    // ---- previous-window snapshots (delta computation) -----------
    struct SliceWindow
    {
        std::uint64_t reads = 0;
        std::uint64_t readMisses = 0;
    };
    struct McWindow
    {
        std::uint64_t rowHits = 0;
        std::uint64_t rowMisses = 0;
        std::uint64_t busBusyCycles = 0;
        /** Window command counts fed by the MC command observer. */
        std::uint64_t acts = 0;
        std::uint64_t refreshes = 0;
    };
    std::vector<SliceWindow> slicePrev_;
    std::vector<McWindow> mcPrev_;
    Cycle prevAt_ = 0;
    std::uint64_t prevInstr_ = 0;
    std::uint64_t prevLlcAccesses_ = 0;
    std::uint64_t prevLlcReads_ = 0;
    std::uint64_t prevLlcReadMisses_ = 0;
    std::uint64_t prevDramAccesses_ = 0;
    std::uint64_t prevReqFlits_ = 0;
    std::uint64_t prevRepFlits_ = 0;
    std::uint64_t prevInjectStalls_ = 0;
};

} // namespace amsc::obs

#endif // AMSC_OBS_RECORDER_HH
