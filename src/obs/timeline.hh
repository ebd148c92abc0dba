/**
 * @file
 * The timeline sink interface (streaming observability).
 *
 * A TimelineSink receives a cycle-stamped event stream -- phase
 * durations, instant markers and sampled counters -- from pull-only
 * observers wired into the simulator (obs/recorder.hh). Sinks never
 * feed anything back: a run with any sink attached is bit-identical
 * to a run with none (tests/test_obs.cc pins this), which is what
 * separates this subsystem from printf instrumentation.
 *
 * Tracks group events for display. registerTrack() names a
 * (process, thread) pair in chrome-tracing terms; phase and instant
 * events land on their track's timeline row, counter events render as
 * a per-track value graph. The concrete sinks are PerfettoSink
 * (obs/perfetto_sink.hh, chrome://tracing + ui.perfetto.dev JSON) and
 * NullTimelineSink below (overhead measurement: every virtual call
 * returns immediately).
 */

#ifndef AMSC_OBS_TIMELINE_HH
#define AMSC_OBS_TIMELINE_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace amsc::obs
{

/** One key/value annotation on an instant event. */
struct TimelineArg
{
    /** Argument name (static lifetime: event vocabulary constants). */
    const char *key = "";
    /** Rendered value. */
    std::string value;
    /** True when the value is a string (JSON-quoted), not a number. */
    bool quoted = false;
};

/** Numeric argument helper. */
inline TimelineArg
numArg(const char *key, const std::string &value)
{
    return {key, value, false};
}

/** String argument helper. */
inline TimelineArg
strArg(const char *key, const std::string &value)
{
    return {key, value, true};
}

/** Abstract consumer of the simulation event stream. */
class TimelineSink
{
  public:
    virtual ~TimelineSink() = default;

    /**
     * Declare a track and return its handle. @p process groups
     * related tracks (one chrome-tracing pid), @p thread names the
     * row within the group.
     */
    virtual int registerTrack(const std::string &process,
                              const std::string &thread) = 0;

    /**
     * Open the phase @p name on @p track at @p ts, closing the
     * track's previous phase (if any) at the same timestamp: each
     * track carries at most one open phase -- exactly the controller
     * FSM semantics the phases mirror.
     */
    virtual void phaseBegin(int track, const char *name, Cycle ts) = 0;

    /** Point event with key/value annotations. */
    virtual void instant(int track, const char *name, Cycle ts,
                         const std::vector<TimelineArg> &args) = 0;

    /** Sampled counter value (one series per track+name). */
    virtual void counter(int track, const char *name, Cycle ts,
                         double value) = 0;

    /** Close open phases at @p ts and flush/finalize the output. */
    virtual void finish(Cycle ts) = 0;
};

/**
 * The no-op sink: accepts the full event stream and drops it.
 * Exists to separate the cost of *observing* (sampling the
 * counters) from the cost of *serializing* (writing JSON).
 */
class NullTimelineSink : public TimelineSink
{
  public:
    int
    registerTrack(const std::string &, const std::string &) override
    {
        return nextTrack_++;
    }
    void phaseBegin(int, const char *, Cycle) override {}
    void instant(int, const char *, Cycle,
                 const std::vector<TimelineArg> &) override
    {
    }
    void counter(int, const char *, Cycle, double) override {}
    void finish(Cycle) override {}

  private:
    int nextTrack_ = 0;
};

} // namespace amsc::obs

#endif // AMSC_OBS_TIMELINE_HH
