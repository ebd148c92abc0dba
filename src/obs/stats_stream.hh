/**
 * @file
 * Windowed stats streaming as JSONL (one JSON object per line).
 *
 * The second observability channel next to the Perfetto timeline: a
 * RunResult-style *delta* record every stats_stream_period cycles,
 * flushed line by line so a long run can be watched live with
 * `tail -f` or piped into a plotter, and later consumed as the feed
 * for `amsc serve`. Schema in docs/observability.md; each line is
 * self-delimiting, so a killed run leaves only whole records.
 */

#ifndef AMSC_OBS_STATS_STREAM_HH
#define AMSC_OBS_STATS_STREAM_HH

#include <fstream>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/timeline.hh"

namespace amsc::obs
{

/** Line-buffered JSONL writer for windowed stats records. */
class StatsStreamer
{
  public:
    /**
     * Open @p path for writing; throws IoError when it cannot be
     * created.
     */
    explicit StatsStreamer(const std::string &path);

    /**
     * Emit one window record: {"cycle":N,"window":W,<fields>...},
     * where @p window is the record's span in cycles (the final
     * record of a run may be shorter than the period). Flushes so
     * the line is visible to concurrent readers immediately.
     */
    void write(Cycle cycle, Cycle window,
               const std::vector<TimelineArg> &fields);

  private:
    std::ofstream out_;
    std::string path_; ///< for error reporting on short writes
};

} // namespace amsc::obs

#endif // AMSC_OBS_STATS_STREAM_HH
