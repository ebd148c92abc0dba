#include "obs/stats_stream.hh"

#include <sstream>

#include "common/atomic_io.hh"
#include "common/error.hh"
#include "obs/perfetto_sink.hh"

namespace amsc::obs
{

StatsStreamer::StatsStreamer(const std::string &path)
    : out_(path, std::ios::binary), path_(path)
{
    if (!out_)
        throw IoError(path, "stats stream: cannot create");
}

void
StatsStreamer::write(Cycle cycle, Cycle window,
                     const std::vector<TimelineArg> &fields)
{
    std::ostringstream line;
    line << "{\"cycle\":" << cycle << ",\"window\":" << window;
    for (const TimelineArg &f : fields) {
        line << ",\"" << f.key << "\":";
        if (f.quoted)
            line << '"' << jsonEscapeString(f.value) << '"';
        else
            line << f.value;
    }
    line << "}\n";
    // One whole line per checked write: a failure surfaces as
    // IoError and concurrent readers only ever see whole records.
    checkedStreamWrite(out_, line.str(), path_);
    out_.flush();
    if (!out_.good())
        throw IoError(path_, "stats stream: flush failed");
}

} // namespace amsc::obs
