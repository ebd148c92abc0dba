#include "cache/cache_model.hh"

#include "common/bitutils.hh"
#include "common/error.hh"
#include "common/log.hh"

namespace amsc
{

std::uint32_t
CacheParams::numSets() const
{
    if (sizeBytes == 0 || assoc == 0 || lineBytes == 0)
        throw ConfigError(strfmt("cache '%s': zero geometry parameter",
                                 name.c_str()));
    const std::uint64_t lines = sizeBytes / lineBytes;
    if (lines == 0 || lines % assoc != 0)
        throw ConfigError(strfmt(
            "cache '%s': size %llu not divisible into %u-way sets of "
            "%u B lines",
            name.c_str(), static_cast<unsigned long long>(sizeBytes),
            assoc, lineBytes));
    return static_cast<std::uint32_t>(lines / assoc);
}

CacheModel::CacheModel(const CacheParams &params)
    : params_(params),
      tags_(params.numSets(), params.assoc, params.repl, params.seed)
{
}

LookupResult
CacheModel::lookup(Addr line_addr, bool is_write,
                   std::uint32_t accessor, Cycle now)
{
    LookupResult res;
    CacheLine *line = tags_.access(line_addr, now, accessor);
    if (line != nullptr) {
        res.hit = true;
        line->accessorMask |= accessor < 32
            ? (std::uint32_t{1} << accessor)
            : 0;
        line->lastAccessor = accessor;
        if (is_write) {
            ++stats_.writeHits;
            if (params_.writePolicy == WritePolicy::WriteBack) {
                line->dirty = true;
            } else {
                res.forwardWrite = true;
                ++stats_.writeThroughForwards;
            }
        } else {
            ++stats_.readHits;
        }
        return res;
    }

    // Miss.
    if (is_write) {
        ++stats_.writeMisses;
        // Write misses always propagate the data downstream; under
        // Allocate the line is additionally installed by fill().
        res.forwardWrite = true;
        ++stats_.writeThroughForwards;
        if (params_.writeAlloc == WriteAllocPolicy::Allocate)
            res.fillAddr = line_addr;
    } else {
        ++stats_.readMisses;
        res.fillAddr = line_addr;
    }
    return res;
}

FillResult
CacheModel::fill(Addr line_addr, bool was_write,
                 std::uint32_t accessor, Cycle now)
{
    FillResult out;
    // A concurrent fill (merged miss) may have installed the line.
    if (tags_.probe(line_addr) != nullptr)
        return out;

    Eviction ev;
    CacheLine *line = tags_.insert(line_addr, now, ev, accessor);
    ++stats_.fills;
    if (ev.valid) {
        ++stats_.evictions;
        if (ev.dirty) {
            ++stats_.dirtyEvictions;
            out.writeback = true;
            out.writebackAddr = ev.lineAddr;
        }
    }
    line->accessorMask = accessor < 32
        ? (std::uint32_t{1} << accessor)
        : 0;
    line->lastAccessor = accessor;
    if (was_write && params_.writePolicy == WritePolicy::WriteBack &&
        params_.writeAlloc == WriteAllocPolicy::Allocate) {
        line->dirty = true;
    }
    return out;
}

bool
CacheModel::contains(Addr line_addr) const
{
    return tags_.probe(line_addr) != nullptr;
}

void
CacheModel::invalidateAll()
{
    stats_.invalidations += tags_.numValidLines();
    tags_.invalidateAll();
}

std::vector<Addr>
CacheModel::collectDirtyLines()
{
    return tags_.collectDirtyLines();
}


void
CacheModel::saveCkpt(CkptWriter &w) const
{
    tags_.saveCkpt(w);
    w.pod(stats_);
}

void
CacheModel::loadCkpt(CkptReader &r)
{
    tags_.loadCkpt(r);
    r.pod(stats_);
}

} // namespace amsc
