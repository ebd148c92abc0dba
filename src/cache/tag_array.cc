#include "cache/tag_array.hh"

#include "common/error.hh"
#include "common/log.hh"

namespace amsc
{

TagArray::TagArray(std::uint32_t num_sets, std::uint32_t assoc,
                   ReplPolicy repl, std::uint64_t seed,
                   BypassPolicy bypass, std::uint32_t duel_sets)
    : numSets_(num_sets), assoc_(assoc), replKind_(repl),
      bypassKind_(bypass),
      repl_(ReplacementPolicy::create(repl, seed, duel_sets)),
      bypass_(BypassPredictor::create(bypass))
{
    if (num_sets == 0 || assoc == 0)
        throw ConfigError(
            strfmt("TagArray requires non-zero sets (%u) and assoc (%u)",
                   num_sets, assoc));
    lines_.resize(static_cast<std::size_t>(num_sets) * assoc);
    victimScratch_.reserve(assoc);
    repl_->bind(num_sets, assoc);
    if (bypass_)
        bypass_->bind(num_sets, assoc);
}

CacheLine *
TagArray::probe(Addr line_addr)
{
    const std::uint32_t set = setIndex(line_addr);
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        CacheLine &line = lineAt(set, w);
        if (line.valid && line.lineAddr == line_addr)
            return &line;
    }
    return nullptr;
}

const CacheLine *
TagArray::probe(Addr line_addr) const
{
    return const_cast<TagArray *>(this)->probe(line_addr);
}

CacheLine *
TagArray::access(Addr line_addr, Cycle now, std::uint32_t src)
{
    const AccessInfo ai{line_addr, setIndex(line_addr), src, now};
    CacheLine *line = probe(line_addr);
    if (line != nullptr) {
        line->reused = true;
        repl_->onHit(*line, ai);
        if (bypass_)
            bypass_->onHit(*line, ai);
    } else {
        repl_->onMiss(ai);
    }
    return line;
}

CacheLine *
TagArray::insert(Addr line_addr, Cycle now, Eviction &evicted,
                 std::uint32_t src)
{
    evicted = Eviction{};
    const std::uint32_t set = setIndex(line_addr);
    const AccessInfo ai{line_addr, set, src, now};

    // Prefer an invalid way.
    CacheLine *target = nullptr;
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        CacheLine &line = lineAt(set, w);
        if (!line.valid) {
            target = &line;
            break;
        }
    }

    if (target == nullptr) {
        victimScratch_.clear();
        for (std::uint32_t w = 0; w < assoc_; ++w)
            victimScratch_.push_back(&lineAt(set, w));
        const std::uint32_t vic = repl_->victim(set, victimScratch_);
        target = victimScratch_[vic];
        evicted.valid = true;
        evicted.dirty = target->dirty;
        evicted.lineAddr = target->lineAddr;
        repl_->onEvict(*target, ai);
        if (bypass_)
            bypass_->onEvict(*target, ai);
    }

    target->lineAddr = line_addr;
    target->valid = true;
    target->dirty = false;
    target->insertCycle = now;
    target->accessorMask = 0;
    target->lastAccessor = kInvalidId;
    target->fillSrc = src;
    target->reused = false;
    repl_->onFill(*target, ai);
    return target;
}

bool
TagArray::shouldBypassFill(Addr line_addr, std::uint32_t src,
                           Cycle now) const
{
    if (!bypass_)
        return false;
    const AccessInfo ai{line_addr, setIndex(line_addr), src, now};
    return bypass_->shouldBypass(ai);
}

Eviction
TagArray::invalidate(Addr line_addr)
{
    Eviction out;
    CacheLine *line = probe(line_addr);
    if (line != nullptr) {
        out.valid = true;
        out.dirty = line->dirty;
        out.lineAddr = line->lineAddr;
        *line = CacheLine{};
    }
    return out;
}

void
TagArray::invalidateAll()
{
    for (auto &line : lines_)
        line = CacheLine{};
}

std::vector<Addr>
TagArray::collectDirtyLines()
{
    std::vector<Addr> out;
    for (auto &line : lines_) {
        if (line.valid && line.dirty) {
            out.push_back(line.lineAddr);
            line.dirty = false;
        }
    }
    return out;
}

void
TagArray::forEachLine(const std::function<void(CacheLine &)> &fn)
{
    for (auto &line : lines_) {
        if (line.valid)
            fn(line);
    }
}

void
TagArray::forEachLine(
    const std::function<void(const CacheLine &)> &fn) const
{
    for (const auto &line : lines_) {
        if (line.valid)
            fn(line);
    }
}

std::uint64_t
TagArray::numValidLines() const
{
    std::uint64_t n = 0;
    for (const auto &line : lines_) {
        if (line.valid)
            ++n;
    }
    return n;
}


void
TagArray::saveCkpt(CkptWriter &w) const
{
    ckptValue(w, lines_);
    repl_->saveCkpt(w);
    if (bypass_)
        bypass_->saveCkpt(w);
}

void
TagArray::loadCkpt(CkptReader &r)
{
    std::vector<CacheLine> lines;
    ckptValue(r, lines);
    if (lines.size() != lines_.size())
        r.fail("tag array geometry mismatch");
    lines_ = std::move(lines);
    repl_->loadCkpt(r);
    if (bypass_)
        bypass_->loadCkpt(r);
}

} // namespace amsc
