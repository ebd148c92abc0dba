#include "mem/memory_system.hh"

#include "common/log.hh"

namespace amsc
{

MemorySystem::MemorySystem(std::uint32_t num_mcs,
                           const DramParams &dram,
                           const AddressMapping &mapping,
                           MemSched sched)
    : mapping_(mapping)
{
    if (num_mcs != mapping.params().numMcs)
        panic("memory system MC count %u != mapping MC count %u",
              num_mcs, mapping.params().numMcs);
    mcs_.reserve(num_mcs);
    for (McId i = 0; i < num_mcs; ++i)
        mcs_.push_back(
            std::make_unique<MemoryController>(i, dram, sched));
}

void
MemorySystem::setReadCallback(ReadCallback cb)
{
    readCb_ = std::move(cb);
    for (auto &mc : mcs_) {
        mc->setReadCallback(
            [this](const DramRequest &req, Cycle now) {
                if (readCb_)
                    readCb_(req.lineAddr, req.token, now);
            });
    }
}

void
MemorySystem::setCommandObserver(
    std::function<void(McId, const McCommand &)> obs)
{
    for (auto &mc : mcs_) {
        if (!obs) {
            mc->setCommandObserver(nullptr);
            continue;
        }
        const McId id = mc->id();
        mc->setCommandObserver(
            [obs, id](const McCommand &cmd) { obs(id, cmd); });
    }
}

bool
MemorySystem::canAccept(Addr line_addr)
{
    const DramCoord c = mapping_.decode(line_addr);
    if (mcs_[c.mc]->canAccept())
        return true;
    mcs_[c.mc]->noteQueueFullReject();
    return false;
}

void
MemorySystem::access(Addr line_addr, bool is_write,
                     std::uint64_t token, Cycle now)
{
    const DramCoord c = mapping_.decode(line_addr);
    DramRequest req;
    req.lineAddr = line_addr;
    req.bank = c.bank;
    req.row = c.row;
    req.isWrite = is_write;
    req.token = token;
    mcs_[c.mc]->enqueue(req, now);
}

void
MemorySystem::tick(Cycle now)
{
    for (auto &mc : mcs_)
        mc->tick(now);
}

bool
MemorySystem::drained() const
{
    for (const auto &mc : mcs_) {
        if (!mc->drained())
            return false;
    }
    return true;
}

std::uint64_t
MemorySystem::totalAccesses() const
{
    std::uint64_t n = 0;
    for (const auto &mc : mcs_)
        n += mc->stats().reads + mc->stats().writes;
    return n;
}

McStats
MemorySystem::aggregateStats() const
{
    McStats agg;
    for (const auto &mc : mcs_) {
        const McStats &s = mc->stats();
        agg.reads += s.reads;
        agg.writes += s.writes;
        agg.rowHits += s.rowHits;
        agg.rowMisses += s.rowMisses;
        agg.busBusyCycles += s.busBusyCycles;
        agg.queueFullRejects += s.queueFullRejects;
        agg.totalReadLatency += s.totalReadLatency;
        agg.refreshes += s.refreshes;
        agg.writeDrainEntries += s.writeDrainEntries;
    }
    return agg;
}

void
MemorySystem::registerStats(StatSet &set) const
{
    for (const auto &mc : mcs_)
        mc->registerStats(set);
}

void
MemorySystem::saveCkpt(CkptWriter &w) const
{
    for (const auto &mc : mcs_)
        mc->saveCkpt(w);
}

void
MemorySystem::loadCkpt(CkptReader &r)
{
    for (auto &mc : mcs_)
        mc->loadCkpt(r);
}

} // namespace amsc
