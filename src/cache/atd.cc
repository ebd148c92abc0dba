#include "cache/atd.hh"

#include "common/bitutils.hh"
#include "common/error.hh"
#include "common/log.hh"

namespace amsc
{

Atd::Atd(const AtdParams &params)
    : params_(params),
      repl_(ReplacementPolicy::create(params.repl, params.seed,
                                      params.duelSets))
{
    if (params_.sampledSets == 0 || params_.assoc == 0)
        throw ConfigError(
            "ATD requires non-zero sampled sets and associativity");
    if (params_.sampledSets > params_.sliceSets)
        throw ConfigError(strfmt(
            "ATD cannot sample more sets (%u) than the slice has (%u)",
            params_.sampledSets, params_.sliceSets));
    stride_ = params_.sliceSets / params_.sampledSets;
    if (stride_ == 0)
        stride_ = 1;
    entries_.resize(static_cast<std::size_t>(params_.sampledSets) *
                    params_.assoc);
    victimScratch_.reserve(params_.assoc);
    repl_->bind(params_.sampledSets, params_.assoc);
}

std::uint32_t
Atd::sliceSetOf(Addr line_addr) const
{
    return static_cast<std::uint32_t>(line_addr % params_.sliceSets);
}

CacheLine &
Atd::entryAt(std::uint32_t atd_set, std::uint32_t way)
{
    return entries_[static_cast<std::size_t>(atd_set) * params_.assoc +
                    way];
}

bool
Atd::sampled(Addr line_addr) const
{
    const std::uint32_t set = sliceSetOf(line_addr);
    return set % stride_ == 0 &&
        set / stride_ < params_.sampledSets;
}

void
Atd::observe(Addr line_addr, std::uint32_t router, Cycle now)
{
    const std::uint32_t set = sliceSetOf(line_addr);
    if (set % stride_ != 0)
        return;
    const std::uint32_t atd_set = set / stride_;
    if (atd_set >= params_.sampledSets)
        return;

    ++samples_;
    const AccessInfo ai{line_addr, atd_set, router, now};

    // Probe all ways of the sampled set.
    CacheLine *hit = nullptr;
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        CacheLine &e = entryAt(atd_set, w);
        if (e.valid && e.lineAddr == line_addr) {
            hit = &e;
            break;
        }
    }

    if (hit != nullptr) {
        ++sharedHits_;
        if (router < 32 && (hit->accessorMask >> router) & 1u)
            ++privateHits_;
        if (router < 32)
            hit->accessorMask |= 1u << router;
        hit->reused = true;
        repl_->onHit(*hit, ai);
        return;
    }

    // Miss: install with the slice's replacement policy (prefer
    // invalid ways, as the main tags do).
    repl_->onMiss(ai);
    CacheLine *victim = nullptr;
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        CacheLine &e = entryAt(atd_set, w);
        if (!e.valid) {
            victim = &e;
            break;
        }
    }
    if (victim == nullptr) {
        victimScratch_.clear();
        for (std::uint32_t w = 0; w < params_.assoc; ++w)
            victimScratch_.push_back(&entryAt(atd_set, w));
        victim = victimScratch_[repl_->victim(atd_set, victimScratch_)];
        repl_->onEvict(*victim, ai);
    }
    victim->lineAddr = line_addr;
    victim->valid = true;
    victim->accessorMask = router < 32 ? (1u << router) : 0;
    victim->fillSrc = router;
    victim->reused = false;
    repl_->onFill(*victim, ai);
}

double
Atd::predictedPrivateMissRate() const
{
    if (samples_ == 0)
        return 0.0;
    return 1.0 -
        static_cast<double>(privateHits_) /
        static_cast<double>(samples_);
}

double
Atd::sampledSharedMissRate() const
{
    if (samples_ == 0)
        return 0.0;
    return 1.0 -
        static_cast<double>(sharedHits_) /
        static_cast<double>(samples_);
}

void
Atd::reset()
{
    samples_ = 0;
    sharedHits_ = 0;
    privateHits_ = 0;
}

std::uint64_t
Atd::hardwareCostBytes(std::uint32_t tag_bits) const
{
    const std::uint64_t bits_per_entry = tag_bits + params_.numRouters;
    const std::uint64_t entries =
        static_cast<std::uint64_t>(params_.sampledSets) * params_.assoc;
    return divCeil(bits_per_entry * entries, 8);
}


void
Atd::saveCkpt(CkptWriter &w) const
{
    ckptValue(w, entries_);
    repl_->saveCkpt(w);
    w.u64(samples_);
    w.u64(sharedHits_);
    w.u64(privateHits_);
}

void
Atd::loadCkpt(CkptReader &r)
{
    std::vector<CacheLine> entries;
    ckptValue(r, entries);
    if (entries.size() != entries_.size())
        r.fail("ATD geometry mismatch");
    entries_ = std::move(entries);
    repl_->loadCkpt(r);
    samples_ = r.u64();
    sharedHits_ = r.u64();
    privateHits_ = r.u64();
}

} // namespace amsc
