#include "workloads/trace_gen.hh"

#include <algorithm>

#include "common/log.hh"

namespace amsc
{

SyntheticGen::SyntheticGen(const TraceParams &params,
                           std::shared_ptr<const ZipfSampler> zipf,
                           CtaId cta, std::uint32_t warp,
                           std::uint32_t warps_in_cta)
    : params_(params), zipf_(std::move(zipf)), cta_(cta), warp_(warp),
      warpsInCta_(warps_in_cta == 0 ? 1 : warps_in_cta),
      // The warp's stream is a pure function of (seed, cta, warp):
      // trace replay bit-stability (amsc trace verify) depends on no
      // other state feeding the generator. The additive terms cannot
      // alias two (cta, warp) pairs -- gcd(8191, 131) = 1 and warp
      // counts stay far below 8191 -- and Rng's splitmix64 expansion
      // decorrelates the adjacent seeds this scheme produces.
      rng_(params.seed * 0x100001b3ULL + cta * 8191ULL + warp * 131ULL)
{
    // Decorrelate streaming positions across warps of a CTA.
    streamPos_ = static_cast<std::uint64_t>(warp) * 17ULL;
    if (params_.pattern == AccessPattern::ZipfShared && !zipf_)
        panic("ZipfShared generator requires a sampler");
}

Addr
SyntheticGen::sharedAddr(Cycle now)
{
    const std::uint64_t n = params_.sharedLines;
    if (n == 0)
        return params_.sharedBase;

    switch (params_.pattern) {
      case AccessPattern::Broadcast: {
        // Persistent hot subset: all SMs keep returning to the same
        // few lines (first-layer weights), each resident in exactly
        // one slice under shared caching.
        if (zipf_ && rng_.chance(params_.hotFraction)) {
            const std::uint64_t hot =
                std::min<std::uint64_t>(params_.hotLines, n);
            const std::uint64_t rank = zipf_->sample(rng_);
            return params_.sharedBase +
                (rank * 2654435761ULL) % hot;
        }
        // Wall-clock phase: every warp in the GPU is near the same
        // position of the shared stream (layer-by-layer reuse).
        const std::uint64_t phase =
            (now / params_.phaseCyclesPerLine) % n;
        const std::uint64_t off =
            rng_.below(params_.broadcastWindow);
        return params_.sharedBase + (phase + off) % n;
      }
      case AccessPattern::ZipfShared: {
        // Structured-sharing component: a windowed lockstep walk over
        // the region (pivot rows, tree upper levels).
        if (params_.broadcastMix > 0.0 &&
            rng_.chance(params_.broadcastMix)) {
            const std::uint64_t phase =
                (now / params_.phaseCyclesPerLine) % n;
            return params_.sharedBase +
                (phase + rng_.below(params_.broadcastWindow)) % n;
        }
        // Skewed popularity; ranks are scattered over the region so
        // hot lines spread across slices and banks.
        const std::uint64_t rank = zipf_->sample(rng_);
        return params_.sharedBase + (rank * 2654435761ULL) % n;
      }
      case AccessPattern::TiledShared: {
        // CTA groups stream through tiles; groups wrap around the
        // region so the footprint is exercised evenly.
        const std::uint32_t tl = params_.tileLines;
        const std::uint64_t num_tiles =
            n < tl ? 1 : n / tl;
        const std::uint64_t group = cta_ / params_.ctasPerTile;
        const std::uint64_t tile =
            (group + streamPos_ / tl) % num_tiles;
        const std::uint64_t within = streamPos_ % tl;
        ++streamPos_;
        return params_.sharedBase + tile * tl + within;
      }
      case AccessPattern::PrivateStream:
        // Small shared structure (arguments/LUTs): uniform.
        return params_.sharedBase + rng_.below(n);
    }
    panic("unknown access pattern");
}

Addr
SyntheticGen::privateAddr()
{
    const std::uint64_t n =
        params_.privateLinesPerCta == 0 ? 1
                                        : params_.privateLinesPerCta;
    // Warps stream disjoint chunks of the CTA's region: no reuse
    // between warps, so streaming workloads see no capacity benefit
    // from either LLC organization (the paper's neutral class).
    const std::uint64_t chunk =
        std::max<std::uint64_t>(1, n / warpsInCta_);
    const Addr base = params_.privateBase +
        static_cast<Addr>(cta_) * n +
        static_cast<Addr>(warp_ % warpsInCta_) * chunk;
    const Addr a = base + (privatePos_ % chunk);
    ++privatePos_;
    return a;
}

bool
SyntheticGen::nextInstr(WarpInstr &out, Cycle now)
{
    if (issued_ >= params_.memInstrsPerWarp)
        return false;
    ++issued_;

    out = WarpInstr{};
    // +/-1 jitter decorrelates warp lockstep inside an SM.
    const std::uint32_t k = params_.computePerMem;
    out.computeCycles = k == 0 ? 0
                               : k + static_cast<std::uint32_t>(
                                     rng_.below(3)) - 1;

    if (params_.atomicFraction > 0.0 &&
        rng_.chance(params_.atomicFraction)) {
        // Atomics update a small set of shared counters/bins.
        out.isAtomic = true;
        out.numAccesses = 1;
        const std::uint64_t bins =
            std::min<std::uint64_t>(params_.sharedLines == 0
                                        ? 1
                                        : params_.sharedLines,
                                    512);
        out.addrs[0] = params_.sharedBase + rng_.below(bins);
        return true;
    }
    out.isWrite = rng_.chance(params_.writeFraction);
    const std::uint32_t na =
        std::min(params_.accessesPerInstr, kMaxAccessesPerInstr);
    out.numAccesses = na == 0 ? 1 : na;
    for (std::uint32_t i = 0; i < out.numAccesses; ++i) {
        // Stores target private data: the paper's shared footprints
        // are read-only.
        const bool shared = !out.isWrite &&
            rng_.chance(params_.sharedFraction);
        out.addrs[i] = shared ? sharedAddr(now) : privateAddr();
    }
    return true;
}

KernelInfo
makeSyntheticKernel(const std::string &name, const TraceParams &params,
                    std::uint32_t num_ctas,
                    std::uint32_t warps_per_cta)
{
    KernelInfo k;
    k.name = name;
    k.numCtas = num_ctas;
    k.warpsPerCta = warps_per_cta;

    std::shared_ptr<const ZipfSampler> zipf;
    if (params.pattern == AccessPattern::ZipfShared) {
        zipf = std::make_shared<const ZipfSampler>(
            params.sharedLines == 0 ? 1 : params.sharedLines,
            params.zipfAlpha);
    } else if (params.pattern == AccessPattern::Broadcast &&
               params.hotLines > 0 && params.hotFraction > 0.0) {
        zipf = std::make_shared<const ZipfSampler>(params.hotLines,
                                                   params.hotAlpha);
    }
    const TraceParams p = params;
    k.makeGen = [p, zipf, warps_per_cta](CtaId cta,
                                         std::uint32_t warp) {
        return std::make_unique<SyntheticGen>(p, zipf, cta, warp,
                                              warps_per_cta);
    };
    return k;
}

} // namespace amsc
