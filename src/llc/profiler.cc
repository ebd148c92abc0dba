#include "llc/profiler.hh"

#include <algorithm>

#include "common/log.hh"

namespace amsc
{

LlcProfiler::LlcProfiler(const ProfilerParams &params)
    : params_(params), atd_(params.atd)
{
    if (params_.numSlices == 0 || params_.numClusters == 0)
        panic("profiler requires slices and clusters");
    sliceAccessCounts_.assign(params_.numSlices, 0);
    lspCounters_.assign(params_.numMcs, 0);
}

void
LlcProfiler::beginWindow()
{
    std::fill(sliceAccessCounts_.begin(), sliceAccessCounts_.end(), 0);
    std::fill(lspCounters_.begin(), lspCounters_.end(), 0);
    reads_ = 0;
    readHits_ = 0;
    firstHalfReads_ = 0;
    firstHalfHits_ = 0;
    midMarked_ = false;
    atd_.reset();
}

void
LlcProfiler::markMidWindow()
{
    firstHalfReads_ = reads_;
    firstHalfHits_ = readHits_;
    midMarked_ = true;
}

void
LlcProfiler::onSliceAccess(SliceId slice, Addr line, ClusterId cluster,
                           bool read_hit, bool is_read, Cycle now)
{
    ++sliceAccessCounts_[slice];
    if (is_read) {
        ++reads_;
        if (read_hit)
            ++readHits_;
    }
    if (slice == params_.atdSlice)
        atd_.observe(line, cluster, now);
}

void
LlcProfiler::onRequestIssued(ClusterId cluster, McId mc)
{
    if (cluster == params_.lspCluster && mc < lspCounters_.size())
        ++lspCounters_[mc];
}

double
LlcProfiler::lsp(const std::vector<std::uint64_t> &counts)
{
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    for (const std::uint64_t c : counts) {
        sum += c;
        max = std::max(max, c);
    }
    if (max == 0)
        return 1.0;
    return static_cast<double>(sum) / static_cast<double>(max);
}

double
LlcProfiler::bandwidth(double hit_rate, double lsp_value,
                       double slice_bw, double miss_rate, double mem_bw)
{
    return hit_rate * lsp_value * slice_bw + miss_rate * mem_bw;
}

ProfileSnapshot
LlcProfiler::snapshot() const
{
    ProfileSnapshot s;
    s.sampledAccesses = atd_.samples();
    s.sharedMissRate = reads_ == 0
        ? 0.0
        : 1.0 -
            static_cast<double>(readHits_) /
                static_cast<double>(reads_);
    if (midMarked_ && firstHalfReads_ > 0 &&
        reads_ > firstHalfReads_) {
        const double first = 1.0 -
            static_cast<double>(firstHalfHits_) /
                static_cast<double>(firstHalfReads_);
        const double second = 1.0 -
            static_cast<double>(readHits_ - firstHalfHits_) /
                static_cast<double>(reads_ - firstHalfReads_);
        s.warming = first - second > 0.05;
    }
    s.privateMissRate = atd_.samples() == 0
        ? s.sharedMissRate
        : atd_.predictedPrivateMissRate();

    s.sharedLsp = lsp(sliceAccessCounts_);
    // Cluster-0 counters give the parallelism across this cluster's
    // private slices (one per MC); symmetric clusters contribute the
    // same pattern in their own slices, scaling LSP by the cluster
    // count (capped at the physical slice count).
    s.privateLsp = std::min<double>(
        lsp(lspCounters_) * params_.numClusters,
        static_cast<double>(params_.numSlices));

    s.sharedBw = bandwidth(1.0 - s.sharedMissRate, s.sharedLsp,
                           params_.llcSliceBw, s.sharedMissRate,
                           params_.memBw);
    // Replication can only add misses: the bandwidth model clamps
    // the sampled estimate so noise never credits private caching
    // with a lower miss rate than shared. (Rule #1's similarity test
    // keeps the raw estimate.)
    const double miss_p_clamped =
        std::max(s.privateMissRate, s.sharedMissRate);
    s.privateBw = bandwidth(1.0 - miss_p_clamped, s.privateLsp,
                            params_.llcSliceBw, miss_p_clamped,
                            params_.memBw);
    return s;
}

void
LlcProfiler::saveCkpt(CkptWriter &w) const
{
    atd_.saveCkpt(w);
    w.podVec(sliceAccessCounts_);
    w.podVec(lspCounters_);
    w.u64(reads_);
    w.u64(readHits_);
    w.u64(firstHalfReads_);
    w.u64(firstHalfHits_);
    w.b(midMarked_);
}

void
LlcProfiler::loadCkpt(CkptReader &r)
{
    atd_.loadCkpt(r);
    const std::size_t slices = sliceAccessCounts_.size();
    const std::size_t mcs = lspCounters_.size();
    r.podVec(sliceAccessCounts_);
    r.podVec(lspCounters_);
    if (sliceAccessCounts_.size() != slices ||
        lspCounters_.size() != mcs)
        r.fail("profiler geometry mismatch");
    reads_ = r.u64();
    readHits_ = r.u64();
    firstHalfReads_ = r.u64();
    firstHalfHits_ = r.u64();
    midMarked_ = r.b();
}

} // namespace amsc
