/**
 * @file
 * Crash-safe sweep journal: sharded, append-only, CRC-framed.
 *
 * A journaled sweep writes one file per shard
 * (`shard-<i>-of-<N>.jnl`) into the journal directory. The file is a
 * sequence of uniform frames
 *
 *   [payload size u32] [CRC-32 of payload u32] [payload]
 *
 * (fixed-width fields little-endian). The first frame is the header:
 * magic "AMSCJNL1", format version, the sweep identity hash (an
 * FNV-1a digest over every point's label, config identity and
 * workload specs -- see sweepIdentityHash()), the shard coordinates
 * and the total grid size. Each following frame is one finished
 * point: its grid index, failure flag, label, error text and the
 * complete RunResult in the ckpt codec.
 *
 * The header is published with writeFileAtomic(); records are
 * appended with appendFileDurable(), so after a kill at any moment
 * the file is a valid journal plus at most one torn record at the
 * tail. Opening an existing journal validates the header against the
 * expected sweep (FormatError on any mismatch -- a journal can never
 * be resumed into a different grid), replays every intact record and
 * truncates the torn tail, guaranteeing a half-appended record is
 * never parsed as a result. Because every point is deterministic,
 * re-running a truncated point reproduces the identical RunResult,
 * which is what makes `amsc merge` byte-identical to a single
 * uninterrupted process at any shard count, after any number of
 * kills (docs/robustness.md).
 */

#ifndef AMSC_SIM_JOURNAL_HH
#define AMSC_SIM_JOURNAL_HH

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/ckpt.hh"
#include "sim/sweep.hh"

namespace amsc
{

/** Journal file magic (8 bytes, no NUL). */
inline constexpr char kJournalMagic[] = "AMSCJNL1";

/** Journal format version (2: RunResult serving fields). */
inline constexpr std::uint32_t kJournalVersion = 2;

/** Identity of one shard journal (first frame of the file). */
struct JournalHeader
{
    /** sweepIdentityHash() of the full grid. */
    std::uint64_t sweepHash = 0;
    std::uint32_t shardIndex = 0;
    std::uint32_t shardCount = 1;
    /** Full grid size (all shards). */
    std::uint64_t totalPoints = 0;
};

bool operator==(const JournalHeader &a, const JournalHeader &b);

/** One journaled point: grid slot plus its outcome. */
struct JournalRecord
{
    std::uint64_t pointIndex = 0;
    /** Point threw SimError under sweep_on_error=skip. */
    bool failed = false;
    std::string label;
    /** Error text of a failed point ("" on success). */
    std::string error;
    /** Default-constructed for failed points. */
    RunResult result;
};

/**
 * FNV-1a digest identifying a sweep grid: point count, then every
 * point's label, configIdentityHash(), run-length limits
 * (max_cycles / max_instructions -- identity-excluded for
 * checkpoints but result-relevant here) and workload-spec list. Two
 * invocations with the same scenario + overrides agree; any change
 * to the grid shape, order or configuration changes the hash, so a
 * stale journal directory is rejected instead of merged.
 */
std::uint64_t sweepIdentityHash(const std::vector<SweepPoint> &points);

/** Append-only journal of one shard of a sweep. */
class SweepJournal
{
  public:
    /** Canonical shard file name: "shard-<i>-of-<N>.jnl". */
    static std::string shardFileName(std::uint32_t shard,
                                     std::uint32_t count);

    /**
     * Open @p path, creating it (header only) when absent. An
     * existing file is validated against @p header and replayed:
     * records() holds every intact record and a torn tail is
     * truncated off the file. Throws FormatError when the file is
     * not a journal of exactly this sweep/shard, IoError on I/O
     * failure.
     */
    SweepJournal(const std::string &path, const JournalHeader &header);

    /** Point @p point already has a journaled result. */
    bool
    has(std::uint64_t point) const
    {
        return done_.count(point) != 0;
    }

    /** Number of journaled points. */
    std::size_t numDone() const { return done_.size(); }

    /** Replayed + appended records, file order. */
    const std::vector<JournalRecord> &
    records() const
    {
        return records_;
    }

    /**
     * Append one finished point and fsync. Safe to call from a
     * result hook; callers serialize (SweepRunner's onResult already
     * is).
     */
    void append(const JournalRecord &rec);

    /**
     * Read-only load for `amsc merge`: validate the header against
     * @p expect and return every intact record (a torn tail is
     * ignored, not truncated). Throws IoError when the file cannot
     * be read, FormatError on a foreign or mismatched journal.
     */
    static std::vector<JournalRecord>
    readAll(const std::string &path, const JournalHeader &expect);

  private:
    std::string path_;
    JournalHeader header_;
    std::vector<JournalRecord> records_;
    std::unordered_set<std::uint64_t> done_;
};

} // namespace amsc

#endif // AMSC_SIM_JOURNAL_HH
