/**
 * @file
 * End-to-end crash/recovery drills against the real `amsc` binary:
 * the ISSUE acceptance scenario. A journaled sweep is SIGKILLed via
 * the I/O fault injector (AMSC_IO_FAULTS=kill_after_rename=1 fires
 * _Exit(137) right after the journal header is published), resumed
 * with `amsc resume`, and folded with `amsc merge`; the merged CSV
 * must be byte-identical to one uninterrupted single-process sweep --
 * at shard counts 1 and 4, and after a torn-tail truncation. The
 * same binary's error paths follow: a bad --journal path or format=
 * fails with exit 1 before any point runs, and a figure scenario
 * prints its report (or, when the grid cannot fill it, a note and
 * the per-point table).
 *
 * Runs the binary from the build directory (ctest's CWD); skips when
 * ./amsc is missing (e.g. a filtered build).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#ifndef _WIN32
#include <sys/wait.h>
#endif

namespace
{

namespace fs = std::filesystem;

const std::string kScenario =
    std::string(AMSC_SOURCE_DIR) + "/scenarios/quickstart.scn";

std::string
tmpDir(const std::string &name)
{
    const std::string d = ::testing::TempDir() + "amsc_crash_" + name;
    fs::remove_all(d);
    fs::create_directories(d);
    return d;
}

/** Run @p cmd through the shell; returns the exit code (137 = kill). */
int
runCmd(const std::string &cmd)
{
    const int status = std::system(cmd.c_str());
#ifdef _WIN32
    return status;
#else
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return -1;
#endif
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.is_open()) << "missing file: " << path;
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/**
 * Run @p cmd through the shell with stdout and stderr captured into
 * @p out and @p err; returns the exit code.
 */
int
runCapture(const std::string &cmd, std::string &out, std::string &err)
{
    const std::string dir = tmpDir("capture");
    const int rc = runCmd(cmd + " >" + dir + "/out.txt 2>" + dir +
                          "/err.txt");
    out = readFile(dir + "/out.txt");
    err = readFile(dir + "/err.txt");
    return rc;
}

/** amsc invocation with the shared scenario + overrides. */
std::string
amsc(const std::string &verb, const std::string &extra)
{
    return "./amsc " + verb + " " + kScenario + " --smoke " + extra +
        " >/dev/null 2>&1";
}

/** The uninterrupted single-process reference CSV. */
const std::string &
goldenCsv()
{
    static const std::string golden = [] {
        const std::string dir = tmpDir("golden");
        const std::string out = dir + "/golden.csv";
        EXPECT_EQ(runCmd(amsc("sweep", "format=csv out=" + out)), 0);
        return readFile(out);
    }();
    return golden;
}

void
killResumeMergeDrill(unsigned shard_count)
{
    const std::string dir =
        tmpDir("shards" + std::to_string(shard_count));
    for (unsigned i = 0; i < shard_count; ++i) {
        const std::string shard = " --shard=" + std::to_string(i) +
            "/" + std::to_string(shard_count);
        // Killed right after the journal header lands on disk: the
        // shard journal exists but holds no results.
        EXPECT_EQ(
            runCmd("AMSC_IO_FAULTS=kill_after_rename=1 " +
                   amsc("sweep", "--journal=" + dir + shard)),
            137)
            << "fault injector did not fire (shard " << i << ")";
        // Recovery re-runs exactly the missing points.
        EXPECT_EQ(
            runCmd(amsc("resume", "--journal=" + dir + shard)), 0)
            << "resume failed (shard " << i << ")";
        // Resuming a complete shard is a cheap no-op, not an error.
        EXPECT_EQ(
            runCmd(amsc("resume", "--journal=" + dir + shard)), 0)
            << "idempotent resume failed (shard " << i << ")";
    }
    const std::string merged = dir + "/merged.csv";
    EXPECT_EQ(runCmd(amsc("merge", "--journal=" + dir +
                              " format=csv out=" + merged)),
              0);
    EXPECT_EQ(readFile(merged), goldenCsv())
        << "merge at shard count " << shard_count
        << " is not byte-identical to the single-process sweep";
}

} // namespace

#ifndef _WIN32

class CrashRecovery : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!fs::exists("./amsc"))
            GTEST_SKIP() << "./amsc not built";
    }
};

TEST_F(CrashRecovery, KillResumeMergeSingleShard)
{
    killResumeMergeDrill(1);
}

TEST_F(CrashRecovery, KillResumeMergeFourShards)
{
    // 4 shards over quickstart's 3 smoke points: one shard's journal
    // stays header-only, the empty-shard edge of the merge contract.
    killResumeMergeDrill(4);
}

TEST_F(CrashRecovery, TornTailIsReRunOnResume)
{
    const std::string dir = tmpDir("torn");
    ASSERT_EQ(runCmd(amsc("sweep", "--journal=" + dir)), 0);
    // A kill mid-append leaves a partial frame; simulate it by
    // cutting the last record short.
    const std::string jnl = dir + "/shard-0-of-1.jnl";
    const auto size = fs::file_size(jnl);
    ASSERT_GT(size, 7u);
    fs::resize_file(jnl, size - 7);
    ASSERT_EQ(runCmd(amsc("resume", "--journal=" + dir)), 0);
    const std::string merged = dir + "/merged.csv";
    ASSERT_EQ(runCmd(amsc("merge", "--journal=" + dir +
                              " format=csv out=" + merged)),
              0);
    EXPECT_EQ(readFile(merged), goldenCsv())
        << "torn-tail recovery is not byte-identical";
}

TEST_F(CrashRecovery, MergeRejectsIncompleteJournal)
{
    const std::string dir = tmpDir("incomplete");
    ASSERT_EQ(runCmd("AMSC_IO_FAULTS=kill_after_rename=1 " +
                     amsc("sweep", "--journal=" + dir)),
              137);
    // Nothing finished: merge must refuse, not emit partial data.
    EXPECT_NE(runCmd(amsc("merge", "--journal=" + dir +
                              " format=csv out=" + dir + "/m.csv")),
              0);
    EXPECT_FALSE(fs::exists(dir + "/m.csv"));
}

TEST_F(CrashRecovery, MergeRejectsStaleJournal)
{
    const std::string dir = tmpDir("stale");
    ASSERT_EQ(runCmd(amsc("sweep", "--journal=" + dir)), 0);
    // A different run horizon is a different sweep; folding the old
    // journal into it would silently mislabel every result.
    EXPECT_NE(
        runCmd(amsc("merge", "max_cycles=123 --journal=" + dir +
                        " format=csv out=" + dir + "/m.csv")),
        0);
}

class AmscCli : public CrashRecovery
{
};

TEST_F(AmscCli, BadJournalPathIsAnIoErrorNotAnAbort)
{
    // docs/robustness.md: an I/O failure is `amsc: error: ...` and
    // exit 1, naming the path -- not an uncaught filesystem_error.
    const std::string dir = tmpDir("badjournal");
    std::string out, err;
    const std::string missing = dir + "/missing";
    EXPECT_EQ(runCapture("./amsc merge " + kScenario +
                             " --smoke --journal=" + missing,
                         out, err),
              1)
        << err;
    EXPECT_NE(err.find("amsc: error:"), std::string::npos) << err;
    EXPECT_NE(err.find(missing), std::string::npos) << err;

    std::ofstream(dir + "/file") << "not a directory\n";
    const std::string under_file = dir + "/file/journal";
    EXPECT_EQ(runCapture("./amsc sweep " + kScenario +
                             " --smoke --journal=" + under_file,
                         out, err),
              1)
        << err;
    EXPECT_NE(err.find("amsc: error:"), std::string::npos) << err;
    EXPECT_NE(err.find(under_file), std::string::npos) << err;
}

TEST_F(AmscCli, BadFormatFailsBeforeAnyPointRuns)
{
    const std::string dir = tmpDir("format");
    ASSERT_EQ(runCmd(amsc("sweep", "--journal=" + dir)), 0);
    for (const std::string verb : {"run", "sweep", "resume", "merge"}) {
        SCOPED_TRACE(verb);
        std::string out, err;
        EXPECT_EQ(runCapture("./amsc " + verb + " " + kScenario +
                                 " --smoke format=xml" +
                                 (verb == "resume" || verb == "merge"
                                      ? " --journal=" + dir
                                      : ""),
                             out, err),
                  1);
        EXPECT_NE(err.find("unknown format 'xml'"), std::string::npos)
            << err;
        EXPECT_EQ(err.find("points done"), std::string::npos) << err;
        EXPECT_EQ(out, "");
    }
}

TEST_F(AmscCli, FigureScenarioPrintsItsReport)
{
    const std::string fig11 =
        std::string(AMSC_SOURCE_DIR) + "/scenarios/fig11_performance.scn";
    std::string out, err;
    ASSERT_EQ(runCapture("./amsc run " + fig11 +
                             " sweep.workload=AN max_cycles=2000",
                         out, err),
              0)
        << err;
    EXPECT_EQ(out.find("## fig11_performance: ipc relative to "
                       "llc_policy=shared, harmonic mean"),
              0u)
        << out;
    EXPECT_NE(out.find("| AN | 1.00000 | "), std::string::npos) << out;

    // The timeline example's narrowed grid keeps no shared point: one
    // note, then the per-point table.
    ASSERT_EQ(runCapture("./amsc run " + fig11 +
                             " sweep.workload=AN sweep.llc_policy=adaptive"
                             " max_cycles=2000",
                         out, err),
              0)
        << err;
    EXPECT_NE(err.find("cannot be filled"), std::string::npos) << err;
    EXPECT_EQ(out.find("| point | IPC |"), 0u) << out;
}

#endif // !_WIN32
