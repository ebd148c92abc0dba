/**
 * @file
 * Differential fuzzer for the two cycle-core drivers.
 *
 * sim_mode=event must be *bit-identical* to the per-cycle tick loop
 * on every configuration, not just the shipped scenarios. The fuzzer
 * turns that contract into a search: makeFuzzCase() derives a random
 * but valid scenario -- workload classes x LLC policies x NoC
 * topologies x memory backends/schedulers x multi-program x
 * instruction budgets x periodic checkpointing x observability --
 * deterministically from (seed, index), and
 * runFuzzCase() executes it under both drivers and compares
 *
 *  - the full RunResult (identicalResults: every counter, rate and
 *    activity snapshot),
 *  - the emitted CSV row bytes (%.17g round-trip precision),
 *  - the cycle-observer sample stream (sample cycles and the
 *    instruction counter at each sample),
 *  - the periodic-checkpoint file bytes, when the case checkpoints.
 *
 * Every case *is* its scenario text: a mismatch reproduces with
 * `amsc run <dumped.scn>` (the text carries the sim_mode sweep axis),
 * which is what `amsc fuzz` prints on failure. A fixed-seed smoke
 * sweep runs in CI and in tests/test_event_core.cc.
 */

#ifndef AMSC_SCENARIO_DIFF_FUZZ_HH
#define AMSC_SCENARIO_DIFF_FUZZ_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace amsc::scenario
{

/** One randomized differential test case. */
struct FuzzCase
{
    std::uint64_t seed = 0;  ///< fuzz campaign seed
    std::uint32_t index = 0; ///< case number within the campaign
    /**
     * Complete scenario text (config + app blocks + the
     * `sweep { sim_mode = tick, event }` axis). Reproducible
     * standalone via `amsc run`.
     */
    std::string scn;
};

/**
 * Derive case @p index of campaign @p seed. Pure function of its
 * arguments; the same (seed, index) always yields the same scenario
 * text, so a failure report is reproducible from the two numbers
 * alone.
 */
FuzzCase makeFuzzCase(std::uint64_t seed, std::uint32_t index);

/** Verdict of one executed case. */
struct FuzzOutcome
{
    bool ok = true;
    /** First mismatch (or error) description; empty when ok. */
    std::string detail;
    /** Simulated cycles of the tick-mode run (reporting). */
    Cycle tickCycles = 0;
};

/**
 * Run @p c under both drivers and compare. Never throws: a config or
 * I/O error is returned as a failed outcome (a generated case must
 * be valid, so an error is a fuzzer bug worth reporting, not a
 * crash).
 */
FuzzOutcome runFuzzCase(const FuzzCase &c);

/** Campaign summary. */
struct FuzzReport
{
    std::uint32_t points = 0;
    std::uint32_t failures = 0;
    /** Failing cases, ascending index order. */
    std::vector<FuzzCase> failing;
};

/**
 * Run cases 0..points-1 of campaign @p seed on @p threads workers
 * (0 = SweepRunner::defaultThreads()). @p onCase, when set, fires
 * for every case in ascending index order after all cases finished.
 */
FuzzReport
runDiffFuzz(std::uint64_t seed, std::uint32_t points,
            unsigned threads = 0,
            const std::function<void(const FuzzCase &,
                                     const FuzzOutcome &)> &onCase = {});

} // namespace amsc::scenario

#endif // AMSC_SCENARIO_DIFF_FUZZ_HH
