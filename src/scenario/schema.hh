/**
 * @file
 * Scenario-file schema: the key sets of the declarative `.scn`
 * dialect, nearest-key suggestions for unknown keys, and the
 * generator behind docs/configuration.md.
 *
 * A scenario file has scenario-level keys (name, workload, ...),
 * `config { }` blocks of SimConfig registry keys, `app { }` blocks
 * describing per-application workloads, named `variant.<v> { }`
 * override sets, `sweep { }` axes, optional `grid { }` sub-grids and
 * `report { }` figure tables (see docs/configuration.md for the full
 * grammar). The schema is
 * data, so `amsc describe` and the unknown-key error paths stay
 * mechanically in sync with what the parser accepts.
 */

#ifndef AMSC_SCENARIO_SCHEMA_HH
#define AMSC_SCENARIO_SCHEMA_HH

#include <string>
#include <vector>

namespace amsc::scenario
{

/** One documented scenario-dialect key. */
struct SchemaKey
{
    const char *name;
    const char *doc;
};

/** Scenario-level scalar keys. */
const std::vector<SchemaKey> &scenarioKeys();

/** Keys accepted inside `app { }` blocks. */
const std::vector<SchemaKey> &appKeys();

/** Keys accepted inside `report { }` blocks (scenario/report.hh). */
const std::vector<SchemaKey> &reportKeys();

/** Keys accepted as sweep axes besides SimConfig registry keys. */
const std::vector<SchemaKey> &axisKeys();

/**
 * Nearest valid spelling of a flat (dotted) scenario key, scope-aware:
 * "config.lin_bytes" suggests "config.line_bytes", "app.0.worklod"
 * suggests "app.0.workload", and so on.
 */
std::string suggestScenarioKey(const std::string &flat_key);

/**
 * Render docs/configuration.md: the complete SimConfig key reference
 * plus the scenario-file grammar, generated so the docs cannot drift
 * from the code (tests/test_docs.cc enforces equality).
 */
std::string renderConfigMarkdown();

/** Terminal rendering of the SimConfig key table (amsc describe). */
std::string renderKeyTable();

/** Detail view of one SimConfig key (amsc describe <key>). */
std::string renderKeyDetail(const std::string &key);

} // namespace amsc::scenario

#endif // AMSC_SCENARIO_SCHEMA_HH
