/**
 * @file
 * Documentation drift checks.
 *
 * docs/configuration.md is generated from the SimConfig key registry
 * (`amsc describe --markdown`); this suite fails when the checked-in
 * file no longer matches the generator, when a SimConfig field is
 * added without a registry entry (the sizeof canary), or when the
 * docs the headers reference go missing. The point: adding a
 * configuration key without documenting it breaks CI mechanically.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "scenario/emit.hh"
#include "scenario/schema.hh"
#include "sim/gpu_system.hh"
#include "sim/sim_config.hh"

using namespace amsc;

namespace
{

const std::string kSourceDir = AMSC_SOURCE_DIR;

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.is_open()) << "missing file: " << path;
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

} // namespace

TEST(Docs, ConfigurationReferenceMatchesTheRegistry)
{
    const std::string generated = scenario::renderConfigMarkdown();
    const std::string checked_in =
        readFile(kSourceDir + "/docs/configuration.md");
    EXPECT_EQ(checked_in, generated)
        << "docs/configuration.md drifted from the key registry; "
           "regenerate with:\n  build/amsc describe --markdown > "
           "docs/configuration.md";
}

TEST(Docs, EveryRegistryKeyIsDocumented)
{
    const std::string doc =
        readFile(kSourceDir + "/docs/configuration.md");
    std::set<std::string> names;
    for (const ConfigKeyInfo &k : ConfigRegistry::keys()) {
        EXPECT_TRUE(names.insert(k.name).second)
            << "duplicate key '" << k.name << "'";
        EXPECT_NE(doc.find("| `" + std::string(k.name) + "` |"),
                  std::string::npos)
            << "key '" << k.name
            << "' missing from docs/configuration.md";
        EXPECT_STRNE(k.doc, "") << k.name;
        const std::string type = k.type;
        EXPECT_TRUE(type == "uint" || type == "double" ||
                    type == "bool" || type == "enum" ||
                    type == "list" || type == "string")
            << k.name << " has unknown type " << type;
    }
}

TEST(Docs, RegistryCoversEverySimConfigField)
{
    // Completeness canary: the registry must cover 100% of SimConfig.
    // There is no C++ reflection to enumerate fields, so this pins
    // the struct's size on the reference platform -- adding a field
    // changes it, and the test text tells the author what to update.
#if defined(__x86_64__) && defined(__linux__) && defined(__GLIBCXX__)
    EXPECT_EQ(sizeof(SimConfig), 608u)
        << "SimConfig changed. If you added or resized a field: add "
           "a ConfigRegistry entry for it in src/sim/sim_config.cc, "
           "regenerate docs/configuration.md (build/amsc describe "
           "--markdown > docs/configuration.md), then update this "
           "canary.";
#else
    GTEST_SKIP() << "sizeof canary pinned on x86-64 linux/libstdc++";
#endif
}

TEST(Docs, EmitColumnsCoverRunResult)
{
    // Same canary idea for the result side: every RunResult field
    // must either surface as an emit column or be on the documented
    // exclusion list in docs/observability.md (the raw activity
    // snapshots, which are exported as derived energy columns
    // instead). Growing RunResult changes the size and lands here.
#if defined(__x86_64__) && defined(__linux__) && defined(__GLIBCXX__)
    EXPECT_EQ(sizeof(RunResult), 440u)
        << "RunResult changed. If you added a field: emit it as a "
           "column in src/scenario/emit.cc metricCells() (before the "
           "power block so sys_energy_uj stays last), regenerate the "
           "emit goldens (AMSC_UPDATE_GOLDEN=1), or add it to the "
           "exclusion list in docs/observability.md; then update "
           "this canary.";
#else
    GTEST_SKIP() << "sizeof canary pinned on x86-64 linux/libstdc++";
#endif

    const std::vector<std::string> &cols = scenario::metricColumns();
    const auto has = [&cols](const char *name) {
        return std::find(cols.begin(), cols.end(), name) != cols.end();
    };
    // One column per directly-exported RunResult field (spot-checking
    // the full map keeps the exclusion list honest).
    for (const char *col :
         {"cycles", "instructions", "ipc", "finished",
          "llc_read_miss_rate", "llc_response_rate", "llc_accesses",
          "llc_bypasses", "dram_accesses", "dram_row_hit_rate",
          "dram_refreshes", "dram_queue_rejects", "dram_write_drains",
          "avg_request_latency", "avg_reply_latency",
          "final_llc_mode", "llc_to_private", "llc_to_shared",
          "reconfig_stall_cycles", "profile_windows",
          "llc_decisions_private", "llc_decisions_shared",
          "rule1_fires", "rule2_fires", "atomic_vetoes",
          "llc_cycles_private", "llc_cycles_shared", "sharing_1c",
          "sharing_2c", "sharing_3_4c", "sharing_5_8c", "app_ipc",
          "app_instructions", "sys_energy_uj"}) {
        EXPECT_TRUE(has(col)) << "emit column '" << col
                              << "' missing from metricCells()";
    }
    // The exclusions must stay documented.
    const std::string obs =
        readFile(kSourceDir + "/docs/observability.md");
    EXPECT_NE(obs.find("nocActivity"), std::string::npos)
        << "docs/observability.md must document why nocActivity is "
           "not an emit column";
    EXPECT_NE(obs.find("gpuActivity"), std::string::npos)
        << "docs/observability.md must document why gpuActivity is "
           "not an emit column";
}

TEST(Docs, RegistryGettersAndSettersRoundTrip)
{
    const SimConfig defaults;
    for (const ConfigKeyInfo &k : ConfigRegistry::keys()) {
        SimConfig cfg;
        // Feeding a key its own rendered default must be accepted
        // and leave every key's value unchanged.
        k.set(cfg, k.get(defaults));
        for (const ConfigKeyInfo &other : ConfigRegistry::keys()) {
            EXPECT_EQ(other.get(cfg), other.get(defaults))
                << "setting '" << k.name << "' to its default "
                << "changed '" << other.name << "'";
        }
    }
}

TEST(Docs, ReferencedDocsExist)
{
    // Headers and the README point into docs/; the targets must
    // exist and be non-trivial.
    for (const char *doc :
         {"docs/DESIGN.md", "docs/configuration.md",
          "docs/architecture.md", "docs/trace_format.md",
          "docs/performance.md", "docs/observability.md",
          "docs/robustness.md", "docs/workloads.md"}) {
        const std::string text = readFile(kSourceDir + "/" + doc);
        EXPECT_GT(text.size(), 500u) << doc;
    }
    const std::string design = readFile(kSourceDir + "/docs/DESIGN.md");
    EXPECT_NE(design.find("substitution"), std::string::npos);
    const std::string readme = readFile(kSourceDir + "/README.md");
    EXPECT_NE(readme.find("docs/DESIGN.md"), std::string::npos)
        << "README must link the workload-substitution rationale";
    EXPECT_NE(readme.find("docs/configuration.md"), std::string::npos);
    EXPECT_NE(readme.find("docs/architecture.md"), std::string::npos);
}

TEST(Docs, ArchitectureMapsEveryModule)
{
    const std::string arch =
        readFile(kSourceDir + "/docs/architecture.md");
    for (const char *mod :
         {"src/common", "src/gpu", "src/cache", "src/llc", "src/noc",
          "src/mem", "src/power", "src/sim", "src/workloads",
          "src/trace", "src/scenario", "src/obs"}) {
        EXPECT_NE(arch.find(mod), std::string::npos)
            << "docs/architecture.md does not mention " << mod;
    }
}
