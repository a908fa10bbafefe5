/**
 * @file
 * The experiment registry: the first subsystem that reads *across*
 * runs. A workspace is any directory whose subdirectories are run
 * directories; the registry scans it, indexes every run — sealed runs
 * via their manifest.json, unsealed (in-flight or provenance-off) runs
 * via history.csv/status.json, unreadable ones as "corrupt" — and
 * writes a `# gest-registry v1` CSV into the workspace, keyed by
 * config hash, seed, git sha and final fitness (`gest runs --json`
 * prints the same index as JSON).
 *
 * On top of the index sits cohort selection for `gest runs --baseline
 * <run>`: the runs sharing the baseline's config hash, which the CLI
 * then hands to `gest compare`'s provenance::compareRuns one by one.
 * See docs/fleet.md.
 */

#ifndef GEST_REGISTRY_REGISTRY_HH
#define GEST_REGISTRY_REGISTRY_HH

#include <cstdint>
#include <string>
#include <vector>

namespace gest {
namespace registry {

/** Registry schema version written by this build. */
constexpr int registryVersion = 1;

/** One indexed run directory. */
struct RunEntry
{
    std::string name;  ///< directory name inside the workspace
    std::string path;  ///< workspace-joined path

    /**
     * How the run was indexed: "sealed" (manifest.json), "unsealed"
     * (history.csv/status.json fallback) or "corrupt" (a manifest
     * exists but cannot be read; see note).
     */
    std::string status;

    /** "running", "completed" or "unknown" (no status.json). */
    std::string state = "unknown";

    std::string configHash;  ///< canonical config hash; "" unknown
    bool hasSeed = false;
    std::uint64_t seed = 0;
    std::string gitSha;
    std::string measurementClass;
    std::string fitnessClass;
    std::string created;  ///< manifest seal time; "" when unsealed

    int generations = 0;  ///< budget; 0 unknown
    int generationsCompleted = 0;
    std::uint64_t evaluations = 0;
    double bestFitness = 0.0;
    std::uint64_t bestId = 0;

    std::uint64_t alerts = 0;  ///< data rows in alerts.csv
    std::string listen;  ///< live telemetry endpoint, from status.json
    std::string note;    ///< diagnostics (comma-free); e.g. why corrupt
};

/**
 * Scan @p workspace for run directories (any subdirectory holding a
 * manifest.json, history.csv, status.json or run_configuration.xml)
 * and index each. Subdirectories that are not runs are skipped;
 * nothing fatal()s on a sick run — it is indexed as "corrupt" with the
 * reason in note. fatal() only when @p workspace itself is not a
 * directory.
 */
std::vector<RunEntry> scanWorkspace(const std::string& workspace);

/** Render the `# gest-registry v1` CSV index. */
std::string formatRegistryCsv(const std::vector<RunEntry>& entries);

/** Render the index as JSON (the `gest runs --json` view). */
std::string formatRegistryJson(const std::string& workspace,
                               const std::vector<RunEntry>& entries);

/**
 * Write registry.csv into @p workspace (atomically: a concurrent
 * reader sees the previous index or this one).
 * @return its path.
 */
std::string writeRegistry(const std::string& workspace,
                          const std::vector<RunEntry>& entries);

/**
 * The CSV cell value of @p entry's column @p key (e.g. "config_hash",
 * "seed", "state"); "" for an unknown key.
 */
std::string entryField(const RunEntry& entry, const std::string& key);

/**
 * `--filter key=value`: true when the entry's column equals @p value
 * or starts with it (so hash prefixes work like git's).
 */
bool matchesFilter(const RunEntry& entry, const std::string& key,
                   const std::string& value);

/** A baseline run and the indexed runs that share its configuration. */
struct Cohort
{
    RunEntry baseline;
    std::vector<RunEntry> members;  ///< in index order
};

/**
 * Resolve @p baseline_name — a run name, or a path whose last
 * component names the run — in @p entries and gather its cohort: every
 * other non-corrupt run with the baseline's config hash. Since that
 * hash covers every attribute, seed and output directory included,
 * cohort members share the baseline's seed. fatal() when the baseline
 * is not indexed, has no config hash, or has no readable history.
 */
Cohort selectCohort(const std::string& workspace,
                    const std::string& baseline_name,
                    const std::vector<RunEntry>& entries);

/** Render the human-readable `gest runs` table. */
std::string formatRunsTable(const std::vector<RunEntry>& entries);

} // namespace registry
} // namespace gest

#endif // GEST_REGISTRY_REGISTRY_HH
