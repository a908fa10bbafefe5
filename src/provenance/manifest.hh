/**
 * @file
 * The run manifest: `manifest.json`, sealed into every recorded run
 * directory so a run is auditable and replayable from its artifacts
 * alone.
 *
 * The manifest records everything needed to re-derive the run —
 * canonical configuration hash (independent of attribute order and
 * whitespace), RNG seed and generator identity, GA parameters — plus
 * everything needed to *explain* a failed replay: build and toolchain
 * fingerprint, platform, measurement/fitness classes, thread and
 * steady-state settings, and the SHA-256 checksum of every artifact the
 * run emitted. `gest verify` consumes it; `gest compare` uses it to
 * annotate cross-run deltas.
 *
 * The manifest is written last, after every other artifact is final,
 * and is excluded from its own checksum table.
 */

#ifndef GEST_PROVENANCE_MANIFEST_HH
#define GEST_PROVENANCE_MANIFEST_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace gest {
namespace provenance {

/** Manifest schema version written by this build. */
constexpr int manifestVersion = 1;

/** The RNG identity recorded and checked on replay. */
extern const char* const rngGeneratorId;

/** One checksummed artifact inside the run directory. */
struct ArtifactEntry
{
    std::string path;    ///< relative to the run directory
    std::string sha256;  ///< 64 hex digits
    std::uint64_t bytes = 0;
    std::string kind;    ///< "history", "population", "lineage", ...
};

/** Everything manifest.json carries, in composable form. */
struct Manifest
{
    int version = manifestVersion;
    std::string created;  ///< ISO 8601 UTC seal time

    // Configuration identity.
    std::string configHash;     ///< canonicalConfigHash(run config)
    std::string configBaseDir;  ///< original relative-path anchor
    std::string measurementClass;
    std::string fitnessClass;

    // RNG identity: equal seeds give bit-identical runs.
    bool hasSeed = false;
    std::uint64_t seed = 0;
    std::string rngGenerator;

    // GA parameters that shape the search (informational; the replay
    // re-parses the recorded configuration for the full set).
    int populationSize = 0;
    int individualSize = 0;
    int generations = 0;
    int threads = 1;
    int fitnessCacheSize = 0;
    bool elitism = true;

    // Build/toolchain fingerprint of the sealing binary.
    std::string compiler;
    std::string buildType;
    std::string gitSha;

    // Platform fingerprint (uname).
    std::string os;
    std::string machine;

    // Measurement-affecting settings.
    std::optional<bool> steadyStateOverride;
    int waveformTopK = 0;
    bool recordStats = true;
    bool recordAttribution = false;

    // Run summary.
    int generationsCompleted = 0;
    std::uint64_t evaluations = 0;
    double bestFitness = 0.0;
    std::uint64_t bestId = 0;
    std::uint64_t digestsSealed = 0;
    double digestMsTotal = 0.0;  ///< time spent hashing digests

    std::vector<ArtifactEntry> artifacts;
};

/**
 * SHA-256 of a canonical rendering of @p xml_text: attributes sorted by
 * name, whitespace normalized, comments dropped, child elements kept in
 * document order (order is semantic for <operands>/<instructions>).
 * Two configurations that differ only in formatting or attribute order
 * hash identically; any semantic change changes the hash. fatal() on
 * malformed XML.
 */
std::string canonicalConfigHash(const std::string& xml_text);

/** The current binary's "compiler, build type, git sha" fingerprint. */
std::string currentBuildFingerprint();

/** The git revision baked into the current binary ("unknown" without). */
std::string currentGitSha();

/** Fill the build/platform fields of @p m from the current binary. */
void fillBuildInfo(Manifest& m);

/** Render @p m as the manifest.json payload. */
std::string formatManifest(const Manifest& m);

/**
 * Parse `<run_dir>/manifest.json`. @return false — with @p error set
 * to an actionable message — when the file is absent, unparseable or
 * from an unsupported schema version.
 */
bool loadManifest(const std::string& run_dir, Manifest& out,
                  std::string* error);

/** @p m's fingerprint as recorded ("compiler, build type, git sha"). */
std::string buildFingerprintOf(const Manifest& m);

} // namespace provenance
} // namespace gest

#endif // GEST_PROVENANCE_MANIFEST_HH
