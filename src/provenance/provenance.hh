/**
 * @file
 * The final manifest seal of a recorded run.
 *
 * During the run the run pipeline appends one population digest per
 * evaluated generation to `digests.csv` (DigestLedger). After every
 * other artifact is final (flight recorder sealed, final heartbeat
 * written, stats sealed) the run driver calls sealManifest(), which
 * walks the run directory, checksums every artifact and writes
 * `manifest.json`.
 */

#ifndef GEST_PROVENANCE_PROVENANCE_HH
#define GEST_PROVENANCE_PROVENANCE_HH

#include <optional>
#include <string>

#include "core/ga_params.hh"
#include "provenance/manifest.hh"

namespace gest {
namespace provenance {

/** Everything seal() records that only the run driver knows. */
struct SealInfo
{
    std::string configText;     ///< the run's raw main configuration
    std::string configBaseDir;  ///< its relative-path anchor
    std::string measurementClass;
    std::string fitnessClass;
    core::GaParams ga;
    std::optional<bool> steadyStateOverride;
    int waveformTopK = 0;
    bool recordStats = true;
    bool recordAttribution = false;

    // Run outcome.
    int generationsCompleted = 0;
    std::uint64_t evaluations = 0;
    double bestFitness = 0.0;
    std::uint64_t bestId = 0;
    std::uint64_t digestsSealed = 0;
    double digestMsTotal = 0.0;
};

/**
 * Checksum every artifact under @p run_dir and write manifest.json,
 * labelling each with inferArtifactKind(). Call once, after all other
 * artifacts are final.
 * @return the manifest's path.
 */
std::string sealManifest(const std::string& run_dir, const SealInfo& info);

/**
 * @return the artifact kind inferred from a run-relative path
 * ("history", "population", "individual", "waveform", ...).
 */
std::string inferArtifactKind(const std::string& rel_path);

} // namespace provenance
} // namespace gest

#endif // GEST_PROVENANCE_PROVENANCE_HH
