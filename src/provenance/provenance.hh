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

#include <string>

#include "provenance/manifest.hh"

namespace gest {
namespace provenance {

/**
 * Complete @p m — the hash of @p config_text (the run's raw main
 * configuration), the build/platform fingerprint, the seal time and a
 * checksum of every artifact under @p run_dir, each labelled by
 * inferArtifactKind() — and write it as manifest.json. The caller
 * fills the configuration fields and run outcome. Call once, after all
 * other artifacts are final.
 * @return the manifest's path.
 */
std::string sealManifest(const std::string& run_dir, Manifest m,
                         const std::string& config_text);

/**
 * @return the artifact kind inferred from a run-relative path
 * ("history", "population", "individual", "waveform", ...).
 */
std::string inferArtifactKind(const std::string& rel_path);

} // namespace provenance
} // namespace gest

#endif // GEST_PROVENANCE_PROVENANCE_HH
