/**
 * @file
 * Attribution artifact I/O: `attribution/individual_<id>.json`
 * (docs/attribution.md, "Artifact format").
 *
 * One JSON object per attributed individual: its id, generation and
 * baseline fitness, the filler instruction and strategy, the delta
 * sums and evaluation count, one entry per gene, the per-class and
 * per-operand-bin aggregates and the top-K gene list. Doubles render
 * at %.17g so a reader can round-trip them exactly;
 * tools/check_attribution.py validates the schema end to end.
 */

#ifndef GEST_ATTRIBUTION_ATTRIBUTION_IO_HH
#define GEST_ATTRIBUTION_ATTRIBUTION_IO_HH

#include <string>

#include "attribution/attribution.hh"

namespace gest {
namespace attribution {

/** Attribution JSON format version written by this build. */
constexpr int attributionJsonVersion = 1;

/** Paths written by writeAttributionArtifacts(). */
struct AttributionArtifacts
{
    std::string jsonPath;
};

/** Render @p result as the attribution JSON object. */
std::string formatAttributionJson(const AttributionResult& result);

/**
 * Write `<dir>/<basename>.json` (the directory is created if absent)
 * and return its path.
 */
AttributionArtifacts writeAttributionArtifacts(
    const std::string& dir, const std::string& basename,
    const AttributionResult& result);

} // namespace attribution
} // namespace gest

#endif // GEST_ATTRIBUTION_ATTRIBUTION_IO_HH
