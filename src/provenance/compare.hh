/**
 * @file
 * Cross-run comparison behind `gest compare <runA> <runB> [...]`.
 *
 * Deterministic results (fitness trajectory, champion genome, digest
 * ledger) are compared exactly — any difference is a *significant
 * delta*, and two runs of the same configuration and seed must report
 * zero of them. Performance metrics (evals/sec, phase timings, cache
 * and steady-state hit rates) are inherently noisy, so they are
 * reported separately with a permutation-test p-value on the
 * per-generation evaluation times; a perf delta is *flagged* — for CI
 * regression gates — only when the candidate is slower: statistically
 * significant (p < 0.05) and more than 10% more evaluation time. A
 * faster candidate is never flagged.
 *
 * `gest runs <workspace> --baseline <run>` runs the same comparison
 * over the baseline's config-hash cohort (registry::selectCohort).
 */

#ifndef GEST_PROVENANCE_COMPARE_HH
#define GEST_PROVENANCE_COMPARE_HH

#include <string>
#include <vector>

namespace gest {
namespace provenance {

/** One perf metric's baseline/candidate values and verdict. */
struct PerfDelta
{
    std::string metric;
    double baseline = 0.0;
    double candidate = 0.0;
    double relDelta = 0.0;  ///< (candidate - baseline) / baseline
    double pValue = 1.0;    ///< 1.0 when no resampling applies
    bool resampled = false;
    bool flagged = false;   ///< slower: p < 0.05 and relDelta > 0.10
};

/** Everything `gest compare` reports for one baseline/candidate pair. */
struct RunComparison
{
    std::string baselineDir;
    std::string candidateDir;

    /** Deterministic mismatches; 0 for two runs of the same seed. */
    int significantDeltas = 0;

    /** One message per deterministic mismatch. */
    std::vector<std::string> deterministic;

    /** First generation whose best fitness differs; -1 if none. */
    int firstFitnessDivergence = -1;
    double maxAbsFitnessDelta = 0.0;

    /** Champion genome diff, "- baseline" / "+ candidate" lines. */
    std::vector<std::string> genomeDiff;

    /** True when both runs carry a digests.csv ledger. */
    bool digestsCompared = false;
    int firstDigestDivergence = -1;

    std::vector<PerfDelta> perf;
    int flaggedPerf = 0;  ///< perf regressions: flagged slowdowns

    /** Informational lines (missing artifacts, config notes). */
    std::vector<std::string> notes;
};

/**
 * Compare @p candidate_dir against @p baseline_dir. fatal() when
 * either directory holds no readable run (no history.csv).
 */
RunComparison compareRuns(const std::string& baseline_dir,
                          const std::string& candidate_dir);

/** Render one comparison as the text `gest compare` prints. */
std::string formatComparison(const RunComparison& cmp);

/**
 * Render comparisons against @p baseline_dir as one JSON object
 * (`gest compare --json`); an empty list still names the baseline.
 */
std::string
formatComparisonsJson(const std::string& baseline_dir,
                      const std::vector<RunComparison>& comparisons);

} // namespace provenance
} // namespace gest

#endif // GEST_PROVENANCE_COMPARE_HH
