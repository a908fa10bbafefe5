/**
 * @file
 * The GA health watchdog: a per-generation deriver that evaluates a small
 * set of declarative rules against the run as it unfolds and raises
 * alerts when the search looks sick — the campaign-level counterpart
 * of `gest explain`'s post-mortem pathology detection.
 *
 * The watchdog is strictly observational: it reads the per-generation
 * record, the generation's coverage tick and the stats registry's
 * worker counters, never touches the GA RNG or the population, and
 * runs on the coordinator thread after the generation is sealed.
 *
 * Each rule *latches*: it raises at most one alert per run, when its
 * condition first holds, so a stuck run produces one actionable line
 * per failure mode instead of one per generation. The run pipeline
 * carries each generation's alerts to an append-only
 * `# gest-alerts v1` alerts.csv in the run directory, an `alerts` block
 * in the status.json heartbeat and — when the run listens — the
 * /alerts endpoint plus `alert` SSE events (see docs/fleet.md, "Alert
 * rules").
 */

#ifndef GEST_ANALYSIS_HEALTH_HH
#define GEST_ANALYSIS_HEALTH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "attribution/coverage.hh"
#include "core/engine.hh"

namespace gest {
namespace analysis {

/** Alerts-ledger schema version written by this build. */
constexpr int alertsVersion = 1;

/**
 * Thresholds for the declarative rules. A zero/negative threshold
 * disables its rule; the defaults arm every rule.
 */
struct HealthRules
{
    /**
     * "fitness_plateau": best fitness has not improved for this many
     * consecutive generations.
     */
    int plateauGenerations = 20;

    /**
     * "throughput_collapse": this generation's measured evals/sec fell
     * below the run's median by more than this factor (after
     * throughputMinGenerations of warmup). Requires timing columns,
     * i.e. stats recording on.
     */
    double throughputCollapseFactor = 4.0;
    int throughputMinGenerations = 8;

    /**
     * "coverage_stall": the coverage ledger reported zero new cells
     * for this many consecutive generations. Only generations whose
     * coverage tick matches their number count.
     */
    int coverageStallGenerations = 25;

    /**
     * "worker_starvation": the least-busy evaluation worker did under
     * this share of the busiest worker's per-generation busy time for
     * workerStarvationGenerations in a row. Only armed with >= 2
     * workers reporting (threads > 1 and stats on).
     */
    double workerStarvationShare = 0.10;
    int workerStarvationGenerations = 5;

    // "non_finite_fitness" (best or average fitness is NaN/Inf) has no
    // threshold: it is always armed and always critical.
};

/** One raised alert. The message never contains commas or newlines. */
struct Alert
{
    int generation = 0;
    std::string rule;      ///< e.g. "fitness_plateau"
    std::string severity;  ///< "warning" or "critical"
    double value = 0.0;      ///< observed value the rule tripped on
    double threshold = 0.0;  ///< the configured threshold
    std::string message;
};

/** The heartbeat's `alerts` block, in composable form. */
struct HealthSummary
{
    std::uint64_t alerts = 0;
    int lastGeneration = -1;
    std::string lastRule;
};

class HealthWatchdog
{
  public:
    explicit HealthWatchdog(HealthRules rules = HealthRules());

    /**
     * Evaluate every rule against the sealed generation @p record and
     * its @p coverage tick (a tick whose generation differs — e.g. a
     * default-constructed one — leaves coverage_stall untouched).
     * @return the alerts raised by this generation.
     */
    std::vector<Alert> onGenerationEvaluated(
        const core::GenerationRecord& record,
        const attribution::CoverageLedger::Snapshot& coverage = {});

    const std::vector<Alert>& alerts() const { return _alerts; }

    HealthSummary summary() const;

    const HealthRules& rules() const { return _rules; }

  private:
    void raise(int generation, const char* rule, const char* severity,
               double value, double threshold, std::string message);

    HealthRules _rules;
    std::vector<Alert> _alerts;

    // Per-rule latches: one alert per run per failure mode.
    bool _plateauFired = false;
    bool _throughputFired = false;
    bool _coverageFired = false;
    bool _starvationFired = false;
    bool _nonFiniteFired = false;

    // fitness_plateau state.
    bool _haveBest = false;
    double _bestSeen = 0.0;
    int _generationsSinceImprovement = 0;

    // throughput_collapse state.
    std::vector<double> _evalRates;  ///< evals/sec per timed generation

    // coverage_stall state.
    int _coverageStallStreak = 0;

    // worker_starvation state.
    std::vector<std::uint64_t> _workerBusyTotals;
    int _starvationStreak = 0;
};

/**
 * Parse @p run_dir/alerts.csv. @return false when the file is absent;
 * fatal() when it exists but is malformed or a later schema version.
 */
bool loadAlerts(const std::string& run_dir, std::vector<Alert>& out);

/** The alerts.csv version and column header lines. */
std::string alertsCsvHeader();

/** @p alert as one alerts.csv line. */
std::string formatAlertCsvRow(const Alert& alert);

/** One alert as a JSON object (the /alerts rows and SSE payloads). */
std::string formatAlertJson(const Alert& alert);

} // namespace analysis
} // namespace gest

#endif // GEST_ANALYSIS_HEALTH_HH
