/**
 * @file
 * The generation snapshot: everything the run knows about one evaluated
 * generation, derived once by the run pipeline (config::RunPipeline)
 * and then read by every sink — run directory artifacts, the flight
 * recorder and the live telemetry service. The deriver order and the
 * sink list are tabled in docs/observability.md, "Generation snapshot".
 */

#ifndef GEST_ANALYSIS_SNAPSHOT_HH
#define GEST_ANALYSIS_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/analytics.hh"
#include "analysis/health.hh"
#include "analysis/lineage.hh"
#include "attribution/coverage.hh"
#include "core/engine.hh"

namespace gest {
namespace analysis {

/**
 * Everything one status.json heartbeat says, in composable form. The
 * run pipeline composes one per sealed generation (and a final one at
 * run end); status.json and GET /status both render it with
 * formatStatusJson, so they speak one schema byte for byte.
 */
struct StatusSnapshot
{
    bool running = true;
    int generation = 0;
    int totalGenerations = 0;
    double bestFitness = 0.0;
    double averageFitness = 0.0;
    double diversity = 0.0;
    double geneEntropyBits = 0.0;
    double pairwiseDiversity = 0.0;
    std::uint64_t evaluations = 0;
    double cacheHitRate = 0.0;
    double evalsPerSec = 0.0;
    double elapsedSeconds = 0.0;
    double etaSeconds = 0.0;

    /** Steady-state fast-path counters (eval.*; 0 with stats off). */
    std::uint64_t steadyHits = 0;
    std::uint64_t cyclesSimulated = 0;
    std::uint64_t cyclesTiled = 0;

    /**
     * Population digests sealed by the provenance ledger so far,
     * including this generation's; -1 (key omitted) when the run
     * records no provenance.
     */
    std::int64_t digestsSealed = -1;

    /**
     * GA health-watchdog summary; a clean run says `"raised": 0`.
     * alertsRaised = -1 omits the block (status composed without a
     * watchdog).
     */
    std::int64_t alertsRaised = -1;
    int lastAlertGeneration = -1;
    std::string lastAlertRule;

    /** Build identity of the serving binary (always present). */
    std::string gitSha;
    std::string build;

    /** host:port of the live telemetry server; empty when serverless. */
    std::string listen;
};

/** Render a snapshot as the status.json / GET /status payload. */
std::string formatStatusJson(const StatusSnapshot& snapshot);

/**
 * Copy the steady-state fast-path counters (eval.steady_hits,
 * eval.cycles_simulated, eval.cycles_tiled) out of the stats registry
 * into @p snapshot, so external monitors see fast-path behavior from
 * the heartbeat alone. Zeros when stats recording is off.
 */
void fillSteadyCounters(StatusSnapshot& snapshot);

/**
 * One evaluated generation, derived in a fixed order and immutable
 * once built: the sinks receive it as a const reference.
 */
struct GenerationSnapshot
{
    // 1. The engine's view of the generation.
    const core::Population& population;
    const core::GenerationRecord& record;

    /** 2. This generation's births, fitness filled in. */
    std::vector<LineageEvent> births;

    /** 3. Cumulative search-space coverage after this generation. */
    attribution::CoverageLedger::Snapshot coverage;

    /** 4. The analytics.csv row, operator efficacy included. */
    AnalyticsRow analytics;

    /**
     * 5. The population digest; empty when the run records no
     * provenance (the sealed count is in status.digestsSealed).
     */
    std::string digest;

    /**
     * 6. Alerts the health watchdog raised on this generation (the
     * run's health summary is in status).
     */
    std::vector<Alert> alerts;

    /** 7. The heartbeat composed from everything above. */
    StatusSnapshot status;
};

} // namespace analysis
} // namespace gest

#endif // GEST_ANALYSIS_SNAPSHOT_HH
