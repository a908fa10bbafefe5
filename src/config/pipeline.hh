/**
 * @file
 * The run pipeline: everything a GA run reports, fed by the engine's
 * single per-generation callback.
 *
 * Each evaluated generation becomes one analysis::GenerationSnapshot,
 * derived by derive() in a fixed order, which a fixed list of sinks
 * then reads: the run directory's artifacts, the flight recorder and
 * the live telemetry service. Derivers always run; sinks are deployed
 * only by the run's deployment settings — output directory, listen
 * address, trace path — plus the provenance and waveform settings.
 * docs/observability.md, "Generation snapshot", tables the snapshot's
 * fields, the deriver order and the sink list.
 *
 * The pipeline only reads the views the engine hands it (never the GA
 * RNG), so a run's search is bit-identical with any set of sinks.
 */

#ifndef GEST_CONFIG_PIPELINE_HH
#define GEST_CONFIG_PIPELINE_HH

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/snapshot.hh"
#include "config/config.hh"
#include "output/flight_recorder.hh"
#include "provenance/digest.hh"
#include "provenance/provenance.hh"

namespace gest {

namespace net {
class TelemetryServer;
} // namespace net

namespace output {
class RunWriter;
class TraceWriter;
} // namespace output

namespace config {

class RunPipeline
{
  public:
    /**
     * Deploy the sinks @p cfg asks for: run-directory artifacts when
     * cfg.outputDirectory is set (digests.csv with cfg.recordProvenance,
     * waveforms with cfg.waveformTopK and a cloneable @p measurement)
     * and the telemetry server, bound and serving on return, when
     * cfg.listenAddress is set. @p trace (may be null) receives the run
     * writer's I/O spans. @p cfg must outlive the pipeline.
     */
    RunPipeline(const RunConfig& cfg,
                const measure::Measurement& measurement,
                output::TraceWriter* trace = nullptr);
    ~RunPipeline();

    RunPipeline(const RunPipeline&) = delete;
    RunPipeline& operator=(const RunPipeline&) = delete;

    /** The engine callback: derive the snapshot, run every sink. */
    core::Engine::GenerationCallback callback();

    /**
     * Seal the flight recorder's captures. @return the waveform
     * artifacts written (empty without a flight recorder).
     */
    std::vector<std::string> sealWaveforms();

    /** Champions the flight recorder retained (empty without one). */
    const std::vector<output::FlightRecorder::Entry>& champions() const;

    /**
     * Send the final heartbeat (state "completed") to status.json and
     * /status. The telemetry server keeps serving it until the
     * pipeline is destroyed.
     */
    void finish();

    /**
     * Seal manifest.json over the finished run directory: @p manifest
     * carries what only the run driver knows (configuration fields
     * and run outcome); the digest totals are filled in here and
     * provenance::sealManifest adds the rest. @return its path (empty
     * without provenance).
     */
    std::string seal(provenance::Manifest manifest);

    /** host:port the telemetry server bound (empty without one). */
    std::string listenAddress() const;

    /** The run's coverage.csv (empty without an output directory). */
    std::string coverageFile() const;

  private:
    /**
     * Build the generation's snapshot. The one place that decides the
     * deriver order: births, coverage, analytics, digest, alerts,
     * status — each step may read the ones before it.
     */
    analysis::GenerationSnapshot derive(const core::GenerationView& view);

    /** Run every sink on @p snapshot, in the documented order. */
    void emit(const analysis::GenerationSnapshot& snapshot);

    /** Refresh @p status's clock-derived fields for state @p running. */
    void stampClock(analysis::StatusSnapshot& status, bool running) const;

    /** @p name inside the run directory. */
    std::string artifact(const char* name) const;

    const RunConfig& _cfg;
    const double _startUs;

    // Derivers.
    analysis::LineageLedger _lineage;
    attribution::CoverageLedger _coverage;
    analysis::HealthWatchdog _watchdog;
    std::optional<provenance::DigestLedger> _digests;
    std::uint64_t _totalMeasured = 0;
    std::uint64_t _totalCacheHits = 0;

    /** The last generation's heartbeat (the final one starts from it). */
    std::optional<analysis::StatusSnapshot> _lastStatus;

    // Sinks.
    std::unique_ptr<output::RunWriter> _writer;
    std::unique_ptr<output::FlightRecorder> _flight;
    std::unique_ptr<net::TelemetryServer> _telemetry;
};

} // namespace config
} // namespace gest

#endif // GEST_CONFIG_PIPELINE_HH
