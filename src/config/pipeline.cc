#include "config/pipeline.hh"

#include "net/telemetry.hh"
#include "output/run_writer.hh"
#include "provenance/manifest.hh"
#include "stats/stats.hh"
#include "util/fileutil.hh"
#include "util/logging.hh"

namespace gest {
namespace config {

namespace {

/**
 * Analytics stat handles, resolved once (the engineStats() pattern):
 * the headline analytics mirrored into stats.txt and metrics.json,
 * subject to the global stats::enabled() flag.
 */
struct AnalysisStats
{
    stats::Counter& births;
    stats::Counter& crossoverBirths;
    stats::Counter& mutationBirths;
    stats::Counter& eliteCopies;
    stats::Counter& crossoverImproved;
    stats::Counter& mutationImproved;
    stats::Gauge& geneEntropy;
    stats::Gauge& pairwiseDiversity;
    stats::Gauge& fitnessMedian;
};

AnalysisStats&
analysisStats()
{
    stats::StatsRegistry& r = stats::StatsRegistry::instance();
    static AnalysisStats s{
        r.counter("analysis.births", "individuals recorded by the ledger"),
        r.counter("analysis.births.crossover",
                  "children born by crossover alone"),
        r.counter("analysis.births.mutation",
                  "children mutated after crossover"),
        r.counter("analysis.births.elite_copy",
                  "elite individuals carried unchanged"),
        r.counter("analysis.improved.crossover",
                  "crossover children that beat both parents"),
        r.counter("analysis.improved.mutation",
                  "mutated children that beat both parents"),
        r.gauge("analysis.gene_entropy_bits",
                "mean per-gene entropy of the last generation (bits)"),
        r.gauge("analysis.pairwise_diversity",
                "mean pairwise genome distance of the last generation"),
        r.gauge("analysis.fitness_median",
                "median fitness of the last generation"),
    };
    return s;
}

const std::vector<output::FlightRecorder::Entry> noChampions;

} // namespace

RunPipeline::RunPipeline(const RunConfig& cfg,
                         const measure::Measurement& measurement,
                         output::TraceWriter* trace)
    : _cfg(cfg), _startUs(stats::nowUs()), _coverage(cfg.library),
      _watchdog(cfg.healthRules)
{
    const std::string& dir = cfg.outputDirectory;
    if (!dir.empty()) {
        _writer = std::make_unique<output::RunWriter>(
            dir, cfg.library, cfg.asmTemplate ? &*cfg.asmTemplate : nullptr);
        _writer->writeRunMetadata(
            cfg.rawText, cfg.asmTemplate ? cfg.asmTemplate->text() : "");
        _writer->setTraceWriter(trace);
        writeFile(artifact("lineage.csv"), analysis::lineageCsvHeader());
        writeFile(artifact("analytics.csv"),
                  analysis::analyticsCsvHeader());
        writeFile(artifact("coverage.csv"),
                  attribution::coverageCsvHeader(_coverage));
        writeFile(artifact("alerts.csv"), analysis::alertsCsvHeader());
        if (cfg.recordProvenance) {
            _digests.emplace(cfg.library);
            writeFile(artifact("digests.csv"),
                      provenance::digestsCsvHeader());
        }
    }

    if (cfg.waveformTopK > 0) {
        if (dir.empty()) {
            warn("waveform capture requested but no output directory "
                 "is set; skipping");
        } else if (std::unique_ptr<measure::Measurement> probe =
                       measurement.clone()) {
            _flight = std::make_unique<output::FlightRecorder>(
                dir, cfg.waveformTopK, std::move(probe));
        } else {
            warn("measurement '", cfg.measurementClass,
                 "' is not cloneable; waveform capture disabled");
        }
    }

    // Bind before the run so the first generation is already scrapable.
    if (!cfg.listenAddress.empty()) {
        _telemetry = std::make_unique<net::TelemetryServer>(
            cfg.listenAddress, cfg.library, cfg.ga.generations);
        _telemetry->start();
        inform("telemetry listening on http://", _telemetry->address());
    }
}

RunPipeline::~RunPipeline() = default;

std::string
RunPipeline::artifact(const char* name) const
{
    return _cfg.outputDirectory + "/" + name;
}

core::Engine::GenerationCallback
RunPipeline::callback()
{
    return [this](const core::GenerationView& view) {
        emit(derive(view));
    };
}

analysis::GenerationSnapshot
RunPipeline::derive(const core::GenerationView& view)
{
    const core::Population& pop = view.population;
    const core::GenerationRecord& record = view.record;

    // 2. Births, with the fitness this generation scored.
    std::vector<analysis::LineageEvent> births = _lineage.seal(view);

    // 3. Coverage tick.
    const attribution::CoverageLedger::Snapshot coverage =
        _coverage.onGenerationEvaluated(pop, record);

    // 4. Analytics row (operator efficacy reads the sealed births).
    analysis::AnalyticsRow row = analysis::computeAnalytics(_cfg.library, pop);
    row.generation = record.generation;
    analysis::tallyOperatorEfficacy(row, births, _lineage);
    AnalysisStats& s = analysisStats();
    s.births.inc(births.size());
    s.crossoverBirths.inc(row.crossoverChildren);
    s.mutationBirths.inc(row.mutationChildren);
    s.eliteCopies.inc(row.eliteCopies);
    s.crossoverImproved.inc(row.crossoverImproved);
    s.mutationImproved.inc(row.mutationImproved);
    s.geneEntropy.set(row.geneEntropyBits);
    s.pairwiseDiversity.set(row.pairwiseDiversity);
    s.fitnessMedian.set(row.fitnessMedian);

    // 5. Population digest.
    std::string digest = _digests ? _digests->seal(pop) : std::string();

    // 6. Alerts (the watchdog reads this generation's coverage tick).
    std::vector<analysis::Alert> alerts =
        _watchdog.onGenerationEvaluated(record, coverage);

    // 7. The heartbeat, composed from everything above.
    _totalMeasured += record.cacheMisses;
    _totalCacheHits += record.cacheHits;
    analysis::StatusSnapshot status;
    status.generation = record.generation;
    status.totalGenerations = _cfg.ga.generations;
    status.bestFitness = record.bestFitness;
    status.averageFitness = record.averageFitness;
    status.diversity = record.diversity;
    status.geneEntropyBits = row.geneEntropyBits;
    status.pairwiseDiversity = row.pairwiseDiversity;
    status.evaluations = _totalMeasured;
    const std::uint64_t resolved = _totalMeasured + _totalCacheHits;
    status.cacheHitRate = resolved > 0
                              ? static_cast<double>(_totalCacheHits) /
                                    static_cast<double>(resolved)
                              : 0.0;
    if (_digests)
        status.digestsSealed =
            static_cast<std::int64_t>(_digests->rowsSealed());
    const analysis::HealthSummary health = _watchdog.summary();
    status.alertsRaised = static_cast<std::int64_t>(health.alerts);
    status.lastAlertGeneration = health.lastGeneration;
    status.lastAlertRule = health.lastRule;
    status.gitSha = provenance::currentGitSha();
    status.build = provenance::currentBuildFingerprint();
    status.listen = listenAddress();
    stampClock(status, /*running=*/true);
    _lastStatus = status;

    return {pop, record, std::move(births), coverage, std::move(row),
            std::move(digest), std::move(alerts), std::move(status)};
}

void
RunPipeline::stampClock(analysis::StatusSnapshot& status,
                        bool running) const
{
    const double elapsed_s = (stats::nowUs() - _startUs) / 1e6;
    const int done = status.generation + 1;
    status.running = running;
    status.elapsedSeconds = elapsed_s;
    status.evalsPerSec =
        elapsed_s > 0.0
            ? static_cast<double>(status.evaluations) / elapsed_s
            : 0.0;
    status.etaSeconds =
        running && done > 0 && status.totalGenerations > done
            ? elapsed_s / static_cast<double>(done) *
                  static_cast<double>(status.totalGenerations - done)
            : 0.0;
    analysis::fillSteadyCounters(status);
}

void
RunPipeline::emit(const analysis::GenerationSnapshot& snap)
{
    if (_writer) {
        _writer->writeGeneration(snap.population, snap.record);
        appendFile(artifact("lineage.csv"),
                   analysis::formatLineageRows(snap.births));
        appendFile(artifact("analytics.csv"),
                   analysis::formatAnalyticsRow(snap.analytics));
        // Atomic replace: a poller sees the previous heartbeat or this
        // one, never a torn file.
        writeFileAtomic(artifact("status.json"),
                        analysis::formatStatusJson(snap.status));
        appendFile(artifact("coverage.csv"),
                   attribution::formatCoverageCsvRow(snap.coverage));
        if (_digests)
            appendFile(artifact("digests.csv"),
                       provenance::formatDigestRow(snap.record.generation,
                                                   snap.record.bestFitness,
                                                   snap.digest));
        for (const analysis::Alert& alert : snap.alerts)
            appendFile(artifact("alerts.csv"),
                       analysis::formatAlertCsvRow(alert));
    }
    if (_flight)
        _flight->onGenerationEvaluated(snap.population, snap.record);
    if (_telemetry)
        _telemetry->service().publish(snap);
}

std::vector<std::string>
RunPipeline::sealWaveforms()
{
    return _flight ? _flight->seal() : std::vector<std::string>{};
}

const std::vector<output::FlightRecorder::Entry>&
RunPipeline::champions() const
{
    return _flight ? _flight->entries() : noChampions;
}

void
RunPipeline::finish()
{
    if (_lastStatus) {
        analysis::StatusSnapshot final_status = *_lastStatus;
        stampClock(final_status, /*running=*/false);
        if (_writer) {
            writeFileAtomic(artifact("status.json"),
                            analysis::formatStatusJson(final_status));
            debug("analytics recorded in ", _cfg.outputDirectory,
                  "/lineage.csv, analytics.csv and status.json");
        }
        if (_telemetry)
            _telemetry->service().noteRunCompleted(final_status);
    }
}

std::string
RunPipeline::seal(provenance::SealInfo info)
{
    if (!_digests)
        return "";
    info.digestsSealed = _digests->rowsSealed();
    info.digestMsTotal = _digests->digestUsTotal() / 1000.0;
    return provenance::sealManifest(_cfg.outputDirectory, info,
                                    _writer->artifactKinds());
}

std::string
RunPipeline::listenAddress() const
{
    return _telemetry ? _telemetry->address() : "";
}

std::string
RunPipeline::coverageFile() const
{
    return _writer ? artifact("coverage.csv") : "";
}

} // namespace config
} // namespace gest
