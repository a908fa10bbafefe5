/**
 * @file
 * The main configuration file (§III.B.1) and run orchestration.
 *
 * A GeST configuration is an XML file that carries (a) the GA engine
 * parameters of Table I, (b) the operand and instruction definitions the
 * search draws from (or the name of a bundled library), and (c) the
 * measurement and fitness classes plus their own configuration, the
 * output directory, the optional template file and the optional seed
 * population. Example:
 *
 * @code{.xml}
 * <gest_configuration>
 *   <ga population_size="50" individual_size="50" mutation_rate="0.02"
 *       crossover_operator="one_point"
 *       parent_selection_method="tournament" tournament_size="5"
 *       elitism="true" generations="100" seed="1"/>
 *   <library name="arm"/>
 *   <operands>
 *     <operand id="my_regs" type="register" values="x4 x5 x6"/>
 *     <operand id="imm" type="immediate" min="0" max="256" stride="8"/>
 *   </operands>
 *   <instructions>
 *     <instruction name="MYLDR" num_of_operands="3"
 *         operand1="mem_result" operand2="mem_address_register"
 *         operand3="imm" format="LDR op1, [op2, #op3]" type="mem"/>
 *   </instructions>
 *   <measurement class="SimPowerMeasurement">
 *     <config platform="cortex-a15"/>
 *   </measurement>
 *   <fitness class="DefaultFitness"/>
 *   <output directory="runs/a15_power"/>
 * </gest_configuration>
 * @endcode
 *
 * Measurement/fitness parameters may live inline (a <config> child, as
 * above) or in their own XML file (config="file.xml"), matching the
 * paper's separation of measurement configuration from the main file.
 */

#ifndef GEST_CONFIG_CONFIG_HH
#define GEST_CONFIG_CONFIG_HH

#include <memory>
#include <optional>
#include <string>

#include "analysis/health.hh"
#include "core/engine.hh"
#include "core/ga_params.hh"
#include "isa/asm_template.hh"
#include "isa/library.hh"
#include "xml/xml.hh"

namespace gest {
namespace config {

/** A fully parsed run configuration. */
struct RunConfig
{
    core::GaParams ga;
    isa::InstructionLibrary library;

    std::string measurementClass = "SimPowerMeasurement";
    std::string fitnessClass = "DefaultFitness";

    std::string outputDirectory;      ///< empty: no artifacts written
    std::string seedPopulationPath;   ///< empty: random seed population
    std::optional<isa::AsmTemplate> asmTemplate;

    /**
     * Chrome-trace output path (<output trace="..."> or the CLI's
     * --trace). Empty: no trace. A relative path resolves against the
     * output directory when one is set, else against the config's
     * directory.
     */
    std::string traceFile;

    /**
     * Record run statistics (<output stats="...">, default true): the
     * stats registry is enabled for the run and stats.txt +
     * metrics.json are written into the output directory.
     */
    bool recordStats = true;

    /**
     * Keep signal captures of the run's top-K individuals
     * (<output waveforms="K">, default 0 = off): a FlightRecorder
     * re-measures each champion once with a SignalProbe and seals
     * waveforms/<id>.csv artifacts in the output directory. Requires
     * an output directory and a cloneable measurement. Capture never
     * perturbs the GA RNG, so results are bit-identical with
     * waveforms on or off.
     */
    int waveformTopK = 0;

    /**
     * When set, forces the measurement's steady-state fast path on or
     * off after its own configuration is applied (the CLI's
     * --steady-state flag). Results are bit-identical either way; the
     * knob exists for verification and as an escape hatch.
     */
    std::optional<bool> steadyStateOverride;

    /**
     * Attribute champion fitness at seal time (<output
     * attribution="true"/>, default false): after the run, the flight
     * recorder's retained champions (or the best-ever individual when
     * no flight recorder ran) are ablated gene by gene on a private
     * measurement clone and `attribution/individual_<id>.{csv,json}`
     * artifacts are sealed into the output directory. Post-run only:
     * the GA itself is untouched.
     */
    bool recordAttribution = false;

    /**
     * Thresholds of the GA health watchdog, which evaluates the
     * declarative rules in analysis::HealthRules on every generation
     * (alerts.csv, the status.json `alerts` block, /alerts). Tuned via
     * the health_plateau, health_collapse_factor, health_cache_floor,
     * health_coverage_stall and health_starvation_share attributes of
     * <output> (zero disables a rule).
     */
    analysis::HealthRules healthRules;

    /**
     * Record run provenance (<output provenance="...">, default true):
     * a digests.csv population-digest ledger is appended during the
     * run and a manifest.json — canonical config hash, seed, build
     * fingerprint, artifact checksums — is sealed into the output
     * directory when the run finishes. `gest verify` replays against
     * them. Has no effect without an output directory.
     */
    bool recordProvenance = true;

    /**
     * The base directory relative file references resolved against
     * (parseConfig's base_dir), recorded into the manifest so a replay
     * can re-resolve them.
     */
    std::string configBaseDir = ".";

    /**
     * host:port for the live telemetry server (<output
     * listen="127.0.0.1:0"/> or the CLI's --listen; default off). When
     * set, the run hosts the embedded HTTP endpoints (/metrics,
     * /status, /history, /champion, /events) for its duration; port 0
     * asks the kernel for an ephemeral port, echoed to the log and
     * into status.json. See docs/observability.md, "Live endpoints".
     */
    std::string listenAddress;

    /** Raw main-configuration text (record keeping). */
    std::string rawText;

    /** Owning documents backing the config elements below. */
    std::shared_ptr<xml::Document> mainDoc;
    std::shared_ptr<xml::Document> measurementDoc;
    std::shared_ptr<xml::Document> fitnessDoc;

    /** Measurement parameters element (may be null). */
    const xml::Element* measurementConfig = nullptr;

    /** Fitness parameters element (may be null). */
    const xml::Element* fitnessConfig = nullptr;
};

/** Parsing options. */
struct ParseOptions
{
    /**
     * Resolve and load referenced files (template, external
     * measurement/fitness configs). Disable when only the embedded
     * information is needed — e.g. rebuilding the instruction library
     * from a configuration recorded inside a run directory, where the
     * original relative paths no longer resolve.
     */
    bool loadReferencedFiles = true;
};

/**
 * Parse a configuration from text. Relative file references (template,
 * external measurement config, seed population) resolve against
 * @p base_dir.
 */
RunConfig parseConfig(const std::string& text,
                      const std::string& base_dir = ".",
                      const ParseOptions& options = {});

/** Parse the configuration file at @p path. */
RunConfig loadConfig(const std::string& path);

/** Outcome of a full configured run. */
struct RunResult
{
    core::Population finalPopulation;
    core::Individual best;
    std::vector<core::GenerationRecord> history;
    std::uint64_t evaluations = 0;

    /** Fitness-cache totals (zero when the cache is disabled). */
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;

    /** Path of the written Chrome trace (empty when tracing was off). */
    std::string traceFile;

    /**
     * Waveform artifacts sealed by the flight recorder (index.csv
     * first; empty when waveform capture was off).
     */
    std::vector<std::string> waveformFiles;

    /**
     * host:port the telemetry server actually bound (ephemeral port
     * resolved; empty when --listen was off).
     */
    std::string listenAddress;

    /**
     * Path of the sealed manifest.json (empty when provenance was off
     * or no output directory was set).
     */
    std::string manifestFile;

    /** Path of the sealed coverage.csv (empty without a run directory). */
    std::string coverageFile;

    /**
     * Attribution artifacts sealed after the run (CSV and JSON twins
     * interleaved; empty when attribution was off).
     */
    std::vector<std::string> attributionFiles;
};

/**
 * Execute one GA run described by a configuration: instantiate the
 * measurement and fitness by name, deploy the run pipeline
 * (config/pipeline.hh), seed, run, seal.
 */
RunResult runFromConfig(const RunConfig& cfg);

/** Register all bundled measurement and fitness classes (idempotent). */
void registerBuiltins();

} // namespace config
} // namespace gest

#endif // GEST_CONFIG_CONFIG_HH
