#include "config/config.hh"

#include "attribution/attribution.hh"
#include "attribution/attribution_io.hh"
#include "config/pipeline.hh"
#include "fitness/fitness.hh"
#include "isa/standard_libs.hh"
#include "measure/sim_measurements.hh"
#include "native/native_measurement.hh"
#include "output/trace_writer.hh"
#include "stats/stats.hh"
#include "util/fileutil.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gest {
namespace config {

namespace {

std::string
resolvePath(const std::string& base_dir, const std::string& path)
{
    if (path.empty() || path.front() == '/')
        return path;
    return base_dir + "/" + path;
}

void
parseGaElement(const xml::Element& ga, core::GaParams& params)
{
    if (ga.hasAttr("population_size"))
        params.populationSize = static_cast<int>(
            parseInt(ga.attr("population_size"), "population_size"));
    if (ga.hasAttr("individual_size"))
        params.individualSize = static_cast<int>(
            parseInt(ga.attr("individual_size"), "individual_size"));
    if (ga.hasAttr("mutation_rate"))
        params.mutationRate =
            parseDouble(ga.attr("mutation_rate"), "mutation_rate");
    if (ga.hasAttr("operand_mutation_prob"))
        params.operandMutationProb =
            parseDouble(ga.attr("operand_mutation_prob"),
                        "operand_mutation_prob");
    if (ga.hasAttr("crossover_operator"))
        params.crossover =
            core::crossoverFromString(ga.attr("crossover_operator"));
    if (ga.hasAttr("parent_selection_method"))
        params.selection = core::selectionFromString(
            ga.attr("parent_selection_method"));
    if (ga.hasAttr("tournament_size"))
        params.tournamentSize = static_cast<int>(
            parseInt(ga.attr("tournament_size"), "tournament_size"));
    if (ga.hasAttr("elitism"))
        params.elitism = parseBool(ga.attr("elitism"), "elitism");
    if (ga.hasAttr("generations"))
        params.generations = static_cast<int>(
            parseInt(ga.attr("generations"), "generations"));
    if (ga.hasAttr("stagnation_limit"))
        params.stagnationLimit = static_cast<int>(parseInt(
            ga.attr("stagnation_limit"), "stagnation_limit"));
    if (ga.hasAttr("seed"))
        params.seed =
            static_cast<std::uint64_t>(parseInt(ga.attr("seed"), "seed"));
    if (ga.hasAttr("threads"))
        params.threads =
            static_cast<int>(parseInt(ga.attr("threads"), "threads"));
    if (ga.hasAttr("fitness_cache_size"))
        params.fitnessCacheSize = static_cast<int>(parseInt(
            ga.attr("fitness_cache_size"), "fitness_cache_size"));
}

void
parseOperands(const xml::Element& operands, isa::InstructionLibrary& lib)
{
    for (const xml::Element* op : operands.childrenNamed("operand")) {
        const std::string id = op->attr("id");
        const std::string type = toLower(op->attrOr("type", "register"));
        if (type == "register") {
            lib.addOperand(isa::OperandDef::makeRegisters(
                id, splitWhitespace(op->attr("values"))));
        } else if (type == "immediate") {
            lib.addOperand(isa::OperandDef::makeImmediate(
                id, parseInt(op->attr("min"), "operand min"),
                parseInt(op->attr("max"), "operand max"),
                parseInt(op->attrOr("stride", "1"), "operand stride")));
        } else {
            fatal("operand '", id, "' (line ", op->line(),
                  ") has unknown type '", type, "'");
        }
    }
}

isa::Opcode
resolveSemantic(const xml::Element& inst, const std::string& name,
                const std::string& format)
{
    isa::Opcode opcode;
    if (inst.hasAttr("semantic")) {
        if (!isa::opcodeFromMnemonic(inst.attr("semantic"), opcode))
            fatal("instruction '", name, "': unknown semantic '",
                  inst.attr("semantic"), "'");
        return opcode;
    }
    if (isa::opcodeFromMnemonic(name, opcode))
        return opcode;
    const std::vector<std::string> words = splitWhitespace(format);
    if (!words.empty() && isa::opcodeFromMnemonic(words[0], opcode))
        return opcode;
    fatal("instruction '", name, "' (line ", inst.line(),
          "): cannot infer its semantic from the name or format; add a "
          "semantic=\"...\" attribute (e.g. semantic=\"fmul\")");
}

void
parseInstructions(const xml::Element& instructions,
                  isa::InstructionLibrary& lib)
{
    for (const xml::Element* inst :
         instructions.childrenNamed("instruction")) {
        const std::string name = inst->attr("name");
        const std::string format = inst->attr("format");

        std::vector<std::string> operand_ids;
        for (int slot = 1;; ++slot) {
            const std::string attr = "operand" + std::to_string(slot);
            if (!inst->hasAttr(attr))
                break;
            operand_ids.push_back(inst->attr(attr));
        }
        if (inst->hasAttr("num_of_operands")) {
            const std::int64_t declared = parseInt(
                inst->attr("num_of_operands"), "num_of_operands");
            if (declared != static_cast<std::int64_t>(operand_ids.size()))
                fatal("instruction '", name, "' (line ", inst->line(),
                      ") declares ", declared, " operands but defines ",
                      operand_ids.size());
        }

        const isa::InstrClass cls =
            isa::instrClassFromString(inst->attrOr("type", "int"));
        lib.addInstruction(name, operand_ids, format, cls,
                           resolveSemantic(*inst, name, format));
    }
}

} // namespace

RunConfig
parseConfig(const std::string& text, const std::string& base_dir,
            const ParseOptions& options)
{
    RunConfig cfg;
    cfg.rawText = text;
    cfg.configBaseDir = base_dir;
    cfg.mainDoc = std::make_shared<xml::Document>(
        xml::parse(text, "main configuration"));
    const xml::Element& root = cfg.mainDoc->root();
    if (root.name() != "gest_configuration")
        fatal("configuration root element must be <gest_configuration>, "
              "got <", root.name(), ">");

    if (const xml::Element* ga = root.child("ga"))
        parseGaElement(*ga, cfg.ga);

    // Bundled library first so user definitions can reference or extend
    // its operand pools.
    if (const xml::Element* lib_elem = root.child("library")) {
        const std::string name = toLower(lib_elem->attr("name"));
        if (name == "arm")
            cfg.library = isa::armLikeLibrary();
        else if (name == "armv7")
            cfg.library = isa::armV7LikeLibrary();
        else if (name == "x86")
            cfg.library = isa::x86LikeLibrary();
        else if (name == "cache-stress")
            cfg.library = isa::armCacheStressLibrary();
        else
            fatal("unknown bundled library '", name,
                  "'; available: arm, armv7, x86, cache-stress");
    }
    if (const xml::Element* operands = root.child("operands"))
        parseOperands(*operands, cfg.library);
    if (const xml::Element* instructions = root.child("instructions"))
        parseInstructions(*instructions, cfg.library);
    if (cfg.library.numInstructions() == 0)
        fatal("configuration defines no instructions: add a <library> "
              "element or an <instructions> section");

    auto load_component = [&](const char* tag, std::string& cls,
                              std::shared_ptr<xml::Document>& doc,
                              const xml::Element*& config_elem) {
        const xml::Element* elem = root.child(tag);
        if (!elem)
            return;
        if (elem->hasAttr("class"))
            cls = elem->attr("class");
        if (elem->hasAttr("config")) {
            if (options.loadReferencedFiles) {
                doc = std::make_shared<xml::Document>(xml::parseFile(
                    resolvePath(base_dir, elem->attr("config"))));
                config_elem = &doc->root();
            }
        } else if (const xml::Element* inline_cfg =
                       elem->child("config")) {
            config_elem = inline_cfg;
        }
    };
    load_component("measurement", cfg.measurementClass,
                   cfg.measurementDoc, cfg.measurementConfig);
    load_component("fitness", cfg.fitnessClass, cfg.fitnessDoc,
                   cfg.fitnessConfig);

    if (const xml::Element* out = root.child("output")) {
        cfg.outputDirectory =
            resolvePath(base_dir, out->attr("directory"));
        if (out->hasAttr("trace")) {
            const std::string& trace_base = cfg.outputDirectory.empty()
                                                ? base_dir
                                                : cfg.outputDirectory;
            cfg.traceFile = resolvePath(trace_base, out->attr("trace"));
        }
        if (out->hasAttr("stats"))
            cfg.recordStats =
                parseBool(out->attr("stats"), "output stats");
        if (out->hasAttr("provenance"))
            cfg.recordProvenance =
                parseBool(out->attr("provenance"), "output provenance");
        if (out->hasAttr("attribution"))
            cfg.recordAttribution = parseBool(
                out->attr("attribution"), "output attribution");
        if (out->hasAttr("health_plateau"))
            cfg.healthRules.plateauGenerations =
                static_cast<int>(parseInt(out->attr("health_plateau"),
                                          "output health_plateau"));
        if (out->hasAttr("health_collapse_factor"))
            cfg.healthRules.throughputCollapseFactor =
                parseDouble(out->attr("health_collapse_factor"),
                            "output health_collapse_factor");
        if (out->hasAttr("health_coverage_stall"))
            cfg.healthRules.coverageStallGenerations =
                static_cast<int>(
                    parseInt(out->attr("health_coverage_stall"),
                             "output health_coverage_stall"));
        if (out->hasAttr("health_starvation_share"))
            cfg.healthRules.workerStarvationShare =
                parseDouble(out->attr("health_starvation_share"),
                            "output health_starvation_share");
        if (out->hasAttr("listen"))
            cfg.listenAddress = out->attr("listen");
        if (out->hasAttr("waveforms")) {
            const std::int64_t top_k =
                parseInt(out->attr("waveforms"), "output waveforms");
            if (top_k < 0)
                fatal("output waveforms must be non-negative, got ",
                      top_k);
            cfg.waveformTopK = static_cast<int>(top_k);
        }
    }
    if (const xml::Element* seed = root.child("seed_population"))
        cfg.seedPopulationPath =
            resolvePath(base_dir, seed->attr("file"));
    if (const xml::Element* tmpl = root.child("template")) {
        if (tmpl->hasAttr("file")) {
            if (options.loadReferencedFiles)
                cfg.asmTemplate = isa::AsmTemplate::fromFile(
                    resolvePath(base_dir, tmpl->attr("file")));
        } else if (!tmpl->text().empty()) {
            cfg.asmTemplate = isa::AsmTemplate(tmpl->text());
        }
    }

    cfg.ga.validate();
    return cfg;
}

RunConfig
loadConfig(const std::string& path)
{
    std::string base_dir = ".";
    const std::size_t slash = path.find_last_of('/');
    if (slash != std::string::npos)
        base_dir = path.substr(0, slash);
    return parseConfig(readFile(path), base_dir);
}

void
registerBuiltins()
{
    measure::registerSimMeasurements();
    native::registerNativeMeasurements();
    fitness::registerBuiltinFitness();
}

Evaluators
buildEvaluators(const RunConfig& cfg)
{
    registerBuiltins();
    Evaluators out;
    out.measurement = measure::MeasurementRegistry::instance().create(
        cfg.measurementClass, cfg.library);
    out.measurement->init(cfg.measurementConfig);
    if (cfg.steadyStateOverride)
        out.measurement->setSteadyState(*cfg.steadyStateOverride);
    out.fitness =
        fitness::FitnessRegistry::instance().create(cfg.fitnessClass);
    out.fitness->init(cfg.fitnessConfig);
    return out;
}

RunResult
runFromConfig(const RunConfig& cfg)
{
    const Evaluators evaluators = buildEvaluators(cfg);
    measure::Measurement& measurement = *evaluators.measurement;
    fitness::Fitness& fit = *evaluators.fitness;

    core::Engine engine(cfg.ga, cfg.library, measurement, fit);

    if (!cfg.seedPopulationPath.empty())
        engine.setSeedPopulation(
            core::loadPopulation(cfg.library, cfg.seedPopulationPath));

    // Observability: stats on by default (the per-sample cost is atomic
    // bumps and clock reads, invisible next to simulation); each run
    // starts from zeroed values so artifacts describe this run only.
    const bool stats_were_enabled = stats::enabled();
    if (cfg.recordStats) {
        stats::StatsRegistry::instance().resetValues();
        stats::setEnabled(true);
    }

    std::unique_ptr<output::TraceWriter> trace;
    if (!cfg.traceFile.empty()) {
        trace = std::make_unique<output::TraceWriter>(cfg.traceFile);
        engine.setTraceWriter(trace.get());
    }

    RunPipeline pipeline(cfg, measurement, trace.get());
    engine.setGenerationCallback(pipeline.callback());
    engine.run();

    RunResult result;
    result.finalPopulation = engine.population();
    result.best = engine.bestEver();
    result.history = engine.history();
    result.evaluations = engine.evaluations();
    result.cacheHits = engine.cacheHits();
    result.cacheMisses = engine.cacheMisses();
    result.waveformFiles = pipeline.sealWaveforms();
    result.coverageFile = pipeline.coverageFile();

    // Attribution: ablate the flight recorder's retained champions (or
    // the best-ever individual without one) on a private measurement
    // clone and seal attribution/ artifacts. Before the stats dump so
    // the attribution.* counters land in metrics.prom, before the
    // provenance seal so the manifest covers the artifacts.
    if (cfg.recordAttribution && !cfg.outputDirectory.empty()) {
        std::unique_ptr<measure::Measurement> private_meas =
            measurement.clone();
        measure::Measurement* attr_meas =
            private_meas ? private_meas.get() : &measurement;

        struct AttributionTarget
        {
            std::uint64_t id;
            int generation;
            const std::vector<isa::InstructionInstance>* code;
        };
        std::vector<AttributionTarget> targets;
        for (const output::FlightRecorder::Entry& entry :
             pipeline.champions())
            targets.push_back({entry.id, entry.generation, &entry.code});
        if (targets.empty() && !result.best.code.empty())
            targets.push_back({result.best.id, -1, &result.best.code});
        for (const AttributionTarget& target : targets) {
            core::Individual ind;
            ind.id = target.id;
            ind.code = *target.code;
            attribution::AttributionResult attributed =
                attribution::computeAttribution(cfg.library, *attr_meas,
                                                fit, ind);
            attributed.generation = target.generation;
            const std::string basename =
                "individual_" + std::to_string(target.id);
            const attribution::AttributionArtifacts artifacts =
                attribution::writeAttributionArtifacts(
                    cfg.outputDirectory + "/attribution", basename,
                    attributed);
            result.attributionFiles.push_back(artifacts.jsonPath);
        }
        if (!targets.empty())
            debug("attribution sealed for ", targets.size(),
                  " individual(s) in ", cfg.outputDirectory,
                  "/attribution");
    } else if (cfg.recordAttribution) {
        warn("attribution requested but no output directory is set; "
             "skipping");
    }

    if (trace) {
        trace->finish();
        result.traceFile = cfg.traceFile;
    }
    if (cfg.recordStats && !cfg.outputDirectory.empty()) {
        // Freshen the process self-observation gauges so the sealed
        // exposition agrees with what a final /metrics scrape would
        // have shown.
        stats::updateProcessGauges();
        writeFile(cfg.outputDirectory + "/metrics.prom",
                  stats::renderPrometheusMetrics());
        debug("stats recorded in ", cfg.outputDirectory,
              "/metrics.prom");
    }
    // After the stats dump: the last scrape a client can make agrees
    // with the sealed artifacts.
    pipeline.finish();
    result.listenAddress = pipeline.listenAddress();
    if (cfg.recordStats)
        stats::setEnabled(stats_were_enabled);
    // Seal last: every other artifact is final, so the manifest's
    // checksums describe exactly what a verifier will find.
    provenance::Manifest manifest;
    manifest.configBaseDir = cfg.configBaseDir;
    manifest.measurementClass = cfg.measurementClass;
    manifest.fitnessClass = cfg.fitnessClass;
    manifest.hasSeed = true;
    manifest.seed = cfg.ga.seed;
    manifest.populationSize = cfg.ga.populationSize;
    manifest.individualSize = cfg.ga.individualSize;
    manifest.generations = cfg.ga.generations;
    manifest.threads = cfg.ga.threads;
    manifest.fitnessCacheSize = cfg.ga.fitnessCacheSize;
    manifest.elitism = cfg.ga.elitism;
    manifest.steadyStateOverride = cfg.steadyStateOverride;
    manifest.waveformTopK = cfg.waveformTopK;
    manifest.recordStats = cfg.recordStats;
    manifest.recordAttribution = cfg.recordAttribution;
    manifest.generationsCompleted =
        static_cast<int>(result.history.size());
    manifest.evaluations = result.evaluations;
    manifest.bestFitness = result.best.fitness;
    manifest.bestId = result.best.id;
    result.manifestFile = pipeline.seal(std::move(manifest));
    return result;
}

} // namespace config
} // namespace gest
