/**
 * @file
 * Benchmark driver: one GA search per process, as `gest run` does it.
 *
 *   gest_perfbench run <config.xml> <setup_reps> <history_dir>
 *       Times the set-up calls made before generation 0 (parseConfig,
 *       measurement create + init, fitness create + init) setup_reps
 *       times, then one config::runFromConfig; quick-verifies the
 *       sealed run directory and re-renders the history into
 *       history_dir/history.csv.
 *
 *   gest_perfbench setup <config.xml> <setup_reps>
 *       Times only the set-up calls, setup_reps times.
 *
 *   gest_perfbench replay <config.xml> <out_dir>
 *       Drives core::Engine with the benchmark's TracedMeasurement and
 *       writes history.csv, spans.csv and evals.csv into out_dir.
 *
 * Each mode prints one JSON object on stdout; run.py does the rest.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "config/config.hh"
#include "fitness/fitness.hh"
#include "measure/measurement.hh"
#include "output/run_writer.hh"
#include "provenance/verify.hh"
#include "stats/stats.hh"
#include "traced.hh"
#include "util/fileutil.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace {

using namespace gest;

double
seconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
baseDir(const std::string& path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? "." : path.substr(0, slash);
}

/** history.csv as RunWriter renders it, for runs without a run dir. */
void
renderHistory(const std::string& dir, const config::RunConfig& cfg,
              const std::vector<core::GenerationRecord>& history)
{
    output::RunWriterOptions options;
    options.writeIndividuals = false;
    options.writePopulations = false;
    output::RunWriter writer(dir, cfg.library, nullptr, options);
    for (const core::GenerationRecord& record : history)
        writer.appendHistory(record);
}

std::uint64_t
counter(const char* name)
{
    return stats::StatsRegistry::instance().counter(name, "").value();
}

/**
 * Times the set-up calls made before generation 0 `reps` times; appends
 * each repetition's set-up seconds and parse milliseconds.
 */
config::RunConfig
timeSetUp(const std::string& path, int reps, std::vector<double>& setup_s,
          std::vector<double>& parse_ms)
{
    const std::string text = readFile(path);
    const std::string base = baseDir(path);
    config::registerBuiltins();

    config::RunConfig cfg;
    for (int rep = 0; rep < std::max(reps, 1); ++rep) {
        const double t0 = seconds();
        cfg = config::parseConfig(text, base);
        const double t1 = seconds();
        std::unique_ptr<measure::Measurement> measurement =
            measure::MeasurementRegistry::instance().create(
                cfg.measurementClass, cfg.library);
        measurement->init(cfg.measurementConfig);
        std::unique_ptr<fitness::Fitness> fit =
            fitness::FitnessRegistry::instance().create(cfg.fitnessClass);
        fit->init(cfg.fitnessConfig);
        const double t2 = seconds();
        setup_s.push_back(t2 - t0);
        parse_ms.push_back((t1 - t0) * 1e3);
    }
    return cfg;
}

int
cmdSetup(const std::string& path, int setup_reps)
{
    std::vector<double> setup_s, parse_ms;
    timeSetUp(path, setup_reps, setup_s, parse_ms);
    std::printf("{\"setup_s\": %s, \"parse_ms\": %s}\n",
                num(median(setup_s)).c_str(), num(median(parse_ms)).c_str());
    return 0;
}

int
cmdRun(const std::string& path, int setup_reps,
       const std::string& history_dir)
{
    std::vector<double> setup_s, parse_ms;
    const config::RunConfig cfg =
        timeSetUp(path, setup_reps, setup_s, parse_ms);

    const double t0 = seconds();
    const config::RunResult result = config::runFromConfig(cfg);
    const double run_s = seconds() - t0;

    renderHistory(history_dir, cfg, result.history);
    std::string verify = "null";
    if (!cfg.outputDirectory.empty()) {
        provenance::VerifyOptions options;
        options.quick = true;
        const provenance::VerifyResult v =
            provenance::verifyRun(cfg.outputDirectory, options);
        verify = std::string("{\"ok\": ") + (v.ok ? "true" : "false") +
                 ", \"artifacts\": " +
                 std::to_string(v.artifactsVerified) + ", \"problems\": [";
        for (std::size_t i = 0; i < v.problems.size(); ++i)
            verify += (i ? ", \"" : "\"") + jsonEscape(v.problems[i]) + "\"";
        verify += "]}";
    }

    std::printf(
        "{\"setup_s\": %s, \"parse_ms\": %s, \"run_s\": %s, "
        "\"best_fitness\": %s, \"best_id\": %llu, \"generations\": %zu, "
        "\"population\": %d, \"threads\": %d, \"measurements\": %llu, "
        "\"cache_hits\": %llu, \"cache_misses\": %llu, "
        "\"sim\": {\"evaluations\": %llu, \"cycles\": %llu, "
        "\"simulated_cycles\": %llu, \"steady_hits\": %llu}, "
        "\"verify\": %s}\n",
        num(median(setup_s)).c_str(), num(median(parse_ms)).c_str(),
        num(run_s).c_str(), num(result.best.fitness).c_str(),
        static_cast<unsigned long long>(result.best.id),
        result.history.size(), cfg.ga.populationSize, cfg.ga.threads,
        static_cast<unsigned long long>(result.evaluations),
        static_cast<unsigned long long>(result.cacheHits),
        static_cast<unsigned long long>(result.cacheMisses),
        static_cast<unsigned long long>(counter("measure.sim.evaluations")),
        static_cast<unsigned long long>(counter("measure.sim.cycles")),
        static_cast<unsigned long long>(counter("eval.cycles_simulated")),
        static_cast<unsigned long long>(counter("eval.steady_hits")),
        verify.c_str());
    return 0;
}

int
cmdReplay(const std::string& path, const std::string& out_dir)
{
    config::registerBuiltins();
    const config::RunConfig cfg = config::loadConfig(path);
    if (!cfg.seedPopulationPath.empty())
        fatal("the traced replay does not load seed populations");

    std::unique_ptr<fitness::Fitness> inner =
        fitness::FitnessRegistry::instance().create(cfg.fitnessClass);
    inner->init(cfg.fitnessConfig);

    perfbench::SpanRecorder recorder;
    perfbench::TracedFitness fit(*inner, recorder);
    perfbench::TracedMeasurement measurement(cfg, recorder);
    core::Engine engine(cfg.ga, cfg.library, measurement, fit);

    const double t0 = seconds();
    int step = 0;
    for (bool more = true; more; ++step) {
        recorder.beginStep(step);
        if (step == 0)
            engine.initialize();
        else
            more = engine.step();
        recorder.endStep();
    }
    const double wall_s = seconds() - t0;

    ensureDir(out_dir);
    renderHistory(out_dir, cfg, engine.history());
    recorder.write(out_dir + "/spans.csv", out_dir + "/evals.csv");

    std::printf("{\"wall_s\": %s, \"best_fitness\": %s, \"best_id\": %llu, "
                "\"generations\": %zu, \"population\": %d, "
                "\"threads\": %d, \"measurements\": %llu}\n",
                num(wall_s).c_str(), num(engine.bestEver().fitness).c_str(),
                static_cast<unsigned long long>(engine.bestEver().id),
                engine.history().size(), cfg.ga.populationSize,
                cfg.ga.threads,
                static_cast<unsigned long long>(engine.evaluations()));
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    try {
        setLogLevel(LogLevel::Quiet);
        if (args.size() == 4 && args[0] == "run")
            return cmdRun(args[1],
                          static_cast<int>(parseInt(args[2], "setup_reps")),
                          args[3]);
        if (args.size() == 3 && args[0] == "setup")
            return cmdSetup(args[1],
                            static_cast<int>(parseInt(args[2], "setup_reps")));
        if (args.size() == 3 && args[0] == "replay")
            return cmdReplay(args[1], args[2]);
        std::fprintf(stderr,
                     "usage: gest_perfbench run <config> <setup_reps> "
                     "<history_dir>\n"
                     "       gest_perfbench setup <config> <setup_reps>\n"
                     "       gest_perfbench replay <config> <out_dir>\n");
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
}
