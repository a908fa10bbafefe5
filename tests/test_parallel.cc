/**
 * @file
 * Tests for the parallel-evaluation subsystem: the thread pool, the
 * genome-keyed fitness cache, Measurement::clone() across every bundled
 * measurement class, and the engine-level determinism guarantee that a
 * serial run and a multi-threaded run with the same seed produce
 * identical histories and best genomes. Build with
 * -DGEST_SANITIZE=thread to run these under TSan.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>

#include "config/config.hh"
#include "core/engine.hh"
#include "core/fitness_cache.hh"
#include "isa/standard_libs.hh"
#include "measure/noisy_measurement.hh"
#include "measure/sim_measurements.hh"
#include "native/native_measurement.hh"
#include "platform/platform.hh"
#include "stats/stats.hh"
#include "util/logging.hh"
#include "util/strutil.hh"
#include "util/thread_pool.hh"

namespace gest {
namespace {

using core::Engine;
using core::FitnessCache;
using core::GaParams;
using core::Individual;
using core::Population;
using util::ThreadPool;

// ---------------------------------------------------------------- pool

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.workers(), 4);

    std::vector<std::atomic<int>> seen(257);
    pool.parallelFor(seen.size(), [&](std::size_t i, int worker) {
        EXPECT_GE(worker, 0);
        EXPECT_LT(worker, 4);
        seen[i].fetch_add(1);
    });
    for (const std::atomic<int>& count : seen)
        EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ReusableAcrossCallsAndOddSizes)
{
    ThreadPool pool(3);
    for (std::size_t count : {std::size_t{0}, std::size_t{1},
                              std::size_t{2}, std::size_t{100}}) {
        std::atomic<std::size_t> sum{0};
        pool.parallelFor(count, [&](std::size_t i, int) {
            sum.fetch_add(i + 1);
        });
        EXPECT_EQ(sum.load(), count * (count + 1) / 2);
    }
}

TEST(ThreadPool, PropagatesTaskExceptions)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(8,
                                  [&](std::size_t i, int) {
                                      if (i == 5)
                                          fatal("boom");
                                  }),
                 FatalError);
    // The pool survives a failed job.
    std::atomic<int> ran{0};
    pool.parallelFor(4, [&](std::size_t, int) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPool, RejectsNonPositiveWorkerCounts)
{
    EXPECT_THROW(ThreadPool(0), FatalError);
    EXPECT_THROW(ThreadPool(-2), FatalError);
    EXPECT_GE(ThreadPool::hardwareThreads(), 1);
}

// --------------------------------------------------------------- cache

std::vector<isa::InstructionInstance>
randomGenome(const isa::InstructionLibrary& lib, int size,
             std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<isa::InstructionInstance> code;
    for (int i = 0; i < size; ++i)
        code.push_back(lib.randomInstance(rng));
    return code;
}

TEST(FitnessCache, GenomeHashIsContentKeyed)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const auto a = randomGenome(lib, 20, 1);
    const auto b = randomGenome(lib, 20, 2);
    auto a_copy = a;
    EXPECT_EQ(core::genomeHash(a), core::genomeHash(a_copy));
    EXPECT_NE(core::genomeHash(a), core::genomeHash(b));

    // A one-operand tweak must change the hash.
    auto mutated = a;
    mutated[3].operandChoice[0] ^= 1u;
    EXPECT_NE(core::genomeHash(a), core::genomeHash(mutated));
}

TEST(FitnessCache, ReturnsWhatWasInserted)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    FitnessCache cache(8);
    const auto code = randomGenome(lib, 10, 3);
    EXPECT_EQ(cache.lookup(code), nullptr);
    cache.insert(code, {{1.5, 2.5}, 1.5});

    const FitnessCache::Entry* entry = cache.lookup(code);
    ASSERT_NE(entry, nullptr);
    EXPECT_DOUBLE_EQ(entry->fitness, 1.5);
    EXPECT_EQ(entry->measurements, (std::vector<double>{1.5, 2.5}));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(FitnessCache, EvictsLeastRecentlyUsed)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    FitnessCache cache(2);
    const auto a = randomGenome(lib, 10, 10);
    const auto b = randomGenome(lib, 10, 11);
    const auto c = randomGenome(lib, 10, 12);
    cache.insert(a, {{}, 1.0});
    cache.insert(b, {{}, 2.0});
    ASSERT_NE(cache.lookup(a), nullptr); // a is now MRU
    cache.insert(c, {{}, 3.0});          // evicts b
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_NE(cache.lookup(a), nullptr);
    EXPECT_EQ(cache.lookup(b), nullptr);
    EXPECT_NE(cache.lookup(c), nullptr);
}

TEST(FitnessCache, RejectsZeroCapacity)
{
    EXPECT_THROW(FitnessCache(0), FatalError);
}

// ---------------------------------------------- cloneable measurements

/**
 * Deterministic, cloneable measurement whose call counter is shared
 * across clones, so tests can count how many measurements actually ran
 * regardless of which worker ran them.
 */
class CountingMeasurement : public measure::Measurement
{
  public:
    explicit CountingMeasurement(
        std::shared_ptr<std::atomic<int>> calls =
            std::make_shared<std::atomic<int>>(0))
        : _calls(std::move(calls))
    {}

    measure::MeasurementResult
    measure(const std::vector<isa::InstructionInstance>& code) override
    {
        _calls->fetch_add(1);
        double value = 0.0;
        for (const isa::InstructionInstance& inst : code)
            value += static_cast<double>(inst.defIndex) + 1.0;
        return {{value}};
    }

    std::vector<std::string> valueNames() const override
    {
        return {"value"};
    }

    std::string name() const override { return "CountingMeasurement"; }

    std::unique_ptr<Measurement> clone() const override
    {
        return std::make_unique<CountingMeasurement>(_calls);
    }

    int calls() const { return _calls->load(); }

  private:
    std::shared_ptr<std::atomic<int>> _calls;
};

/** A measurement that keeps the default (nullptr) clone(). */
class UncloneableMeasurement : public measure::Measurement
{
  public:
    measure::MeasurementResult
    measure(const std::vector<isa::InstructionInstance>&) override
    {
        return {{1.0}};
    }
    std::vector<std::string> valueNames() const override
    {
        return {"one"};
    }
    std::string name() const override
    {
        return "UncloneableMeasurement";
    }
};

TEST(MeasurementClone, SimClassesRoundTripConfiguration)
{
    const xml::Document doc =
        xml::parse("<config min_cycles=\"512\"/>");

    struct Case
    {
        std::unique_ptr<measure::Measurement> original;
        std::shared_ptr<const platform::Platform> plat;
    };
    std::vector<Case> cases;
    {
        const auto a15 = platform::cortexA15Platform();
        cases.push_back({std::make_unique<measure::SimPowerMeasurement>(
                             a15->library(), a15),
                         a15});
        cases.push_back({std::make_unique<measure::SimIpcMeasurement>(
                             a15->library(), a15),
                         a15});
        const auto athlon = platform::athlonX4Platform();
        cases.push_back(
            {std::make_unique<measure::SimVoltageNoiseMeasurement>(
                 athlon->library(), athlon),
             athlon});
        const auto llc = platform::xgene2LlcPlatform();
        cases.push_back(
            {std::make_unique<measure::SimCacheMissMeasurement>(
                 llc->library(), llc),
             llc});
    }

    for (Case& c : cases) {
        c.original->init(&doc.root());
        const std::unique_ptr<measure::Measurement> copy =
            c.original->clone();
        ASSERT_NE(copy, nullptr) << c.original->name();
        EXPECT_EQ(copy->name(), c.original->name());
        EXPECT_EQ(copy->valueNames(), c.original->valueNames());

        const auto code = randomGenome(c.plat->library(), 20, 99);
        EXPECT_EQ(copy->measure(code).values,
                  c.original->measure(code).values)
            << c.original->name();
    }
}

TEST(MeasurementClone, TemperatureKeepsTransientWindow)
{
    const auto a15 = platform::cortexA15Platform();
    measure::SimTemperatureMeasurement meas(a15->library(), a15);
    const xml::Document doc = xml::parse(
        "<config min_cycles=\"512\" transient_seconds=\"0.5\"/>");
    meas.init(&doc.root());

    const std::unique_ptr<measure::Measurement> copy = meas.clone();
    ASSERT_NE(copy, nullptr);
    const auto code = randomGenome(a15->library(), 20, 7);
    EXPECT_EQ(copy->measure(code).values, meas.measure(code).values);
}

TEST(MeasurementClone, NoisyKeepsSigmaAndDrawsIndependentStreams)
{
    const auto a15 = platform::cortexA15Platform();
    measure::NoisyMeasurement noisy(
        std::make_unique<measure::SimPowerMeasurement>(a15->library(),
                                                       a15),
        0.05, 42);

    const std::unique_ptr<measure::Measurement> c1 = noisy.clone();
    const std::unique_ptr<measure::Measurement> c2 = noisy.clone();
    ASSERT_NE(c1, nullptr);
    ASSERT_NE(c2, nullptr);
    EXPECT_EQ(c1->name(), noisy.name());
    EXPECT_DOUBLE_EQ(
        static_cast<measure::NoisyMeasurement*>(c1.get())
            ->relativeSigma(),
        0.05);

    // Distinct clones draw distinct noise streams.
    const auto code = randomGenome(a15->library(), 20, 13);
    EXPECT_NE(c1->measure(code).values, c2->measure(code).values);
}

TEST(MeasurementClone, NoisyWithUncloneableInnerReturnsNull)
{
    measure::NoisyMeasurement noisy(
        std::make_unique<UncloneableMeasurement>(), 0.1);
    EXPECT_EQ(noisy.clone(), nullptr);
}

TEST(MeasurementClone, NativePerfClonesRunnerAndOptions)
{
    const isa::InstructionLibrary lib = isa::x86LikeLibrary();
    native::NativePerfMeasurement meas(lib);
    const std::unique_ptr<measure::Measurement> copy = meas.clone();
    ASSERT_NE(copy, nullptr);
    EXPECT_EQ(copy->name(), meas.name());
    EXPECT_EQ(copy->valueNames(), meas.valueNames());
}

// -------------------------------------------------------------- engine

GaParams
smallParams(std::uint64_t seed, int population = 10, int generations = 4)
{
    GaParams params;
    params.populationSize = population;
    params.individualSize = 12;
    params.mutationRate = 0.08;
    params.generations = generations;
    params.tournamentSize = 3;
    params.seed = seed;
    return params;
}

void
expectSameHistory(const std::vector<core::GenerationRecord>& a,
                  const std::vector<core::GenerationRecord>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].generation, b[i].generation);
        EXPECT_EQ(a[i].bestFitness, b[i].bestFitness) << "gen " << i;
        EXPECT_EQ(a[i].averageFitness, b[i].averageFitness)
            << "gen " << i;
        EXPECT_EQ(a[i].bestId, b[i].bestId) << "gen " << i;
        EXPECT_EQ(a[i].bestUniqueInstructions,
                  b[i].bestUniqueInstructions);
        EXPECT_EQ(a[i].diversity, b[i].diversity) << "gen " << i;
    }
}

TEST(ParallelEngine, MatchesSerialHistoryAndBestGenomeAcrossSeeds)
{
    const auto a15 = platform::cortexA15Platform();
    const isa::InstructionLibrary& lib = a15->library();
    const xml::Document doc =
        xml::parse("<config min_cycles=\"256\"/>");
    fitness::DefaultFitness fit;

    for (std::uint64_t seed : {1ULL, 7ULL, 23ULL}) {
        measure::SimPowerMeasurement serial_meas(lib, a15);
        serial_meas.init(&doc.root());
        Engine serial(smallParams(seed), lib, serial_meas, fit);
        serial.run();

        GaParams par_params = smallParams(seed);
        par_params.threads = 4;
        measure::SimPowerMeasurement par_meas(lib, a15);
        par_meas.init(&doc.root());
        Engine parallel(par_params, lib, par_meas, fit);
        parallel.run();

        expectSameHistory(serial.history(), parallel.history());
        EXPECT_EQ(serial.bestEver().code, parallel.bestEver().code);
        EXPECT_EQ(serial.bestEver().id, parallel.bestEver().id);
        EXPECT_EQ(serial.evaluations(), parallel.evaluations());
    }
}

TEST(ParallelEngine, CacheDoesNotChangeResultsOfPureMeasurements)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    fitness::DefaultFitness fit;

    CountingMeasurement plain_meas;
    Engine plain(smallParams(5, 12, 6), lib, plain_meas, fit);
    plain.run();

    GaParams cached_params = smallParams(5, 12, 6);
    cached_params.fitnessCacheSize = 256;
    CountingMeasurement cached_meas;
    Engine cached(cached_params, lib, cached_meas, fit);
    cached.run();

    expectSameHistory(plain.history(), cached.history());
    EXPECT_EQ(plain.bestEver().code, cached.bestEver().code);
    // The cache can only reduce the number of measurements.
    EXPECT_LE(cached_meas.calls(), plain_meas.calls());
    EXPECT_EQ(cached.cacheMisses(),
              static_cast<std::uint64_t>(cached_meas.calls()));
}

TEST(ParallelEngine, CacheReturnsIdenticalFitnessForDuplicatedGenomes)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    fitness::DefaultFitness fit;

    GaParams params = smallParams(3, 6, 1);
    params.individualSize = 8;
    params.fitnessCacheSize = 64;

    // Seed population: three copies of A, two of B, one C.
    const auto a = randomGenome(lib, 8, 101);
    const auto b = randomGenome(lib, 8, 102);
    const auto c = randomGenome(lib, 8, 103);
    Population seed;
    int id = 1;
    for (const auto* genome : {&a, &a, &a, &b, &b, &c}) {
        Individual ind;
        ind.code = *genome;
        ind.id = static_cast<std::uint64_t>(id++);
        seed.individuals.push_back(std::move(ind));
    }

    CountingMeasurement meas;
    Engine engine(params, lib, meas, fit);
    engine.setSeedPopulation(std::move(seed));
    engine.initialize();

    EXPECT_EQ(meas.calls(), 3); // one per unique genome
    const auto& inds = engine.population().individuals;
    EXPECT_EQ(inds[0].fitness, inds[1].fitness);
    EXPECT_EQ(inds[0].fitness, inds[2].fitness);
    EXPECT_EQ(inds[0].measurements, inds[2].measurements);
    EXPECT_EQ(inds[3].fitness, inds[4].fitness);
    EXPECT_EQ(engine.history()[0].cacheHits, 3u);
    EXPECT_EQ(engine.history()[0].cacheMisses, 3u);
    EXPECT_EQ(engine.evaluations(), 3u);
}

TEST(ParallelEngine, ParallelWithCacheStillMatchesSerial)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    fitness::DefaultFitness fit;

    CountingMeasurement serial_meas;
    Engine serial(smallParams(11, 10, 5), lib, serial_meas, fit);
    serial.run();

    GaParams params = smallParams(11, 10, 5);
    params.threads = 3;
    params.fitnessCacheSize = 128;
    CountingMeasurement par_meas;
    Engine parallel(params, lib, par_meas, fit);
    parallel.run();

    expectSameHistory(serial.history(), parallel.history());
    EXPECT_EQ(serial.bestEver().code, parallel.bestEver().code);
}

TEST(ParallelEngine, RequiresCloneableMeasurement)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    fitness::DefaultFitness fit;
    UncloneableMeasurement meas;
    GaParams params = smallParams(1, 6, 2);
    params.threads = 2;
    Engine engine(params, lib, meas, fit);
    EXPECT_THROW(engine.initialize(), FatalError);
}

TEST(ParallelEngine, BestEverIsNotRecopiedOnFitnessTies)
{
    // Constant fitness: every individual ties, so _bestEver must keep
    // the generation-0 champion instead of re-copying every generation.
    class ConstantMeasurement : public measure::Measurement
    {
      public:
        measure::MeasurementResult
        measure(const std::vector<isa::InstructionInstance>&) override
        {
            return {{1.0}};
        }
        std::vector<std::string> valueNames() const override
        {
            return {"c"};
        }
        std::string name() const override { return "Constant"; }
    };

    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    fitness::DefaultFitness fit;
    ConstantMeasurement meas;
    GaParams params = smallParams(2, 8, 5);
    params.elitism = false; // new ids every generation
    Engine engine(params, lib, meas, fit);
    engine.run();
    EXPECT_EQ(engine.bestEver().id, engine.history()[0].bestId);
}

// -------------------------------------------------------------- config

TEST(ParallelConfig, ParsesThreadsAndCacheSize)
{
    const config::RunConfig cfg = config::parseConfig(R"(
<gest_configuration>
  <ga population_size="10" individual_size="10" threads="3"
      fitness_cache_size="128"/>
  <library name="arm"/>
</gest_configuration>
)");
    EXPECT_EQ(cfg.ga.threads, 3);
    EXPECT_EQ(cfg.ga.fitnessCacheSize, 128);
}

TEST(ParallelConfig, DefaultsAreSerialAndUncached)
{
    const config::RunConfig cfg = config::parseConfig(
        "<gest_configuration><library name=\"arm\"/>"
        "</gest_configuration>");
    EXPECT_EQ(cfg.ga.threads, 1);
    EXPECT_EQ(cfg.ga.fitnessCacheSize, 0);
}

TEST(ParallelConfig, RejectsBadThreadValues)
{
    const auto config_with = [](const std::string& ga_attrs) {
        return "<gest_configuration><ga " + ga_attrs +
               "/><library name=\"arm\"/></gest_configuration>";
    };
    EXPECT_THROW(config::parseConfig(config_with("threads=\"0\"")),
                 FatalError);
    EXPECT_THROW(config::parseConfig(config_with("threads=\"-4\"")),
                 FatalError);
    EXPECT_THROW(config::parseConfig(config_with("threads=\"many\"")),
                 FatalError);
    EXPECT_THROW(
        config::parseConfig(config_with("fitness_cache_size=\"-1\"")),
        FatalError);
    EXPECT_THROW(
        config::parseConfig(config_with("fitness_cache_size=\"big\"")),
        FatalError);
}

// --------------------------------------------------------------- stats

TEST(ParallelStats, WorkerBusyCountersSumToEvaluationTime)
{
    // Each worker's busy time is the sum of its measurements' eval_us
    // samples, published per batch truncated to whole microseconds.
    const config::RunConfig cfg = config::parseConfig(R"(
<gest_configuration>
  <ga population_size="8" individual_size="8" generations="4" seed="3"
      threads="2"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a15" min_cycles="256"/>
  </measurement>
  <fitness class="DefaultFitness"/>
</gest_configuration>
)");
    ASSERT_TRUE(cfg.recordStats);
    const config::RunResult result = config::runFromConfig(cfg);

    stats::StatsRegistry& reg = stats::StatsRegistry::instance();
    const stats::Histogram& eval = reg.histogram("engine.eval_us", "");
    double busy_us = 0.0;
    for (const stats::Counter* c : reg.counterList()) {
        if (startsWith(c->name(), "engine.worker.") &&
            endsWith(c->name(), ".busy_us"))
            busy_us += static_cast<double>(c->value());
    }
    const double batches = static_cast<double>(result.history.size());
    const double workers = static_cast<double>(cfg.ga.threads);
    EXPECT_GT(busy_us, 0.0);
    // The relative slack absorbs summation order, nothing more.
    EXPECT_LE(busy_us, eval.sum() * (1.0 + 1e-12));
    EXPECT_GE(busy_us, eval.sum() - workers * batches);

    const std::uint64_t evaluations =
        reg.counter("engine.evaluations").value();
    EXPECT_EQ(evaluations, eval.count());
    EXPECT_EQ(evaluations, result.evaluations);
}

} // namespace
} // namespace gest
