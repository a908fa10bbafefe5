/**
 * @file
 * The GA engine: coordinates seeding, measurement, fitness evaluation
 * and breeding (§III.A, Figure 2).
 */

#ifndef GEST_CORE_ENGINE_HH
#define GEST_CORE_ENGINE_HH

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/fitness_cache.hh"
#include "core/ga_params.hh"
#include "core/operators.hh"
#include "core/population.hh"
#include "fitness/fitness.hh"
#include "measure/measurement.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"

namespace gest {

namespace output {
class TraceWriter;
} // namespace output

namespace core {

/** Per-generation summary appended to the engine's history. */
struct GenerationRecord
{
    int generation = 0;
    double bestFitness = 0.0;
    double averageFitness = 0.0;
    std::uint64_t bestId = 0;
    std::size_t bestUniqueInstructions = 0;
    std::array<int, isa::numInstrClasses> bestBreakdown{};

    /** Population genotype diversity (Population::genotypeDiversity). */
    double diversity = 0.0;

    /**
     * Evaluations satisfied without running the measurement this
     * generation: fitness-cache hits plus in-generation duplicate
     * genomes folded onto one measurement.
     */
    std::uint64_t cacheHits = 0;

    /** Measurements actually performed this generation. */
    std::uint64_t cacheMisses = 0;

    /**
     * Per-phase wall-clock milliseconds for this generation. All zero
     * unless stats recording (stats::setEnabled) or a trace writer is
     * active when the generation runs — timing the phases costs clock
     * reads the untimed hot path must not pay.
     */
    double selectionMs = 0.0;   ///< parent selection inside breed()
    double crossoverMs = 0.0;   ///< crossover inside breed()
    double mutationMs = 0.0;    ///< mutation inside breed()
    double evaluationMs = 0.0;  ///< cache resolution + measurements
};

/** How an individual came to exist. */
enum class BirthOp
{
    Seed,      ///< random generation-0 individual
    Resumed,   ///< loaded from a seed population / checkpoint
    Crossover, ///< bred and left unmutated
    Mutation,  ///< bred and mutated (parents are the crossover pair)
    EliteCopy, ///< the elite carried unchanged into the next generation
};

/** One individual entering a generation, in population order. */
struct Birth
{
    BirthOp op = BirthOp::Seed;
    std::uint64_t id = 0;
    std::uint64_t parent1 = 0; ///< 0 = none
    std::uint64_t parent2 = 0; ///< 0 = none

    /** Gene indices rewritten by mutation (empty for other ops). */
    std::vector<std::uint32_t> mutatedGenes;
};

/** What the engine hands its callback after evaluating a generation. */
struct GenerationView
{
    const Population& population;
    const GenerationRecord& record;

    /** The generation's births, in the order they were created. */
    const std::vector<Birth>& births;
};

/**
 * Drives one GA search. The engine owns the population and the RNG; the
 * caller owns the library, measurement and fitness objects, which must
 * outlive the engine.
 */
class Engine
{
  public:
    /**
     * Callback invoked on the coordinator thread after each generation
     * is evaluated. It receives const views only and never the RNG, so
     * it cannot perturb the search.
     */
    using GenerationCallback = std::function<void(const GenerationView&)>;

    Engine(GaParams params, const isa::InstructionLibrary& lib,
           measure::Measurement& measurement, fitness::Fitness& fitness);

    /**
     * Install a seed population used as generation 0 instead of random
     * individuals (§III.D: saved populations can seed a new search).
     * Must be called before initialize()/run().
     */
    void setSeedPopulation(Population seed);

    /**
     * Install the per-generation callback (the run driver's pipeline,
     * progress logs, output files). While one is installed the engine
     * also tracks every birth — seeds, crossover/mutation children
     * with their mutated gene indices, elite copies — and hands them
     * over in the view.
     */
    void setGenerationCallback(GenerationCallback callback);

    /**
     * Attach a Chrome-trace writer (may be null to detach). The engine
     * emits one complete event per generation phase on tid 0 and one
     * per measurement on the worker's tid (worker id + 1); attaching a
     * writer also turns on per-phase timing even when stats are
     * globally disabled. The writer must outlive the engine.
     */
    void setTraceWriter(output::TraceWriter* trace);

    /** Create and evaluate generation 0. */
    void initialize();

    /**
     * Breed and evaluate the next generation.
     * @return false once params.generations have been evaluated.
     */
    bool step();

    /** initialize() + step() until done; @return the final population. */
    const Population& run();

    /** The current population. */
    const Population& population() const { return _population; }

    /** The fittest individual seen across all generations. */
    const Individual& bestEver() const;

    /** Per-generation records. */
    const std::vector<GenerationRecord>& history() const
    {
        return _history;
    }

    /** Total measure() invocations so far. */
    std::uint64_t evaluations() const { return _evaluations; }

    /** Lifetime evaluations satisfied by the fitness cache. */
    std::uint64_t cacheHits() const { return _cacheHits; }

    /** Lifetime evaluations that had to run the measurement. */
    std::uint64_t cacheMisses() const { return _cacheMisses; }

    /** The engine's parameters. */
    const GaParams& params() const { return _params; }

    /** Mutable RNG access (tests). */
    Rng& rng() { return _rng; }

  private:
    /** Generate one random individual of the configured size. */
    Individual randomIndividual();

    /** @return true once the stagnation early-stop triggers. */
    bool stagnated() const;

    /** Measure and score one individual with @p measurement. */
    void measureOne(Individual& ind,
                    measure::Measurement& measurement) const;

    /**
     * @return true when the engine should read clocks: stats recording
     * is on or a trace writer is attached.
     */
    bool timed() const;

    /** measureOne plus timing/trace bookkeeping for worker @p worker. */
    void measureOneTimed(Individual& ind,
                         measure::Measurement& measurement, int worker);

    /**
     * Measure the individuals at @p indices, serially or fanned out
     * across the worker pool. Results are written back by index, so
     * the outcome is independent of scheduling order for measurements
     * that are pure functions of the code.
     */
    void measureBatch(const std::vector<std::size_t>& indices);

    /** Lazily start the worker pool and per-worker measurement clones. */
    void ensureWorkers();

    /** Evaluate every individual and append the generation record. */
    void evaluatePopulation();

    /** Build the next generation from the current one. */
    Population breed();

    GaParams _params;
    const isa::InstructionLibrary& _lib;
    measure::Measurement& _measurement;
    fitness::Fitness& _fitness;
    Rng _rng;

    Population _population;
    std::optional<Population> _seed;
    std::optional<Individual> _bestEver;
    std::vector<GenerationRecord> _history;
    GenerationCallback _callback;

    /** Births of the generation being built (tracked with a callback). */
    std::vector<Birth> _births;
    std::uint64_t _nextId = 1;
    std::uint64_t _evaluations = 0;
    bool _initialized = false;

    /** Worker pool, started on the first parallel evaluation. */
    std::unique_ptr<util::ThreadPool> _pool;

    /** One private measurement clone per worker. */
    std::vector<std::unique_ptr<measure::Measurement>> _workerMeasurements;

    /** Genome-keyed fitness cache (null when disabled). */
    std::unique_ptr<FitnessCache> _cache;
    std::uint64_t _cacheHits = 0;
    std::uint64_t _cacheMisses = 0;

    /** Chrome-trace sink (null when tracing is off). */
    output::TraceWriter* _trace = nullptr;

    /** Phase timings accumulated by breed(), consumed by the record. */
    struct BreedTiming
    {
        double selectionUs = 0.0;
        double crossoverUs = 0.0;
        double mutationUs = 0.0;
    };
    BreedTiming _breedTiming;

    /**
     * Per-worker busy microseconds within the current generation. Each
     * slot is written only by the worker owning that id (disjoint
     * writes, no atomics needed); the coordinator reads after the
     * parallelFor barrier.
     */
    std::vector<double> _workerBusyUs;
};

} // namespace core
} // namespace gest

#endif // GEST_CORE_ENGINE_HH
