/**
 * @file
 * In-memory span tracing for the benchmark's replay of a GA search.
 *
 * The replay drives core::Engine with a TracedMeasurement: a measurement
 * owned by the benchmark that performs Platform::evaluateInto's no-probe
 * sequence through the public functions of the arch, power, thermal and
 * pdn modules, recording one span around each layer call. A
 * TracedFitness wraps the configured fitness and closes the individual's
 * evaluation span. Spans stay in memory (one buffer per evaluation
 * worker, so workers never contend) and are written when the run ends.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "config/config.hh"
#include "fitness/fitness.hh"
#include "measure/measurement.hh"
#include "platform/platform.hh"

namespace perfbench {

/** What a span covers; the prefix before '.' in its name is the layer. */
enum class SpanKind : std::uint8_t
{
    CoreInitialize,   ///< Engine::initialize (seed + generation 0)
    CoreStep,         ///< Engine::step (breed + evaluate one generation)
    PlatformEvaluate, ///< one individual: measure() through getFitness()
    ArchDecode,       ///< arch::decodeBodyInto
    ArchSimulate,     ///< arch::LoopSimulator::runForCyclesInto
    PowerAverage,     ///< power::PowerModel::averageWatts
    ThermalChipTemp,  ///< Platform::chipTempC leakage fixed point
    PowerTrace,       ///< power::PowerModel::traceInto
    PowerChipCurrent, ///< Platform::chipCurrentInto
    PdnSimulate,      ///< pdn::PdnModel::simulateTiled
    FitnessScore,     ///< fitness::Fitness::getFitness
};

/** Span name as written to spans.csv ("layer.operation"). */
const char* spanName(SpanKind kind);

/** One recorded span; times are ns since the recorder was created. */
struct Span
{
    SpanKind kind = SpanKind::CoreStep;
    std::int32_t parent = -1; ///< index in the same buffer, -1: none
    std::int32_t step = -1;   ///< engine step (caller span), -1: none
    std::uint64_t individual = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/** Exact simulated counts of one evaluation. */
struct EvalCounts
{
    std::uint64_t individual = 0;
    std::uint64_t cycles = 0;
    std::uint64_t simulatedCycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t pdnCycles = 0;
    std::uint64_t genomeHash = 0;
};

/** Spans and counts of one thread; only its owner appends. */
struct SpanBuffer
{
    int thread = 0;
    std::vector<Span> spans;
    std::vector<EvalCounts> evals;
};

/**
 * Owns every buffer and the clock origin of one traced replay. The
 * coordinator's buffer (thread 0) holds the engine step spans, one per
 * step in step order.
 */
class SpanRecorder
{
  public:
    SpanRecorder();
    SpanRecorder(const SpanRecorder&) = delete;
    SpanRecorder& operator=(const SpanRecorder&) = delete;

    /** A new buffer for one evaluation thread; the reference stays valid. */
    SpanBuffer& newBuffer();

    /**
     * Open engine step @p step's span (step 0 is Engine::initialize) on
     * the coordinator; evaluation spans opened until endStep() take it
     * as their caller. Called before the pool fans out, so workers see
     * the step through the pool's own synchronization.
     */
    void beginStep(int step);

    /** Close the span beginStep() opened. */
    void endStep();

    /** The engine step in progress. */
    int step() const { return _step.load(std::memory_order_relaxed); }

    /** Nanoseconds since construction (steady clock). */
    std::int64_t now() const;

    /** Open a span in @p buffer; returns its index there. */
    std::int32_t open(SpanBuffer& buffer, SpanKind kind,
                      std::int32_t parent) const;

    /** Close the span at @p index of @p buffer. */
    void
    close(SpanBuffer& buffer, std::int32_t index) const
    {
        buffer.spans[static_cast<std::size_t>(index)].endNs = now();
    }

    /**
     * Write spans.csv (span,parent,thread,name,individual,start_ns,
     * end_ns with globally numbered spans; an evaluation's parent is
     * its engine step span) and evals.csv (one row of exact counts
     * per evaluation).
     */
    void write(const std::string& spans_csv,
               const std::string& evals_csv) const;

  private:
    std::int64_t _origin = 0;
    std::atomic<int> _step{-1};
    SpanBuffer _steps;
    mutable std::mutex _mutex; ///< guards _buffers
    std::vector<std::unique_ptr<SpanBuffer>> _buffers;
};

/**
 * Replays the measurement classes the benchmark workloads use
 * (SimPowerMeasurement, SimVoltageNoiseMeasurement,
 * SimCacheMissMeasurement) layer by layer, with a span per layer call.
 * Each clone records into its own buffer.
 */
class TracedMeasurement : public gest::measure::Measurement
{
  public:
    /** fatal() for a measurement class the replica does not cover. */
    TracedMeasurement(const gest::config::RunConfig& cfg,
                      SpanRecorder& recorder);

    gest::measure::MeasurementResult measure(
        const std::vector<gest::isa::InstructionInstance>& code) override;
    std::vector<std::string> valueNames() const override;
    std::string name() const override { return "TracedMeasurement"; }
    std::unique_ptr<gest::measure::Measurement> clone() const override;

  private:
    enum class Kind
    {
        Power,
        VoltageNoise,
        CacheMiss,
    };

    TracedMeasurement(const TracedMeasurement& other);

    const gest::isa::InstructionLibrary& _lib;
    SpanRecorder& _recorder;
    SpanBuffer& _buffer;
    Kind _kind = Kind::Power;
    std::shared_ptr<const gest::platform::Platform> _platform;
    std::uint64_t _minCycles = 4096;
    gest::platform::EvalScratch _scratch;
    gest::platform::Evaluation _eval;
};

/** Scores through the configured fitness and closes the evaluation. */
class TracedFitness : public gest::fitness::Fitness
{
  public:
    TracedFitness(const gest::fitness::Fitness& inner,
                  const SpanRecorder& recorder)
        : _inner(inner), _recorder(recorder)
    {}

    double getFitness(const gest::core::Individual& ind,
                      const gest::isa::InstructionLibrary& lib)
        const override;
    std::string name() const override { return _inner.name(); }

  private:
    const gest::fitness::Fitness& _inner;
    const SpanRecorder& _recorder;
};

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH
