#include "traced.hh"

#include <chrono>
#include <fstream>

#include "arch/microop.hh"
#include "arch/simulator.hh"
#include "core/fitness_cache.hh"
#include "power/power_model.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace perfbench {

namespace {

std::int64_t
steadyNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * The evaluation a worker thread has open: measure() opens it and the
 * fitness call that Engine::measureOne makes next, on the same thread,
 * closes it.
 */
struct OpenEvaluation
{
    SpanBuffer* buffer = nullptr;
    std::int32_t span = -1;
    std::size_t counts = 0;
};

thread_local OpenEvaluation t_open;

} // namespace

const char*
spanName(SpanKind kind)
{
    switch (kind) {
    case SpanKind::CoreInitialize: return "core.initialize";
    case SpanKind::CoreStep: return "core.step";
    case SpanKind::PlatformEvaluate: return "platform.evaluate";
    case SpanKind::ArchDecode: return "arch.decode";
    case SpanKind::ArchSimulate: return "arch.simulate";
    case SpanKind::PowerAverage: return "power.average";
    case SpanKind::ThermalChipTemp: return "thermal.chip_temp";
    case SpanKind::PowerTrace: return "power.trace";
    case SpanKind::PowerChipCurrent: return "power.chip_current";
    case SpanKind::PdnSimulate: return "pdn.simulate";
    case SpanKind::FitnessScore: return "fitness.score";
    }
    return "unknown";
}

SpanRecorder::SpanRecorder() : _origin(steadyNs()) {}

void
SpanRecorder::beginStep(int step)
{
    _step.store(step, std::memory_order_relaxed);
    open(_steps,
         step == 0 ? SpanKind::CoreInitialize : SpanKind::CoreStep, -1);
    _steps.spans.back().step = step;
}

void
SpanRecorder::endStep()
{
    close(_steps, static_cast<std::int32_t>(_steps.spans.size()) - 1);
}

SpanBuffer&
SpanRecorder::newBuffer()
{
    std::lock_guard<std::mutex> lock(_mutex);
    _buffers.push_back(std::make_unique<SpanBuffer>());
    _buffers.back()->thread = static_cast<int>(_buffers.size());
    return *_buffers.back();
}

std::int64_t
SpanRecorder::now() const
{
    return steadyNs() - _origin;
}

std::int32_t
SpanRecorder::open(SpanBuffer& buffer, SpanKind kind,
                   std::int32_t parent) const
{
    Span span;
    span.kind = kind;
    span.parent = parent;
    span.startNs = now();
    buffer.spans.push_back(span);
    return static_cast<std::int32_t>(buffer.spans.size()) - 1;
}

void
SpanRecorder::write(const std::string& spans_csv,
                    const std::string& evals_csv) const
{
    std::lock_guard<std::mutex> lock(_mutex);

    // Global span ids: buffers laid out one after another, the step
    // spans first, so step k's span is id k.
    std::vector<const SpanBuffer*> all{&_steps};
    for (const auto& buffer : _buffers)
        all.push_back(buffer.get());
    std::vector<std::size_t> base;
    std::size_t next = 0;
    for (const SpanBuffer* buffer : all) {
        base.push_back(next);
        next += buffer->spans.size();
    }

    std::ofstream spans(spans_csv);
    spans << "span,parent,thread,name,individual,start_ns,end_ns\n";
    for (std::size_t b = 0; b < all.size(); ++b) {
        const SpanBuffer& buffer = *all[b];
        for (std::size_t i = 0; i < buffer.spans.size(); ++i) {
            const Span& span = buffer.spans[i];
            long long parent = -1;
            if (span.parent >= 0)
                parent = static_cast<long long>(base[b]) + span.parent;
            else if (span.kind == SpanKind::PlatformEvaluate)
                parent = span.step;
            spans << base[b] + i << ',' << parent << ',' << buffer.thread
                  << ',' << spanName(span.kind) << ','
                  << span.individual << ',' << span.startNs << ','
                  << span.endNs << '\n';
        }
    }
    if (!spans)
        gest::fatal("cannot write ", spans_csv);

    std::ofstream evals(evals_csv);
    evals << "individual,thread,cycles,simulated_cycles,instructions,"
             "l1_accesses,l1_misses,l2_accesses,l2_misses,pdn_cycles,"
             "genome_hash\n";
    for (const auto& buffer : _buffers) {
        for (const EvalCounts& c : buffer->evals)
            evals << c.individual << ',' << buffer->thread << ','
                  << c.cycles << ',' << c.simulatedCycles << ','
                  << c.instructions << ',' << c.l1Accesses << ','
                  << c.l1Misses << ',' << c.l2Accesses << ','
                  << c.l2Misses << ',' << c.pdnCycles << ','
                  << c.genomeHash << '\n';
    }
    if (!evals)
        gest::fatal("cannot write ", evals_csv);
}

TracedMeasurement::TracedMeasurement(const gest::config::RunConfig& cfg,
                                     SpanRecorder& recorder)
    : _lib(cfg.library), _recorder(recorder),
      _buffer(recorder.newBuffer())
{
    // Class defaults as in measure/sim_measurements.cc; the replay's
    // trajectory check catches any drift from the real classes.
    if (cfg.measurementClass == "SimPowerMeasurement") {
        _kind = Kind::Power;
        _minCycles = 4096;
    } else if (cfg.measurementClass == "SimVoltageNoiseMeasurement") {
        _kind = Kind::VoltageNoise;
        _minCycles = 8192;
    } else if (cfg.measurementClass == "SimCacheMissMeasurement") {
        _kind = Kind::CacheMiss;
        _minCycles = 16384;
    } else {
        gest::fatal("the traced replay does not cover measurement class '",
                    cfg.measurementClass, "'");
    }
    const gest::xml::Element* mc = cfg.measurementConfig;
    if (!mc || !mc->hasAttr("platform"))
        gest::fatal("the traced replay needs a platform attribute");
    _platform = gest::platform::Platform::byName(mc->attr("platform"));
    if (mc->hasAttr("min_cycles"))
        _minCycles = static_cast<std::uint64_t>(
            gest::parseInt(mc->attr("min_cycles"), "min_cycles"));
    if (mc->hasAttr("steady_state"))
        _scratch.steadyState = mc->attr("steady_state") != "off";
    if (cfg.steadyStateOverride)
        _scratch.steadyState = *cfg.steadyStateOverride;
    if (_kind == Kind::VoltageNoise && !_platform->pdnModel())
        gest::fatal("platform '", _platform->name(), "' has no PDN model");
}

TracedMeasurement::TracedMeasurement(const TracedMeasurement& other)
    : gest::measure::Measurement(other), _lib(other._lib),
      _recorder(other._recorder), _buffer(other._recorder.newBuffer()),
      _kind(other._kind), _platform(other._platform),
      _minCycles(other._minCycles), _scratch(other._scratch)
{}

std::unique_ptr<gest::measure::Measurement>
TracedMeasurement::clone() const
{
    return std::unique_ptr<TracedMeasurement>(new TracedMeasurement(*this));
}

std::vector<std::string>
TracedMeasurement::valueNames() const
{
    switch (_kind) {
    case Kind::Power: return {"avg_chip_power_w", "core_power_w", "ipc"};
    case Kind::VoltageNoise:
        return {"peak_to_peak_v", "v_min", "avg_chip_power_w"};
    case Kind::CacheMiss:
        return {"dram_per_kinstr", "l1_miss_rate", "l2_miss_rate", "ipc",
                "avg_chip_power_w"};
    }
    return {};
}

gest::measure::MeasurementResult
TracedMeasurement::measure(
    const std::vector<gest::isa::InstructionInstance>& code)
{
    using namespace gest;
    const platform::Platform& plat = *_platform;
    const bool want_voltage = _kind == Kind::VoltageNoise;
    if (code.empty())
        fatal("cannot evaluate an empty individual");

    const std::int32_t root =
        _recorder.open(_buffer, SpanKind::PlatformEvaluate, -1);
    _buffer.spans.back().step = _recorder.step();

    // Platform::evaluateInto without a probe, one span per layer call.
    {
        arch::SimResult sim = std::move(_eval.sim);
        _eval = platform::Evaluation{};
        _eval.sim = std::move(sim);
    }
    platform::Evaluation& eval = _eval;

    std::int32_t span = _recorder.open(_buffer, SpanKind::ArchDecode, root);
    arch::decodeBodyInto(_lib, code, _scratch.body);
    _recorder.close(_buffer, span);

    span = _recorder.open(_buffer, SpanKind::ArchSimulate, root);
    arch::LoopSimulator sim(plat.cpu(), plat.initState());
    arch::RunOptions run_options;
    run_options.steadyState = _scratch.steadyState;
    sim.runForCyclesInto(_scratch.body, _minCycles, 2'000'000, run_options,
                         _scratch.sim, eval.sim);
    eval.ipc = eval.sim.ipc;
    _recorder.close(_buffer, span);

    const power::PowerModel power_model(plat.energy(), plat.cpu().freqGHz);
    const power::EnergyModel& em = plat.energy();
    const double vdd = plat.chip().vdd;

    span = _recorder.open(_buffer, SpanKind::PowerAverage, root);
    const double leak_ref = em.leakageWatts(em.leakageRefTempC, vdd);
    const double core_total_at_ref =
        power_model.averageWatts(eval.sim, vdd, em.leakageRefTempC);
    const double core_dynamic = core_total_at_ref - leak_ref;
    _recorder.close(_buffer, span);

    span = _recorder.open(_buffer, SpanKind::ThermalChipTemp, root);
    double chip_watts = 0.0;
    eval.dieTempC = plat.chipTempC(core_dynamic, &chip_watts);
    eval.chipPowerWatts = chip_watts;
    eval.corePowerWatts =
        core_dynamic + em.leakageWatts(eval.dieTempC, vdd);
    _recorder.close(_buffer, span);

    std::uint64_t pdn_cycles = 0;
    if (want_voltage) {
        span = _recorder.open(_buffer, SpanKind::PowerTrace, root);
        power_model.traceInto(eval.sim, vdd, eval.dieTempC, nullptr,
                              _scratch.power);
        _recorder.close(_buffer, span);

        span = _recorder.open(_buffer, SpanKind::PowerChipCurrent, root);
        plat.chipCurrentInto(_scratch.power, _scratch.amps);
        _recorder.close(_buffer, span);

        span = _recorder.open(_buffer, SpanKind::PdnSimulate, root);
        pdn_cycles =
            eval.sim.tiling.clippedVirtualCycles(arch::maxTraceCycles);
        const pdn::VoltageTrace volts = plat.pdnModel()->simulateTiled(
            _scratch.amps.data(), eval.sim.tiling,
            static_cast<std::size_t>(pdn_cycles), plat.cpu().freqGHz, 256);
        eval.vMin = volts.vMin;
        eval.vMax = volts.vMax;
        eval.peakToPeakV = volts.peakToPeak();
        eval.hasVoltage = true;
        _recorder.close(_buffer, span);
    }

    EvalCounts counts;
    counts.cycles = eval.sim.cycles;
    counts.simulatedCycles = eval.sim.simulatedCycles;
    counts.instructions = eval.sim.instructions;
    counts.l1Accesses = eval.sim.cacheAccesses;
    counts.l1Misses = eval.sim.cacheMisses;
    counts.l2Accesses = eval.sim.l2Accesses;
    counts.l2Misses = eval.sim.l2Misses;
    counts.pdnCycles = pdn_cycles;
    counts.genomeHash = core::genomeHash(code);
    _buffer.evals.push_back(counts);
    t_open = {&_buffer, root, _buffer.evals.size() - 1};

    switch (_kind) {
    case Kind::Power:
        return {{eval.chipPowerWatts, eval.corePowerWatts, eval.ipc}};
    case Kind::VoltageNoise:
        return {{eval.peakToPeakV, eval.vMin, eval.chipPowerWatts}};
    case Kind::CacheMiss:
        return {{eval.sim.dramPerKiloInstr(), 1.0 - eval.sim.l1HitRate(),
                 1.0 - eval.sim.l2HitRate(), eval.ipc,
                 eval.chipPowerWatts}};
    }
    return {};
}

double
TracedFitness::getFitness(const gest::core::Individual& ind,
                          const gest::isa::InstructionLibrary& lib) const
{
    OpenEvaluation open = t_open;
    if (!open.buffer)
        gest::fatal("fitness scored without an open evaluation");
    t_open = {};
    SpanBuffer& buffer = *open.buffer;
    const std::int32_t span =
        _recorder.open(buffer, SpanKind::FitnessScore, open.span);
    const double fitness = _inner.getFitness(ind, lib);
    _recorder.close(buffer, span);
    _recorder.close(buffer, open.span);

    // Key the evaluation's spans and counts by the individual's id.
    for (std::size_t i = static_cast<std::size_t>(open.span);
         i < buffer.spans.size(); ++i)
        buffer.spans[i].individual = ind.id;
    buffer.evals[open.counts].individual = ind.id;
    return fitness;
}

} // namespace perfbench
