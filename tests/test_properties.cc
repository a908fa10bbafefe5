/**
 * @file
 * Property-based sweeps (parameterized GTest) over the simulator, the
 * models and the GA engine: invariants that must hold for any random
 * input, any platform and any seed.
 */

#include <gtest/gtest.h>

#include "config/config.hh"
#include "core/engine.hh"
#include "measure/sim_measurements.hh"
#include "pdn/pdn_model.hh"
#include "platform/platform.hh"
#include "power/power_model.hh"
#include "util/random.hh"
#include "xml/xml.hh"

namespace gest {
namespace {

std::vector<isa::InstructionInstance>
randomBody(const isa::InstructionLibrary& lib, int size,
           std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<isa::InstructionInstance> code;
    for (int i = 0; i < size; ++i)
        code.push_back(lib.randomInstance(rng));
    return code;
}

// --------------------------------------------------- simulator sweeps

class SimInvariantTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{};

TEST_P(SimInvariantTest, RandomBodiesObeyCoreInvariants)
{
    const auto& [platform_name, seed] = GetParam();
    const auto plat = platform::Platform::byName(platform_name);
    const isa::InstructionLibrary& lib = plat->library();
    const auto code =
        randomBody(lib, 30, static_cast<std::uint64_t>(seed));

    arch::LoopSimulator sim(plat->cpu(), plat->initState());
    const arch::SimResult result =
        sim.run(arch::decodeBody(lib, code), 60, 4);

    // IPC bounded by machine width.
    EXPECT_GT(result.ipc, 0.0);
    EXPECT_LE(result.ipc, plat->cpu().issueWidth + 1e-9);
    EXPECT_LE(result.ipc, plat->cpu().fetchWidth + 1e-9);

    // Counter consistency.
    std::uint64_t issued = 0;
    for (const arch::CycleStats& stats : result.trace)
        issued += static_cast<std::uint64_t>(stats.totalIssued());
    EXPECT_EQ(issued, result.instructions);
    EXPECT_LE(result.cacheMisses, result.cacheAccesses);
    EXPECT_LE(result.l2Misses, result.l2Accesses);
    EXPECT_LE(result.l2Accesses, result.cacheMisses);

    // Per-cycle issue never exceeds the configured width.
    for (const arch::CycleStats& stats : result.trace)
        EXPECT_LE(stats.totalIssued(), plat->cpu().issueWidth);
}

INSTANTIATE_TEST_SUITE_P(
    AllPlatforms, SimInvariantTest,
    ::testing::Combine(::testing::Values("cortex-a15", "cortex-a7",
                                         "xgene2", "athlon-x4",
                                         "xgene2-llc"),
                       ::testing::Values(1, 2, 3, 4)));

class IssueWidthTest : public ::testing::TestWithParam<int>
{};

TEST_P(IssueWidthTest, WiderIssueHelpsOverall)
{
    // Greedy oldest-first issue is a list scheduler, and list
    // schedulers have Graham-style anomalies: one extra issue slot can
    // occasionally slow a specific trace slightly. The property that
    // must hold is the coarse one: within a couple percent per step,
    // and strictly better from width 1 to width 4.
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const auto body = arch::decodeBody(
        lib, randomBody(lib, 24, static_cast<std::uint64_t>(GetParam())));

    auto ipc_at = [&](int width) {
        arch::CpuConfig cfg = arch::cortexA15Config();
        cfg.issueWidth = width;
        return arch::LoopSimulator(cfg, arch::InitState{})
            .run(body, 100, 4)
            .ipc;
    };

    double last = ipc_at(1);
    for (int width = 2; width <= 4; ++width) {
        const double ipc = ipc_at(width);
        EXPECT_GE(ipc, last * 0.97) << "width " << width;
        last = ipc;
    }

    // For an ILP-rich body (independent adds), widening must strictly
    // help: here the scheduler has no anomaly to hide behind.
    std::vector<isa::InstructionInstance> parallel_code;
    for (int i = 0; i < 12; ++i)
        parallel_code.push_back(lib.makeInstance(
            "ADD", {"x" + std::to_string(4 + i % 3), "x7", "x8"}));
    const auto parallel = arch::decodeBody(lib, parallel_code);
    auto parallel_ipc_at = [&](int width) {
        arch::CpuConfig cfg = arch::cortexA15Config();
        cfg.issueWidth = width;
        cfg.fetchWidth = 4;
        return arch::LoopSimulator(cfg, arch::InitState{})
            .run(parallel, 100, 4)
            .ipc;
    };
    EXPECT_GT(parallel_ipc_at(2), parallel_ipc_at(1) * 1.3);
}

INSTANTIATE_TEST_SUITE_P(Bodies, IssueWidthTest,
                         ::testing::Values(7, 8, 9, 10));

// ------------------------------------------------------- model sweeps

class PowerMonotoneTest : public ::testing::TestWithParam<int>
{};

TEST_P(PowerMonotoneTest, PowerTraceIsPositiveAndBracketed)
{
    const auto plat = platform::cortexA15Platform();
    const isa::InstructionLibrary& lib = plat->library();
    const auto code =
        randomBody(lib, 25, static_cast<std::uint64_t>(GetParam()));

    arch::LoopSimulator sim(plat->cpu(), plat->initState());
    const arch::SimResult result =
        sim.run(arch::decodeBody(lib, code), 80, 4);
    const power::PowerModel model(plat->energy(), plat->cpu().freqGHz);
    const power::PowerTrace trace = model.trace(result, 1.05, 50.0);

    EXPECT_GT(trace.minWatts, 0.0);
    for (double w : trace.watts) {
        EXPECT_GE(w, trace.minWatts - 1e-12);
        EXPECT_LE(w, trace.peakWatts + 1e-12);
    }
    // Higher temperature -> more leakage -> more total power.
    EXPECT_GT(model.averageWatts(result, 1.05, 90.0),
              model.averageWatts(result, 1.05, 30.0));
    // Higher voltage -> more power.
    EXPECT_GT(model.averageWatts(result, 1.15, 50.0),
              model.averageWatts(result, 0.95, 50.0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PowerMonotoneTest,
                         ::testing::Values(10, 11, 12, 13, 14));

class PdnLinearityTest : public ::testing::TestWithParam<int>
{};

TEST_P(PdnLinearityTest, SupplyShiftTranslatesTrace)
{
    // For any current trace, shifting the supply shifts the whole
    // voltage trace without changing the noise (linearity).
    const pdn::PdnModel model(pdn::athlonPdn());
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    std::vector<double> amps(4096);
    for (double& a : amps)
        a = 10.0 + 30.0 * rng.nextDouble();

    const pdn::VoltageTrace hi = model.simulateAt(amps, 3.1, 1.35);
    const pdn::VoltageTrace lo = model.simulateAt(amps, 3.1, 1.25);
    EXPECT_NEAR(hi.peakToPeak(), lo.peakToPeak(), 1e-6);
    EXPECT_NEAR(hi.vMin - lo.vMin, 0.1, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PdnLinearityTest,
                         ::testing::Values(20, 21, 22));

// ---------------------------------------------------------- GA sweeps

class EngineValidityTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(EngineValidityTest, EveryGenerationHoldsOnlyValidGenomes)
{
    const auto plat = platform::cortexA7Platform();
    const isa::InstructionLibrary& lib = plat->library();
    measure::SimPowerMeasurement meas(lib, plat);
    fitness::DefaultFitness fit;

    core::GaParams params;
    params.populationSize = 12;
    params.individualSize = 10;
    params.mutationRate = 0.15;
    params.generations = 6;
    params.seed = GetParam();

    core::Engine engine(params, lib, meas, fit);
    int generations_seen = 0;
    engine.setGenerationCallback(
        [&](const core::GenerationView& view) {
            const core::Population& pop = view.population;
            ++generations_seen;
            EXPECT_EQ(pop.individuals.size(), 12u);
            for (const core::Individual& ind : pop.individuals) {
                EXPECT_EQ(ind.code.size(), 10u);
                EXPECT_TRUE(ind.evaluated);
                for (const isa::InstructionInstance& inst : ind.code)
                    EXPECT_TRUE(lib.valid(inst));
            }
        });
    engine.run();
    EXPECT_EQ(generations_seen, 6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineValidityTest,
                         ::testing::Values(101, 102, 103, 104, 105));

class SerializationFuzzTest : public ::testing::TestWithParam<int>
{};

TEST_P(SerializationFuzzTest, RandomPopulationsRoundTrip)
{
    const isa::InstructionLibrary lib = isa::x86LikeLibrary();
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
    core::Population pop;
    pop.generation = GetParam();
    const int n = 1 + static_cast<int>(rng.nextBelow(6));
    for (int i = 0; i < n; ++i) {
        core::Individual ind;
        ind.id = rng.next() % 100000;
        ind.fitness = rng.nextDouble() * 100.0 - 50.0;
        ind.evaluated = rng.nextBool(0.5);
        const int meas_count = static_cast<int>(rng.nextBelow(4));
        for (int m = 0; m < meas_count; ++m)
            ind.measurements.push_back(rng.nextDouble() * 10.0);
        const int genes = 1 + static_cast<int>(rng.nextBelow(20));
        for (int g = 0; g < genes; ++g)
            ind.code.push_back(lib.randomInstance(rng));
        pop.individuals.push_back(std::move(ind));
    }

    const core::Population again = core::deserializePopulation(
        lib, core::serializePopulation(lib, pop));
    ASSERT_EQ(again.individuals.size(), pop.individuals.size());
    for (std::size_t i = 0; i < pop.individuals.size(); ++i) {
        EXPECT_EQ(again.individuals[i].code, pop.individuals[i].code);
        EXPECT_EQ(again.individuals[i].measurements,
                  pop.individuals[i].measurements);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationFuzzTest,
                         ::testing::Range(1, 9));

// -------------------------------------------------------- parser fuzz

class XmlFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(XmlFuzzTest, MutatedDocumentsNeverCrashTheParser)
{
    // Crash-safety: byte-level mutations of a valid configuration must
    // either parse or throw FatalError — never corrupt memory or hang.
    const std::string valid = R"(
<gest_configuration>
  <ga population_size="50" individual_size="50" mutation_rate="0.02"/>
  <operands>
    <operand id="mem_result" values="x2 x3 x4" type="register"/>
    <operand id="imm" min="0" max="256" stride="8" type="immediate"/>
  </operands>
  <instructions>
    <instruction name="LDR" operand1="mem_result" operand2="imm"
        format="LDR op1, #op2" type="mem"/>
  </instructions>
</gest_configuration>
)";
    Rng rng(GetParam());
    for (int trial = 0; trial < 200; ++trial) {
        std::string mutated = valid;
        const int edits = 1 + static_cast<int>(rng.nextBelow(8));
        for (int e = 0; e < edits; ++e) {
            const std::size_t pos = rng.pickIndex(mutated.size());
            switch (rng.nextBelow(3)) {
              case 0: // flip to a random printable byte
                mutated[pos] = static_cast<char>(
                    32 + rng.nextBelow(95));
                break;
              case 1: // delete a byte
                mutated.erase(pos, 1);
                break;
              default: // duplicate a byte
                mutated.insert(pos, 1, mutated[pos]);
                break;
            }
            if (mutated.empty())
                mutated = "<x/>";
        }
        try {
            (void)xml::parse(mutated, "fuzz");
        } catch (const FatalError&) {
            // Rejecting is the expected outcome for most mutations.
        }
    }
    SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlFuzzTest,
                         ::testing::Values(1001, 1002, 1003, 1004));

class ConfigFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ConfigFuzzTest, MutatedConfigsNeverCrashTheLoader)
{
    // One level up: the full configuration loader on structurally valid
    // XML with randomized attribute values.
    Rng rng(GetParam());
    for (int trial = 0; trial < 60; ++trial) {
        auto num = [&] { return std::to_string(rng.nextRange(-5, 400)); };
        const std::string text =
            "<gest_configuration>"
            "<ga population_size=\"" + num() +
            "\" individual_size=\"" + num() +
            "\" mutation_rate=\"" +
            std::to_string(rng.nextDouble() * 3.0 - 1.0) +
            "\" tournament_size=\"" + num() +
            "\" generations=\"" + num() + "\"/>"
            "<operands><operand id=\"a\" type=\"register\" values=\"" +
            std::string(rng.nextBool(0.5) ? "x1 x2" : "bogus") +
            "\"/>"
            "<operand id=\"b\" type=\"immediate\" min=\"" + num() +
            "\" max=\"" + num() + "\" stride=\"" + num() + "\"/>"
            "</operands>"
            "<instructions><instruction name=\"I\" operand1=\"" +
            std::string(rng.nextBool(0.8) ? "a" : "missing") +
            "\" format=\"ADD op1\" type=\"int\"/></instructions>"
            "</gest_configuration>";
        try {
            (void)config::parseConfig(text);
        } catch (const FatalError&) {
            // Invalid combinations must be rejected, not crash.
        }
    }
    SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigFuzzTest,
                         ::testing::Values(2001, 2002, 2003));

} // namespace
} // namespace gest
