/**
 * @file
 * Tests of the attribution subsystem: operand value-bins, the
 * class-neutral filler and its decode-invariance property, gene-by-gene
 * fitness attribution (determinism, bookkeeping invariants, artifact
 * formats) and the search-space coverage ledger (cell universe,
 * idempotent observation, the per-generation CSV and JSON renderings,
 * and the artifacts a run seals).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "arch/microop.hh"
#include "attribution/attribution.hh"
#include "attribution/attribution_io.hh"
#include "attribution/coverage.hh"
#include "config/config.hh"
#include "core/population.hh"
#include "fitness/fitness.hh"
#include "isa/standard_libs.hh"
#include "measure/measurement.hh"
#include "util/fileutil.hh"
#include "util/jsonlite.hh"
#include "util/random.hh"
#include "util/strutil.hh"
#include "xml/xml.hh"

namespace gest {
namespace {

/** The bundled libraries the filler property must hold over. */
std::vector<std::pair<const char*, isa::InstructionLibrary>>
bundledLibraries()
{
    std::vector<std::pair<const char*, isa::InstructionLibrary>> libs;
    libs.emplace_back("arm", isa::armLikeLibrary());
    libs.emplace_back("armv7", isa::armV7LikeLibrary());
    libs.emplace_back("x86", isa::x86LikeLibrary());
    libs.emplace_back("cache-stress", isa::armCacheStressLibrary());
    return libs;
}

/** Field-wise MicroOp equality (the struct has padding; no memcmp). */
bool
sameMicroOp(const arch::MicroOp& a, const arch::MicroOp& b)
{
    if (a.op != b.op || a.cls != b.cls || a.numSrc != b.numSrc ||
        a.numDst != b.numDst || a.imm != b.imm ||
        a.hasImm != b.hasImm || a.isLoad != b.isLoad ||
        a.isStore != b.isStore || a.isBranch != b.isBranch ||
        a.accessBytes != b.accessBytes)
        return false;
    for (int i = 0; i < 4; ++i) {
        if (a.src[i] != b.src[i])
            return false;
    }
    return a.dst[0] == b.dst[0] && a.dst[1] == b.dst[1];
}

/** A deterministic simulated measurement + fitness pair for tests. */
struct TestInstrument
{
    std::unique_ptr<measure::Measurement> measurement;
    std::unique_ptr<fitness::Fitness> fitness;
};

TestInstrument
makeInstrument(const isa::InstructionLibrary& lib)
{
    config::registerBuiltins();
    TestInstrument out;
    out.measurement = measure::MeasurementRegistry::instance().create(
        "SimIpcMeasurement", lib);
    const xml::Document doc =
        xml::parse("<config platform=\"xgene2\"/>", "test instrument");
    out.measurement->init(&doc.root());
    out.fitness =
        fitness::FitnessRegistry::instance().create("DefaultFitness");
    return out;
}

core::Individual
evaluatedIndividual(const isa::InstructionLibrary& lib,
                    TestInstrument& instrument, int genes,
                    std::uint64_t seed)
{
    core::Individual ind;
    ind.id = seed;
    Rng rng(seed);
    for (int g = 0; g < genes; ++g)
        ind.code.push_back(lib.randomInstance(rng));
    ind.measurements = instrument.measurement->measure(ind.code).values;
    ind.fitness = instrument.fitness->getFitness(ind, lib);
    ind.evaluated = true;
    return ind;
}

// ---------------------------------------------------------------------
// Operand value-bins.

TEST(OperandBins, RegistersGetOneBinEach)
{
    const isa::OperandDef def = isa::OperandDef::makeRegisters(
        "r", {"x0", "x1", "x2", "x3"});
    EXPECT_EQ(isa::operandBinCount(def), 4u);
    for (std::uint32_t c = 0; c < 4; ++c) {
        EXPECT_EQ(isa::operandBin(def, c), c);
        EXPECT_EQ(isa::operandBinLabel(def, c), def.registerName(c));
    }
}

TEST(OperandBins, WideImmediatesFoldIntoAtMostEightBins)
{
    // 33 values (0..256 stride 8) — the paper's Figure 4 example.
    const isa::OperandDef def =
        isa::OperandDef::makeImmediate("imm", 0, 256, 8);
    const std::size_t bins = isa::operandBinCount(def);
    EXPECT_EQ(bins, 8u);

    // Every choice maps to a valid bin, monotonically.
    std::size_t prev = 0;
    std::set<std::size_t> used;
    for (std::uint32_t c = 0; c < def.valueCount(); ++c) {
        const std::size_t b = isa::operandBin(def, c);
        ASSERT_LT(b, bins);
        EXPECT_GE(b, prev);
        prev = b;
        used.insert(b);
    }
    EXPECT_EQ(used.size(), bins);  // no empty bin

    // Labels describe disjoint, ordered, exhaustive value ranges.
    for (std::size_t b = 0; b < bins; ++b) {
        const std::string label = isa::operandBinLabel(def, b);
        EXPECT_FALSE(label.empty());
    }
}

TEST(OperandBins, NarrowImmediatesKeepOneBinPerValue)
{
    const isa::OperandDef def =
        isa::OperandDef::makeImmediate("imm", 0, 3, 1);
    EXPECT_EQ(isa::operandBinCount(def), 4u);
    for (std::uint32_t c = 0; c < 4; ++c) {
        EXPECT_EQ(isa::operandBin(def, c), c);
        EXPECT_EQ(isa::operandBinLabel(def, c),
                  std::to_string(def.immediateValue(c)));
    }
}

TEST(OperandBins, OutOfRangeChoiceClampsIntoLastBin)
{
    const isa::OperandDef def =
        isa::OperandDef::makeImmediate("imm", 0, 256, 8);
    EXPECT_EQ(isa::operandBin(def, 1000),
              isa::operandBinCount(def) - 1);
}

// ---------------------------------------------------------------------
// The class-neutral filler.

TEST(Filler, BundledLibrariesUseTheirNop)
{
    for (const auto& [name, lib] : bundledLibraries()) {
        for (int c = 0; c < isa::numInstrClasses; ++c) {
            const int def = attribution::fillerDefIndex(
                lib, static_cast<isa::InstrClass>(c));
            ASSERT_GE(def, 0) << name;
            EXPECT_EQ(lib.instruction(static_cast<std::size_t>(def)).cls,
                      isa::InstrClass::Nop)
                << name << " class " << c;
        }
    }
}

TEST(Filler, NopLessLibraryFallsBackToFewestOperandsSameClass)
{
    isa::InstructionLibrary lib;
    lib.addOperand(isa::OperandDef::makeRegisters(
        "ri", {"x0", "x1", "x2", "x3"}));
    lib.addInstruction("ADD3", {"ri", "ri", "ri"}, "ADD op1, op2, op3",
                       isa::InstrClass::ShortInt, isa::Opcode::Add);
    lib.addInstruction("MOV1", {"ri", "ri"}, "MOV op1, op2",
                       isa::InstrClass::ShortInt, isa::Opcode::Mov);
    const int def =
        attribution::fillerDefIndex(lib, isa::InstrClass::ShortInt);
    ASSERT_GE(def, 0);
    EXPECT_EQ(lib.instruction(static_cast<std::size_t>(def)).name,
              "MOV1");

    isa::InstructionInstance gene;
    gene.defIndex = 0;  // ADD3
    gene.operandChoice = {3, 2, 1};
    const isa::InstructionInstance filler =
        attribution::fillerFor(lib, gene);
    EXPECT_EQ(filler.defIndex, static_cast<std::uint32_t>(def));
    EXPECT_EQ(filler.operandChoice,
              (std::vector<std::uint32_t>{0, 0}));
    EXPECT_TRUE(lib.valid(filler));
}

TEST(Filler, EmptyLibraryHasNoFiller)
{
    const isa::InstructionLibrary lib;
    EXPECT_EQ(attribution::fillerDefIndex(lib, isa::InstrClass::Mem),
              -1);
}

// The property the whole ablation design rests on: substituting the
// filler for one gene never changes what any *other* gene decodes to
// (and keeps the body length, so loop tiling and alignment hold).
TEST(Filler, AblationLeavesOtherGenesDecodeInvariant)
{
    for (const auto& [name, lib] : bundledLibraries()) {
        Rng rng(0xab1a7e5u);
        for (int trial = 0; trial < 8; ++trial) {
            std::vector<isa::InstructionInstance> body;
            for (int g = 0; g < 12; ++g)
                body.push_back(lib.randomInstance(rng));
            const std::vector<arch::MicroOp> decoded =
                arch::decodeBody(lib, body);

            for (std::size_t i = 0; i < body.size(); ++i) {
                std::vector<isa::InstructionInstance> ablated = body;
                ablated[i] = attribution::fillerFor(lib, body[i]);
                ASSERT_TRUE(lib.valid(ablated[i])) << name;
                ASSERT_EQ(ablated.size(), body.size());

                const std::vector<arch::MicroOp> redecoded =
                    arch::decodeBody(lib, ablated);
                for (std::size_t j = 0; j < body.size(); ++j) {
                    if (j == i)
                        continue;
                    EXPECT_TRUE(
                        sameMicroOp(decoded[j], redecoded[j]))
                        << name << " trial " << trial << " ablate "
                        << i << " changed gene " << j;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// computeAttribution.

TEST(Attribution, DeterministicWithExactBookkeeping)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    TestInstrument instrument = makeInstrument(lib);
    const core::Individual ind =
        evaluatedIndividual(lib, instrument, 16, 42);

    const attribution::AttributionResult a =
        attribution::computeAttribution(lib, *instrument.measurement,
                                        *instrument.fitness, ind);
    const attribution::AttributionResult b =
        attribution::computeAttribution(lib, *instrument.measurement,
                                        *instrument.fitness, ind);

    EXPECT_EQ(a.individualId, ind.id);
    EXPECT_DOUBLE_EQ(a.baselineFitness, ind.fitness);
    ASSERT_EQ(a.genes.size(), ind.code.size());

    // Re-running on the same (deterministic simulated) measurement
    // reproduces every number exactly.
    EXPECT_EQ(a.evaluationsUsed, b.evaluationsUsed);
    EXPECT_DOUBLE_EQ(a.sumDelta, b.sumDelta);
    EXPECT_DOUBLE_EQ(a.wholeAblationDelta, b.wholeAblationDelta);
    for (std::size_t i = 0; i < a.genes.size(); ++i)
        EXPECT_DOUBLE_EQ(a.genes[i].deltaFitness,
                         b.genes[i].deltaFitness);

    // Bookkeeping: baseline + whole ablation + one eval per non-filler
    // gene (genes already equal to their filler ablate for free).
    std::uint64_t free_genes = 0;
    for (const isa::InstructionInstance& gene : ind.code) {
        if (attribution::fillerFor(lib, gene) == gene)
            ++free_genes;
    }
    EXPECT_EQ(a.evaluationsUsed, ind.code.size() + 2 - free_genes);

    double sum = 0.0;
    for (const attribution::GeneAttribution& g : a.genes) {
        EXPECT_DOUBLE_EQ(g.deltaFitness,
                         a.baselineFitness - g.fitnessWithout);
        sum += g.deltaFitness;
    }
    EXPECT_NEAR(a.sumDelta, sum, 1e-12);

    // Class aggregates cover every gene exactly once.
    int class_genes = 0;
    for (const attribution::ClassAttribution& c : a.classes) {
        EXPECT_GT(c.genes, 0);
        class_genes += c.genes;
    }
    EXPECT_EQ(class_genes, static_cast<int>(ind.code.size()));
    int bin_genes = 0;
    for (const attribution::OperandBinAttribution& ob : a.operandBins) {
        EXPECT_GT(ob.genes, 0);
        EXPECT_FALSE(ob.key.empty());
        bin_genes += ob.genes;
    }
    EXPECT_GE(bin_genes, 0);

    // topGenes: |Δ| descending, bounded by topK.
    EXPECT_LE(a.topGenes.size(), 5u);
    for (std::size_t i = 1; i < a.topGenes.size(); ++i) {
        EXPECT_GE(std::fabs(a.genes[a.topGenes[i - 1]].deltaFitness),
                  std::fabs(a.genes[a.topGenes[i]].deltaFitness));
    }
}

TEST(Attribution, AllNopChampionCostsOneEvaluation)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    TestInstrument instrument = makeInstrument(lib);

    const int nop = lib.findInstruction("NOP");
    ASSERT_GE(nop, 0);
    core::Individual ind;
    ind.id = 7;
    for (int g = 0; g < 6; ++g) {
        isa::InstructionInstance inst;
        inst.defIndex = static_cast<std::uint32_t>(nop);
        ind.code.push_back(inst);
    }
    ind.measurements = instrument.measurement->measure(ind.code).values;
    ind.fitness = instrument.fitness->getFitness(ind, lib);
    ind.evaluated = true;

    const attribution::AttributionResult result =
        attribution::computeAttribution(lib, *instrument.measurement,
                                        *instrument.fitness, ind);
    // Every gene is its own filler and the whole ablation equals the
    // baseline: only the baseline evaluation runs.
    EXPECT_EQ(result.evaluationsUsed, 1u);
    EXPECT_DOUBLE_EQ(result.sumDelta, 0.0);
    EXPECT_DOUBLE_EQ(result.wholeAblationDelta, 0.0);
}

TEST(Attribution, ArtifactsRoundTrip)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    TestInstrument instrument = makeInstrument(lib);
    const core::Individual ind =
        evaluatedIndividual(lib, instrument, 10, 99);

    attribution::AttributionResult result =
        attribution::computeAttribution(lib, *instrument.measurement,
                                        *instrument.fitness, ind);
    result.generation = 3;

    const std::string dir = makeTempDir("gest-attribution");
    const attribution::AttributionArtifacts artifacts =
        attribution::writeAttributionArtifacts(dir, "individual_99",
                                               result);

    const std::string csv = readFile(artifacts.csvPath);
    EXPECT_TRUE(startsWith(csv, "# gest-attribution v1\n"));
    EXPECT_NE(csv.find("# annotation individual_id 99\n"),
              std::string::npos);
    EXPECT_NE(csv.find("# annotation generation 3\n"),
              std::string::npos);
    EXPECT_NE(csv.find("gene,instruction,class,operands,delta_fitness,"
                       "fitness_without\n"),
              std::string::npos);
    // One data row per gene.
    std::size_t rows = 0;
    for (const std::string& line : split(csv, '\n')) {
        if (!line.empty() && line[0] != '#' &&
            line[0] >= '0' && line[0] <= '9')
            ++rows;
    }
    EXPECT_EQ(rows, ind.code.size());

    json::Value twin;
    std::string error;
    ASSERT_TRUE(
        json::parse(readFile(artifacts.jsonPath), twin, &error))
        << error;
    EXPECT_EQ(twin.numberOr("version", 0),
              attribution::attributionCsvVersion);
    EXPECT_EQ(twin.numberOr("individual_id", 0), 99.0);
    EXPECT_EQ(twin.numberOr("generation", -1), 3.0);
    EXPECT_DOUBLE_EQ(twin.numberOr("baseline_fitness", 0.0),
                     result.baselineFitness);
    const json::Value* genes = twin.find("genes");
    ASSERT_NE(genes, nullptr);
    EXPECT_EQ(genes->array.size(), ind.code.size());
    EXPECT_NE(twin.find("classes"), nullptr);
    EXPECT_NE(twin.find("operand_bins"), nullptr);
    EXPECT_NE(twin.find("top_genes"), nullptr);
    removeAll(dir);
}

// ---------------------------------------------------------------------
// The coverage ledger.

TEST(Coverage, CellUniverseMatchesTheLibrary)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const attribution::CoverageLedger ledger(lib);

    std::uint64_t expected = 0;
    for (std::size_t d = 0; d < lib.numInstructions(); ++d) {
        const isa::InstructionDef& def = lib.instruction(d);
        if (def.operandIndex.empty()) {
            ++expected;
            continue;
        }
        for (std::uint32_t op : def.operandIndex)
            expected += isa::operandBinCount(lib.operand(op));
    }
    EXPECT_EQ(ledger.cellsTotal(), expected);
    EXPECT_EQ(ledger.cellsSeen(), 0u);

    const attribution::CoverageLedger::Snapshot snapshot =
        ledger.snapshot();
    std::uint64_t class_total = 0;
    for (const auto& cls : snapshot.classes)
        class_total += cls.total;
    EXPECT_EQ(class_total, expected);
}

TEST(Coverage, ObserveIsIdempotent)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    attribution::CoverageLedger ledger(lib);

    Rng rng(3);
    std::vector<isa::InstructionInstance> code;
    for (int g = 0; g < 20; ++g)
        code.push_back(lib.randomInstance(rng));

    std::uint64_t touches = 0;
    const std::uint64_t fresh = ledger.observe(code, &touches);
    EXPECT_GT(fresh, 0u);
    EXPECT_GE(touches, fresh);
    EXPECT_EQ(ledger.cellsSeen(), fresh);

    // Re-observing the same code finds nothing new.
    std::uint64_t touches2 = 0;
    EXPECT_EQ(ledger.observe(code, &touches2), 0u);
    EXPECT_EQ(touches2, touches);
    EXPECT_EQ(ledger.cellsSeen(), fresh);
}

TEST(Coverage, GenerationTicksRenderAsCsvAndJson)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    attribution::CoverageLedger ledger(lib);

    Rng rng(11);
    core::Population pop;
    for (int i = 0; i < 4; ++i) {
        core::Individual ind;
        ind.id = static_cast<std::uint64_t>(i);
        for (int g = 0; g < 8; ++g)
            ind.code.push_back(lib.randomInstance(rng));
        ind.evaluated = true;
        pop.individuals.push_back(ind);
    }

    std::vector<attribution::CoverageLedger::Snapshot> seen;
    core::GenerationRecord record;
    record.generation = 0;
    seen.push_back(ledger.onGenerationEvaluated(pop, record));
    record.generation = 1;
    seen.push_back(ledger.onGenerationEvaluated(pop, record));

    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].generation, 0);
    EXPECT_GT(seen[0].newCells, 0u);
    EXPECT_EQ(seen[1].generation, 1);
    EXPECT_EQ(seen[1].newCells, 0u);  // same population again
    EXPECT_EQ(seen[1].cellsSeen, seen[0].cellsSeen);
    EXPECT_GT(seen[0].saturationPct, 0.0);
    EXPECT_LE(seen[0].saturationPct, 100.0);

    const std::string csv = attribution::coverageCsvHeader(ledger) +
                            attribution::formatCoverageCsvRow(seen[0]) +
                            attribution::formatCoverageCsvRow(seen[1]);
    EXPECT_TRUE(startsWith(csv, "# gest-coverage v1\n"));
    EXPECT_NE(csv.find("# cells_total "), std::string::npos);
    EXPECT_NE(
        csv.find("generation,cells_new,cells_seen,cells_total,"
                 "saturation_pct,novelty_rate,"),
        std::string::npos);
    EXPECT_NE(csv.find("\n0,"), std::string::npos);
    EXPECT_NE(csv.find("\n1,"), std::string::npos);

    const std::string js = attribution::formatCoverageJson(seen[1]);
    json::Value parsed;
    ASSERT_TRUE(json::parse(js, parsed, nullptr)) << js;
    EXPECT_EQ(parsed.numberOr("cells_total", 0),
              static_cast<double>(ledger.cellsTotal()));
    EXPECT_EQ(parsed.numberOr("generation", -1), 1.0);
    ASSERT_NE(parsed.find("classes"), nullptr);
    EXPECT_EQ(parsed.find("classes")->array.size(),
              static_cast<std::size_t>(isa::numInstrClasses));
}

// ---------------------------------------------------------------------
// End-to-end: a run directory always gets coverage.csv; attribution
// adds its artifacts, and the manifest seals both.

const char* kRunConfig = R"(
<gest_configuration>
  <ga population_size="8" individual_size="10" mutation_rate="0.1"
      generations="3" seed="23" fitness_cache_size="32"/>
  <library name="arm"/>
  <measurement class="SimIpcMeasurement">
    <config platform="xgene2"/>
  </measurement>
  <fitness class="DefaultFitness"/>
</gest_configuration>
)";

TEST(Coverage, RunSealsCoverageAndAttributionArtifacts)
{
    const std::string dir = makeTempDir("gest-attr-run");

    config::RunConfig cfg = config::parseConfig(kRunConfig);
    cfg.outputDirectory = dir;
    cfg.recordAttribution = true;
    const config::RunResult result = config::runFromConfig(cfg);

    EXPECT_EQ(result.coverageFile, dir + "/coverage.csv");
    EXPECT_TRUE(fileExists(result.coverageFile));
    ASSERT_FALSE(result.attributionFiles.empty());
    for (const std::string& path : result.attributionFiles)
        EXPECT_TRUE(fileExists(path)) << path;

    // One coverage row per generation after the header.
    std::size_t rows = 0;
    for (const std::string& line :
         split(readFile(result.coverageFile), '\n'))
        rows += !line.empty() && line[0] != '#' &&
                !startsWith(line, "generation");
    EXPECT_EQ(rows, 3u);

    // Coverage is no longer a setting, so the manifest records only
    // the attribution opt-in.
    const std::string manifest = readFile(dir + "/manifest.json");
    EXPECT_EQ(manifest.find("record_coverage"), std::string::npos);
    EXPECT_NE(manifest.find("\"record_attribution\": true"),
              std::string::npos);
    EXPECT_NE(manifest.find("\"kind\": \"coverage\""), std::string::npos);
    EXPECT_NE(manifest.find("\"kind\": \"attribution\""),
              std::string::npos);
    removeAll(dir);
}

} // namespace
} // namespace gest
