/**
 * @file
 * Unit tests for the CPU simulator substrate: cache, decode, timing.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "arch/cache.hh"
#include "arch/microop.hh"
#include "arch/simulator.hh"
#include "isa/standard_libs.hh"
#include "platform/platform.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace gest {
namespace arch {
namespace {

using isa::InstrClass;
using isa::Opcode;

// ---------------------------------------------------------------- Cache

TEST(Cache, HitsAfterFill)
{
    Cache cache({.sets = 4, .ways = 2, .lineBytes = 64, .hitLatency = 3,
                 .missLatency = 50});
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x103f)); // same line
    EXPECT_FALSE(cache.access(0x1040)); // next line
    EXPECT_EQ(cache.accesses(), 4u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_DOUBLE_EQ(cache.hitRate(), 0.5);
}

TEST(Cache, LruEvictsOldest)
{
    // 1 set x 2 ways: three distinct conflicting lines.
    Cache cache({.sets = 1, .ways = 2, .lineBytes = 64, .hitLatency = 1,
                 .missLatency = 10});
    EXPECT_FALSE(cache.access(0x0000)); // A
    EXPECT_FALSE(cache.access(0x1000)); // B
    EXPECT_TRUE(cache.access(0x0000));  // A hits, B is now LRU
    EXPECT_FALSE(cache.access(0x2000)); // C evicts B
    EXPECT_TRUE(cache.access(0x0000));  // A still resident
    EXPECT_FALSE(cache.access(0x1000)); // B was evicted
}

TEST(Cache, FlushInvalidatesEverything)
{
    Cache cache({.sets = 8, .ways = 2, .lineBytes = 64, .hitLatency = 1,
                 .missLatency = 10});
    cache.access(0x40);
    EXPECT_TRUE(cache.access(0x40));
    cache.flush();
    EXPECT_FALSE(cache.access(0x40));
}

TEST(Cache, RejectsNonPowerOfTwoGeometry)
{
    EXPECT_THROW(Cache({.sets = 3, .ways = 2, .lineBytes = 64,
                        .hitLatency = 1, .missLatency = 10}),
                 FatalError);
    EXPECT_THROW(Cache({.sets = 4, .ways = 2, .lineBytes = 48,
                        .hitLatency = 1, .missLatency = 10}),
                 FatalError);
}

TEST(Cache, CapacityWorkingSetAlwaysHitsAfterWarmup)
{
    Cache cache({.sets = 64, .ways = 4, .lineBytes = 64, .hitLatency = 3,
                 .missLatency = 50});
    // 4 KiB working set in a 16 KiB cache.
    for (int pass = 0; pass < 3; ++pass) {
        for (std::uint64_t addr = 0; addr < 4096; addr += 64)
            cache.access(addr);
    }
    EXPECT_EQ(cache.misses(), 64u); // only cold misses
}

// --------------------------------------------------------------- Decode

TEST(Decode, ThreeOperandArithmetic)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const MicroOp mo =
        decode(lib, lib.makeInstance("ADD", {"x4", "x5", "x6"}));
    EXPECT_EQ(mo.op, Opcode::Add);
    EXPECT_EQ(mo.numDst, 1);
    EXPECT_EQ(mo.dst[0], 4);
    EXPECT_EQ(mo.numSrc, 2);
    EXPECT_EQ(mo.src[0], 5);
    EXPECT_EQ(mo.src[1], 6);
    EXPECT_FALSE(mo.isLoad);
    EXPECT_FALSE(mo.isBranch);
}

TEST(Decode, FmaReadsItsDestination)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const MicroOp mo =
        decode(lib, lib.makeInstance("FMLA", {"v1", "v2", "v3"}));
    EXPECT_EQ(mo.numDst, 1);
    EXPECT_EQ(mo.dst[0], 32 + 1);
    EXPECT_EQ(mo.numSrc, 3);
    EXPECT_EQ(mo.src[2], 32 + 1); // accumulator source
}

TEST(Decode, LoadShape)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const MicroOp mo =
        decode(lib, lib.makeInstance("LDR", {"x2", "x10", "16"}));
    EXPECT_TRUE(mo.isLoad);
    EXPECT_EQ(mo.numDst, 1);
    EXPECT_EQ(mo.dst[0], 2);
    EXPECT_EQ(mo.numSrc, 1);
    EXPECT_EQ(mo.src[0], 10);
    EXPECT_EQ(mo.imm, 16);
    EXPECT_EQ(mo.accessBytes, 8);
}

TEST(Decode, VectorLoadIs16Bytes)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const MicroOp mo =
        decode(lib, lib.makeInstance("LDRQ", {"q3", "x10", "0"}));
    EXPECT_TRUE(mo.isLoad);
    EXPECT_EQ(mo.dst[0], 32 + 3);
    EXPECT_EQ(mo.accessBytes, 16);
}

TEST(Decode, StoreShape)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const MicroOp mo =
        decode(lib, lib.makeInstance("STR", {"x7", "x10", "32"}));
    EXPECT_TRUE(mo.isStore);
    EXPECT_EQ(mo.numDst, 0);
    EXPECT_EQ(mo.numSrc, 2);
    EXPECT_EQ(mo.src[0], 7);  // data
    EXPECT_EQ(mo.src[1], 10); // base
}

TEST(Decode, X86DestructiveForm)
{
    const isa::InstructionLibrary lib = isa::x86LikeLibrary();
    const MicroOp mo =
        decode(lib, lib.makeInstance("ADD", {"rax", "rcx"}));
    EXPECT_EQ(mo.numDst, 1);
    EXPECT_EQ(mo.dst[0], 0);
    EXPECT_EQ(mo.numSrc, 2);
    EXPECT_EQ(mo.src[0], 1); // rcx
    EXPECT_EQ(mo.src[1], 0); // rax reads itself
}

TEST(Decode, BranchAndNopHaveNoRegisters)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const MicroOp br = decode(lib, lib.makeInstance("BNEXT", {}));
    EXPECT_TRUE(br.isBranch);
    EXPECT_EQ(br.numSrc, 0);
    EXPECT_EQ(br.numDst, 0);
    const MicroOp nop = decode(lib, lib.makeInstance("NOP", {}));
    EXPECT_EQ(nop.cls, InstrClass::Nop);
}

// ------------------------------------------------------------ Simulator

std::vector<MicroOp>
decodeNamed(const isa::InstructionLibrary& lib,
            const std::vector<std::pair<const char*,
                                        std::vector<std::string>>>& prog)
{
    std::vector<isa::InstructionInstance> code;
    for (const auto& [name, vals] : prog)
        code.push_back(lib.makeInstance(name, vals));
    return decodeBody(lib, code);
}

CpuConfig
simpleOoo()
{
    CpuConfig cfg = cortexA15Config();
    cfg.takenBranchBubble = 0;
    return cfg;
}

TEST(Simulator, IndependentAddsReachAluThroughput)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    // Six independent adds; 2 ALUs -> at most 2 int ops per cycle.
    const auto body = decodeNamed(lib, {
        {"ADD", {"x4", "x5", "x6"}},
        {"ADD", {"x5", "x6", "x7"}},
        {"ADD", {"x6", "x7", "x8"}},
        {"ADD", {"x7", "x8", "x9"}},
        {"ADD", {"x8", "x9", "x4"}},
        {"ADD", {"x9", "x4", "x5"}},
    });
    LoopSimulator sim(simpleOoo(), InitState{});
    const SimResult result = sim.run(body, 100, 4);
    // 7 ops/iteration (incl. loop branch); ALU caps at 2/cycle -> about
    // 3 cycles per iteration plus fetch limits.
    EXPECT_GT(result.ipc, 1.8);
    EXPECT_LE(result.ipc, 3.0);
}

TEST(Simulator, DependentChainSerializesOnLatency)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    // A strict MUL dependency chain: each MUL (latency 4) feeds the next.
    const auto body = decodeNamed(lib, {
        {"MUL", {"x4", "x4", "x5"}},
        {"MUL", {"x4", "x4", "x5"}},
        {"MUL", {"x4", "x4", "x5"}},
        {"MUL", {"x4", "x4", "x5"}},
    });
    LoopSimulator sim(simpleOoo(), InitState{});
    const SimResult result = sim.run(body, 100, 4);
    // 5 ops per iteration taking >= 16 cycles -> IPC well below 1.
    EXPECT_LT(result.ipc, 0.5);
}

TEST(Simulator, InOrderStallsBlockYoungerOps)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    // A dependent MUL pair followed by independent adds; the chain is
    // not loop-carried, so an OoO core overlaps iterations while an
    // in-order core serializes on the MUL latency every iteration.
    const std::vector<std::pair<const char*, std::vector<std::string>>>
        prog = {
            {"MUL", {"x4", "x5", "x6"}},
            {"MUL", {"x4", "x4", "x5"}},
            {"ADD", {"x6", "x5", "x9"}},
            {"ADD", {"x7", "x5", "x9"}},
            {"ADD", {"x8", "x5", "x9"}},
        };
    const auto body = decodeNamed(lib, prog);

    CpuConfig ooo = cortexA15Config();
    CpuConfig in_order = cortexA15Config();
    in_order.outOfOrder = false;
    in_order.windowSize = 4;

    const SimResult r_ooo =
        LoopSimulator(ooo, InitState{}).run(body, 200, 4);
    const SimResult r_io =
        LoopSimulator(in_order, InitState{}).run(body, 200, 4);
    EXPECT_GT(r_ooo.ipc, r_io.ipc * 1.2);
}

TEST(Simulator, UnpipelinedDividerLimitsThroughput)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const auto divs = decodeNamed(lib, {
        {"UDIV", {"x4", "x5", "x6"}},
        {"UDIV", {"x5", "x6", "x7"}},
    });
    const auto adds = decodeNamed(lib, {
        {"ADD", {"x4", "x5", "x6"}},
        {"ADD", {"x5", "x6", "x7"}},
    });
    LoopSimulator sim(simpleOoo(), InitState{});
    const SimResult r_div = sim.run(divs, 100, 4);
    const SimResult r_add = sim.run(adds, 100, 4);
    // Independent divides still serialize on the single unpipelined
    // divider (14 cycles each).
    EXPECT_LT(r_div.ipc, 0.3);
    EXPECT_GT(r_add.ipc, 1.0);
}

TEST(Simulator, LoopBranchCountsAsBranchClass)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const auto body = decodeNamed(lib, {{"ADD", {"x4", "x5", "x6"}}});
    LoopSimulator sim(simpleOoo(), InitState{});
    const SimResult result = sim.run(body, 50, 2);
    // 48 post-warmup iterations, one ADD plus one loop branch each; the
    // measurement boundary lands on a cycle edge, so allow one op of
    // slack on either side.
    EXPECT_NEAR(static_cast<double>(result.classCounts[
                    static_cast<std::size_t>(InstrClass::Branch)]),
                48.0, 1.0);
    EXPECT_NEAR(static_cast<double>(result.classCounts[
                    static_cast<std::size_t>(InstrClass::ShortInt)]),
                48.0, 1.0);
}

TEST(Simulator, TakenBranchBubbleCostsCycles)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    std::vector<std::pair<const char*, std::vector<std::string>>> prog;
    for (int i = 0; i < 8; ++i)
        prog.push_back({"BNEXT", {}});
    const auto body = decodeNamed(lib, prog);

    CpuConfig no_bubble = cortexA15Config();
    no_bubble.takenBranchBubble = 0;
    CpuConfig with_bubble = cortexA15Config();
    with_bubble.takenBranchBubble = 2;

    const SimResult fast =
        LoopSimulator(no_bubble, InitState{}).run(body, 100, 4);
    const SimResult slow =
        LoopSimulator(with_bubble, InitState{}).run(body, 100, 4);
    EXPECT_GT(fast.ipc, slow.ipc * 1.5);
}

TEST(Simulator, LoadsHitInCacheResidentBuffer)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const auto body = decodeNamed(lib, {
        {"LDR", {"x2", "x10", "0"}},
        {"LDR", {"x3", "x10", "64"}},
        {"LDR", {"x2", "x10", "128"}},
        {"LDR", {"x3", "x10", "192"}},
    });
    LoopSimulator sim(cortexA15Config(), InitState{});
    const SimResult result = sim.run(body, 200, 4);
    // The paper observes extremely high L1 hit rates for these loops.
    EXPECT_GT(result.l1HitRate(), 0.99);
}

TEST(Simulator, CheckerboardInitTogglesMoreThanZeros)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const auto body = decodeNamed(lib, {
        {"EOR", {"x4", "x5", "x6"}},
        {"ADD", {"x5", "x6", "x7"}},
        {"MUL", {"x6", "x7", "x8"}},
        {"FMUL", {"v0", "v1", "v2"}},
    });
    InitState checker;
    InitState zeros;
    zeros.intPattern = 0;
    zeros.vecPattern = 0;
    zeros.memPattern = 0;

    LoopSimulator sim_c(cortexA15Config(), checker);
    LoopSimulator sim_z(cortexA15Config(), zeros);
    const SimResult r_c = sim_c.run(body, 100, 4);
    const SimResult r_z = sim_z.run(body, 100, 4);
    // §III.B.2: register values have considerable effect; checkerboard
    // maximizes switching.
    EXPECT_GT(r_c.totalToggleBits, r_z.totalToggleBits * 5);
}

TEST(Simulator, MispredictPenaltySlowsConditionalBranches)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    std::vector<std::pair<const char*, std::vector<std::string>>> prog;
    for (int i = 0; i < 4; ++i) {
        prog.push_back({"BNE", {}});
        prog.push_back({"ADD", {"x4", "x5", "x6"}});
    }
    const auto body = decodeNamed(lib, prog);

    CpuConfig never = cortexA15Config();
    never.mispredictEveryN = 0;
    CpuConfig often = cortexA15Config();
    often.mispredictEveryN = 4;

    const SimResult r_never =
        LoopSimulator(never, InitState{}).run(body, 200, 4);
    const SimResult r_often =
        LoopSimulator(often, InitState{}).run(body, 200, 4);
    EXPECT_GT(r_never.ipc, r_often.ipc * 1.1);
    EXPECT_GT(r_often.mispredicts, 0u);
    EXPECT_EQ(r_never.mispredicts, 0u);
}

TEST(Simulator, TraceMatchesAggregateCounts)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const auto body = decodeNamed(lib, {
        {"ADD", {"x4", "x5", "x6"}},
        {"LDR", {"x2", "x10", "8"}},
        {"FMUL", {"v0", "v1", "v2"}},
    });
    LoopSimulator sim(cortexA15Config(), InitState{});
    const SimResult result = sim.run(body, 64, 4);

    std::uint64_t issued = 0;
    std::uint64_t toggles = 0;
    for (const CycleStats& stats : result.trace) {
        issued += static_cast<std::uint64_t>(stats.totalIssued());
        toggles += stats.toggleBits;
    }
    EXPECT_EQ(issued, result.instructions);
    EXPECT_EQ(toggles, result.totalToggleBits);
    EXPECT_EQ(result.trace.size(), result.cycles);
}

TEST(Simulator, DeterministicAcrossRuns)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const auto body = decodeNamed(lib, {
        {"MUL", {"x4", "x5", "x6"}},
        {"LDR", {"x2", "x10", "16"}},
        {"FMLA", {"v0", "v1", "v2"}},
    });
    LoopSimulator sim(cortexA15Config(), InitState{});
    const SimResult a = sim.run(body, 100, 4);
    const SimResult b = sim.run(body, 100, 4);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.totalToggleBits, b.totalToggleBits);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
}

TEST(Simulator, RunForCyclesReachesTarget)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const auto body = decodeNamed(lib, {
        {"ADD", {"x4", "x5", "x6"}},
        {"ADD", {"x5", "x6", "x7"}},
    });
    LoopSimulator sim(cortexA15Config(), InitState{});
    const SimResult result = sim.runForCycles(body, 2048);
    EXPECT_GE(result.cycles, 2048u);
}

TEST(Simulator, EmptyBodyIsFatal)
{
    LoopSimulator sim(cortexA15Config(), InitState{});
    EXPECT_THROW(sim.run({}, 10), FatalError);
    EXPECT_THROW(sim.runForCycles({}, 100), FatalError);
}

TEST(Simulator, RejectsBadInitState)
{
    InitState bad;
    bad.bufferBytes = 1000; // not a power of two
    EXPECT_THROW(LoopSimulator(cortexA15Config(), bad), FatalError);
    InitState bad_reg;
    bad_reg.baseRegister = 40;
    EXPECT_THROW(LoopSimulator(cortexA15Config(), bad_reg), FatalError);
}

// -------------------------------------------------------------- Golden

/**
 * FNV-1a over an explicit list of 64-bit words (never raw struct bytes,
 * so padding cannot leak into the digest).
 */
class Fnv64
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            _h ^= (v >> (8 * i)) & 0xffu;
            _h *= 0x100000001b3ULL;
        }
    }

    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 0xcbf29ce484222325ULL;
};

/**
 * Digest of everything a simulation reports: every stored trace row
 * field by field, the aggregate counters, the tiling layout and the
 * floating-point summaries bit for bit.
 */
std::uint64_t
simDigest(const SimResult& r)
{
    Fnv64 f;
    f.add(r.cycles);
    f.add(r.instructions);
    f.add(r.iterations);
    f.add(r.simulatedCycles);
    f.add(r.cacheAccesses);
    f.add(r.cacheMisses);
    f.add(r.l2Accesses);
    f.add(r.l2Misses);
    f.add(r.mispredicts);
    f.add(r.totalToggleBits);
    f.add(std::bit_cast<std::uint64_t>(r.ipc));
    f.add(std::bit_cast<std::uint64_t>(r.avgWindowOccupancy));
    for (std::uint64_t count : r.classCounts)
        f.add(count);
    f.add(r.tiling.prefix);
    f.add(r.tiling.period);
    f.add(r.tiling.repeats);
    f.add(r.tiling.tail);
    f.add(r.trace.size());
    for (const CycleStats& row : r.trace) {
        for (std::uint8_t n : row.issued)
            f.add(n);
        f.add(row.toggleBits);
        f.add(row.windowOccupancy);
        f.add(row.fetched);
        f.add(row.cacheMisses);
        f.add(row.l2Misses);
        f.add(row.mispredicts);
    }
    return f.value();
}

/** A fixed-seed random body drawn from @p lib, decoded. */
std::vector<MicroOp>
randomDecoded(const isa::InstructionLibrary& lib, int size,
              std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<isa::InstructionInstance> code;
    for (int i = 0; i < size; ++i)
        code.push_back(lib.randomInstance(rng));
    return decodeBody(lib, code);
}

/**
 * A fixed-seed random body of loads only. Nothing writes the buffer or
 * the base register, so the loop is periodic and the steady-state
 * detector fires on it.
 */
std::vector<MicroOp>
randomLoads(const isa::InstructionLibrary& lib, int size,
            std::uint64_t seed)
{
    std::vector<std::size_t> loads;
    for (std::size_t i = 0; i < lib.numInstructions(); ++i) {
        const Opcode op = lib.instruction(i).opcode;
        if (op == Opcode::Load || op == Opcode::LoadPair)
            loads.push_back(i);
    }
    Rng rng(seed);
    std::vector<isa::InstructionInstance> code;
    for (int i = 0; i < size; ++i)
        code.push_back(lib.randomInstanceOf(
            loads[static_cast<std::size_t>(rng.nextBelow(loads.size()))],
            rng));
    return decodeBody(lib, code);
}

/**
 * Digest of one platform-style evaluation: runForCyclesInto() over a
 * fresh scratch, exactly as Platform::evaluateInto drives it.
 */
std::uint64_t
cyclesDigest(const CpuConfig& cpu, const InitState& init,
             const std::vector<MicroOp>& body, std::uint64_t min_cycles,
             bool steady)
{
    SimScratch scratch;
    SimResult result;
    RunOptions options;
    options.steadyState = steady;
    LoopSimulator(cpu, init).runForCyclesInto(body, min_cycles, 2'000'000,
                                              options, scratch, result);
    return simDigest(result);
}

/**
 * Compare @p got against @p golden; on mismatch print the whole table
 * in source form so a deliberate re-baseline is one copy-paste.
 */
void
expectGolden(const std::vector<std::uint64_t>& got,
             const std::vector<std::uint64_t>& golden)
{
    EXPECT_EQ(got, golden);
    if (got != golden) {
        std::string table;
        for (std::uint64_t h : got) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "0x%016llxULL,\n",
                          static_cast<unsigned long long>(h));
            table += buf;
        }
        ADD_FAILURE() << "actual digests:\n" << table;
    }
}

// The golden digests below were recorded with the simulator that
// probed L1/L2 for every stalled memory op on every cycle and stepped
// every idle cycle one by one. Any change to the per-cycle schedule —
// an extra or missing idle row, a stale DRAM-admission answer — moves
// them; a change that is meant to alter timing must re-record them.

TEST(SimulatorGolden, RandomBodiesOnEveryPreset)
{
    std::vector<std::uint64_t> got;
    for (const std::string& name : platform::Platform::presetNames()) {
        const auto plat = platform::Platform::byName(name);
        for (int body_index = 0; body_index < 5; ++body_index) {
            const auto body = randomDecoded(
                plat->library(), 4 + 12 * body_index,
                0x5eed0000u + static_cast<std::uint64_t>(body_index));
            for (bool steady : {false, true})
                got.push_back(cyclesDigest(plat->cpu(), plat->initState(),
                                           body, 4096, steady));
        }
        const auto loads = randomLoads(plat->library(), 10, 0x10ad);
        for (bool steady : {false, true})
            got.push_back(cyclesDigest(plat->cpu(), plat->initState(),
                                       loads, 4096, steady));
    }
    expectGolden(got, {
        0xa64a25c4a53c843bULL,
        0xa64a25c4a53c843bULL,
        0xc8e17ea5b96bdd39ULL,
        0xc8e17ea5b96bdd39ULL,
        0xc7da79eaa48fbb45ULL,
        0xc7da79eaa48fbb45ULL,
        0xf2c1d7b854bf7ddaULL,
        0xf2c1d7b854bf7ddaULL,
        0xa31e7b7bd58f408dULL,
        0xa31e7b7bd58f408dULL,
        0xe2b060bbbbcea4daULL,
        0x1cdd82698aa784f5ULL,
        0xb7e4840388cfb93eULL,
        0xb7e4840388cfb93eULL,
        0x6424795b4d49ee13ULL,
        0x6424795b4d49ee13ULL,
        0x59ce44283b0475b7ULL,
        0x59ce44283b0475b7ULL,
        0x6cf173796ad97e1bULL,
        0x6cf173796ad97e1bULL,
        0xc538c2f600c4ae16ULL,
        0xc538c2f600c4ae16ULL,
        0x1360bb48c2f32f1bULL,
        0x6fb3f7b9a4d0ae89ULL,
        0xf7f23a01595cc6adULL,
        0xf7f23a01595cc6adULL,
        0x237b8c49a154cda5ULL,
        0x237b8c49a154cda5ULL,
        0x95db7374e6b14c65ULL,
        0x95db7374e6b14c65ULL,
        0x7f13cd574a557a26ULL,
        0x7f13cd574a557a26ULL,
        0x4b0fb0e0243d207eULL,
        0x4b0fb0e0243d207eULL,
        0x2d546d16f157212cULL,
        0xc69d8ba3a60abc92ULL,
        0x5456d53374d1247cULL,
        0x5456d53374d1247cULL,
        0xf722dbba535ff075ULL,
        0xf722dbba535ff075ULL,
        0x8fec9539c297e74dULL,
        0x4105b535d18973b0ULL,
        0x388f5e2a42d9ce7aULL,
        0x3705358a6dd4759aULL,
        0xa9719ac2bfe58e9cULL,
        0xa9719ac2bfe58e9cULL,
        0x54ce4afa89a196f3ULL,
        0x11b8d45c0742023dULL,
        0x17e027e9640065b0ULL,
        0x95e6746b44c1f19cULL,
        0x07c4f9f3a36df1faULL,
        0x07c4f9f3a36df1faULL,
        0x798d27dcae6da79cULL,
        0x798d27dcae6da79cULL,
        0x146beb21329d6befULL,
        0x146beb21329d6befULL,
        0xad6c50589cd97528ULL,
        0xad6c50589cd97528ULL,
        0xba163e9b5ae8de6fULL,
        0x6e93327aec024c25ULL,
    });
}

TEST(SimulatorGolden, SingleMshrCores)
{
    // test_llc's forward-progress configuration (one MSHR, an in-order
    // core, a 4-entry window), where nearly every cycle is a DRAM
    // stall, and its out-of-order twin, where loads queue behind the
    // busy MSHR and a fill can turn a stalled load into a hit.
    const auto lib = isa::armCacheStressLibrary();
    InitState init;
    init.bufferBytes = 1u << 20;

    const auto strided = decodeNamed(lib, {
        {"ADVANCE", {"x10", "1024"}},
        {"LDR", {"x2", "x10", "0"}},
        {"LDR", {"x3", "x10", "64"}},
    });
    // Several accesses per fresh line: the later ones wait on the
    // MSHR only until the first one's fill lands.
    const auto same_line = decodeNamed(lib, {
        {"ADVANCE", {"x10", "4032"}},
        {"LDR", {"x2", "x10", "0"}},
        {"LDR", {"x3", "x10", "8"}},
        {"STR", {"x4", "x10", "16"}},
        {"LDR", {"x2", "x10", "128"}},
        {"LDR", {"x3", "x10", "136"}},
    });

    std::vector<std::uint64_t> got;
    for (bool ooo : {false, true}) {
        CpuConfig cfg = xgene2Config();
        cfg.mshrs = 1;
        cfg.outOfOrder = ooo;
        if (!ooo)
            cfg.windowSize = 4;
        got.push_back(
            simDigest(LoopSimulator(cfg, init).run(strided, 300, 4)));
        for (bool steady : {false, true}) {
            got.push_back(cyclesDigest(cfg, init, strided, 4096, steady));
            got.push_back(
                cyclesDigest(cfg, init, same_line, 4096, steady));
            for (int body_index = 0; body_index < 4; ++body_index)
                got.push_back(cyclesDigest(
                    cfg, init,
                    randomDecoded(lib, 6 + 10 * body_index,
                                  0x3a5u + static_cast<std::uint64_t>(
                                               body_index)),
                    4096, steady));
            got.push_back(cyclesDigest(
                cfg, init, randomLoads(lib, 8, 0x10ad), 4096, steady));
        }
    }
    expectGolden(got, {
        0xa7a5f032a8345b99ULL,
        0x124c5d4e5a3ccd35ULL,
        0x4fcdd5e63c0ff18bULL,
        0xc412ec27d0885deeULL,
        0x37a32f9dda52963eULL,
        0x60584bbfd5e999a9ULL,
        0x61af65d2dd6c68dcULL,
        0x244f7e0dab820288ULL,
        0x124c5d4e5a3ccd35ULL,
        0x4fcdd5e63c0ff18bULL,
        0xc412ec27d0885deeULL,
        0x37a32f9dda52963eULL,
        0x60584bbfd5e999a9ULL,
        0x61af65d2dd6c68dcULL,
        0x221dff6bbc9acd6aULL,
        0x7854c375d79ae427ULL,
        0x957acfc337108087ULL,
        0x326f1b25d60f9d7fULL,
        0xfdbacc54fc987407ULL,
        0xa3bbf6b4944ccc29ULL,
        0x7fb04a17154d719cULL,
        0x6d225ae670f4e04aULL,
        0x595ef67c4e36163aULL,
        0x957acfc337108087ULL,
        0x326f1b25d60f9d7fULL,
        0xfdbacc54fc987407ULL,
        0xa3bbf6b4944ccc29ULL,
        0x7fb04a17154d719cULL,
        0x6d225ae670f4e04aULL,
        0xd81857a3c171cc49ULL,
    });
}

TEST(SimulatorGolden, IdleHeavyRunPastTraceCap)
{
    // A dependent divide chain is idle on most cycles; running it past
    // maxTraceCycles checks that bulk-emitted idle rows respect the cap
    // while the counters keep counting.
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const auto body = decodeNamed(lib, {
        {"UDIV", {"x4", "x4", "x5"}},
        {"UDIV", {"x4", "x4", "x6"}},
    });
    std::vector<std::uint64_t> got;
    for (bool steady : {false, true}) {
        SimScratch scratch;
        SimResult result;
        RunOptions options;
        options.steadyState = steady;
        LoopSimulator(cortexA15Config(), InitState{})
            .runForCyclesInto(body, maxTraceCycles * 3 / 2, 2'000'000,
                              options, scratch, result);
        EXPECT_GT(result.cycles, maxTraceCycles);
        if (!steady) {
            EXPECT_EQ(result.trace.size(), maxTraceCycles);
        }
        got.push_back(simDigest(result));
    }
    // Constant operands: periodic and idle-heavy, so the detector
    // samples boundaries that fall inside idle stretches.
    const auto constant = decodeNamed(lib, {
        {"UDIV", {"x4", "x5", "x6"}},
        {"UDIV", {"x7", "x5", "x6"}},
        {"LDR", {"x2", "x10", "16"}},
    });
    for (bool steady : {false, true})
        got.push_back(cyclesDigest(cortexA15Config(), InitState{},
                                   constant, 4096, steady));
    expectGolden(got, {
        0xa18c7d96b5968e5dULL,
        0x868c1ddcd17e8d08ULL,
        0x193aca50b431b136ULL,
        0x27b2a08fd7cc4773ULL,
    });
}

TEST(SimulatorGolden, FetchBubblesDrainTheWindow)
{
    // Short bodies behind mispredicted branches: the window drains and
    // nothing but the fetch redirect is pending until fetch resumes.
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    CpuConfig cfg = cortexA15Config();
    cfg.mispredictEveryN = 1;
    const auto body = decodeNamed(lib, {
        {"ADD", {"x4", "x5", "x6"}},
        {"BNE", {}},
    });
    std::vector<std::uint64_t> got;
    got.push_back(simDigest(LoopSimulator(cfg, InitState{}).run(body, 200)));
    for (bool steady : {false, true})
        got.push_back(cyclesDigest(cfg, InitState{}, body, 4096, steady));
    expectGolden(got, {
        0x5aa3044a757e1964ULL,
        0x0164a3b1f4ec390cULL,
        0xaa8483c3de2bc717ULL,
    });
}

TEST(CpuConfig, PresetsValidate)
{
    for (const CpuConfig& cfg :
         {cortexA15Config(), cortexA7Config(), xgene2Config(),
          athlonX4Config()})
        EXPECT_NO_THROW(cfg.validate());
}

TEST(CpuConfig, ValidationCatchesNonsense)
{
    CpuConfig cfg = cortexA15Config();
    cfg.issueWidth = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = cortexA15Config();
    cfg.freqGHz = -1;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = cortexA15Config();
    cfg.fuCount.fill(0);
    EXPECT_THROW(cfg.validate(), FatalError);
}

} // namespace
} // namespace arch
} // namespace gest
