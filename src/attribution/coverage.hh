/**
 * @file
 * The search-space coverage ledger (docs/attribution.md, "Coverage").
 *
 * The GA's search space is the set of (instruction definition ×
 * operand value-bin) cells — one cell per register choice, one per
 * immediate bin (isa::operandBin), one for an operand-less definition.
 * The ledger is an atomic bitmap over that universe: every gene of
 * every evaluated generation touches its cells (one relaxed fetch_or
 * per new cell, a plain load otherwise), so by the end of a run it
 * answers "what did the GA never try?" exactly.
 *
 * The run pipeline drives onGenerationEvaluated on the coordinator
 * thread — const views only, never the RNG. Atomics let other threads
 * take snapshot() concurrently. Each observed generation
 * refreshes the coverage.* gauges and returns the snapshot the
 * pipeline's sinks render as a `# gest-coverage v1` CSV row and the
 * /coverage payload.
 */

#ifndef GEST_ATTRIBUTION_COVERAGE_HH
#define GEST_ATTRIBUTION_COVERAGE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "isa/library.hh"

namespace gest {
namespace attribution {

/** Coverage CSV format version written by this build. */
constexpr int coverageCsvVersion = 1;

class CoverageLedger
{
  public:
    /** Per-class slice of the universe. */
    struct ClassCoverage
    {
        std::uint64_t seen = 0;
        std::uint64_t total = 0;
    };

    /** Cumulative state after one observed generation. */
    struct Snapshot
    {
        int generation = -1;
        std::uint64_t cellsSeen = 0;
        std::uint64_t cellsTotal = 0;
        std::uint64_t newCells = 0;  ///< first touched this generation
        std::uint64_t touches = 0;   ///< cell touches this generation
        double saturationPct = 0.0;  ///< 100 * seen / total
        double noveltyRate = 0.0;    ///< newCells / touches
        std::array<ClassCoverage, isa::numInstrClasses> classes{};
    };

    /** @param lib must outlive the ledger. */
    explicit CoverageLedger(const isa::InstructionLibrary& lib);

    std::uint64_t cellsTotal() const { return _cellsTotal; }

    std::uint64_t
    cellsSeen() const
    {
        return _cellsSeen.load(std::memory_order_relaxed);
    }

    /**
     * Touch every cell @p code references. @return cells first seen by
     * this call; @p touches (optional) accumulates the touch count.
     */
    std::uint64_t observe(
        const std::vector<isa::InstructionInstance>& code,
        std::uint64_t* touches = nullptr);

    /**
     * Ingest one evaluated generation: observe every individual and
     * update the coverage.* stats. Coordinator thread only.
     * @return the cumulative state after this generation.
     */
    Snapshot onGenerationEvaluated(const core::Population& pop,
                                   const core::GenerationRecord& record);

    /**
     * Current cumulative state; safe from any thread (per-generation
     * fields describe the last generation sealed by the coordinator).
     */
    Snapshot snapshot() const;

  private:
    /** One operand slot's cell range. */
    struct SlotCells
    {
        std::uint32_t cellBase = 0;
        std::uint32_t operandIndex = 0;
    };

    /** One instruction definition's cell range. */
    struct DefCells
    {
        std::uint32_t base = 0;      ///< first cell
        std::uint32_t count = 0;     ///< cells owned by this def
        std::uint32_t firstSlot = 0; ///< index into _slots
        std::uint32_t numSlots = 0;
        isa::InstrClass cls = isa::InstrClass::Nop;
    };

    bool touch(std::uint64_t cell, isa::InstrClass cls);

    const isa::InstructionLibrary& _lib;
    std::vector<DefCells> _defs;
    std::vector<SlotCells> _slots;
    std::uint64_t _cellsTotal = 0;
    std::array<std::uint64_t, isa::numInstrClasses> _classTotal{};

    std::vector<std::atomic<std::uint64_t>> _bits;
    std::atomic<std::uint64_t> _cellsSeen{0};
    std::array<std::atomic<std::uint64_t>, isa::numInstrClasses>
        _classSeen{};

    // Last sealed generation (coordinator-written, reader-raced only
    // through snapshot()'s atomics-free copies — benign staleness).
    std::atomic<int> _lastGeneration{-1};
    std::atomic<std::uint64_t> _lastNewCells{0};
    std::atomic<std::uint64_t> _lastTouches{0};
};

/**
 * The coverage.csv version, universe comment lines and column header
 * for a ledger over @p ledger's library.
 */
std::string coverageCsvHeader(const CoverageLedger& ledger);

/** @p snapshot as one coverage.csv line. */
std::string formatCoverageCsvRow(const CoverageLedger::Snapshot& snapshot);

/** Render @p snapshot as the /coverage JSON payload. */
std::string formatCoverageJson(const CoverageLedger::Snapshot& snapshot);

} // namespace attribution
} // namespace gest

#endif // GEST_ATTRIBUTION_COVERAGE_HH
