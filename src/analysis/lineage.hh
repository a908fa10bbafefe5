/**
 * @file
 * The lineage ledger: an append-only record of every individual's
 * birth across a GA run.
 *
 * The engine's `Individual` carries `parent1`/`parent2`, but until this
 * subsystem nothing ever read them; the search was a black box once the
 * run ended. The ledger writes one row per birth event into
 * `lineage.csv` — generation, id, creating operator (seed, resumed
 * seed, crossover, mutation, elite copy), parent ids, mutated gene
 * indices and the fitness the individual eventually scored — so
 * `gest explain` and `tools/lineage_to_dot.py` can reconstruct the
 * champion's full ancestry back to generation 0 after the fact.
 *
 * Resumed runs: a population loaded from a checkpoint references
 * parent ids that predate this ledger. Those individuals are recorded
 * with op `resumed`, and ancestry reconstruction stops at them
 * gracefully instead of failing.
 */

#ifndef GEST_ANALYSIS_LINEAGE_HH
#define GEST_ANALYSIS_LINEAGE_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/engine.hh"

namespace gest {
namespace analysis {

/** How an individual came to exist (the engine reports births). */
using BirthOp = core::BirthOp;

/** Number of BirthOp values (for per-operator count arrays). */
constexpr int numBirthOps = 5;

/** @return the csv spelling, e.g. "elite_copy". */
const char* toString(BirthOp op);

/** Parse a csv spelling. @return true on success. */
bool birthOpFromString(std::string_view s, BirthOp& out);

/** One birth event — one lineage.csv row. */
struct LineageEvent
{
    int generation = 0;
    std::uint64_t id = 0;
    BirthOp op = BirthOp::Seed;
    std::uint64_t parent1 = 0; ///< 0 = none
    std::uint64_t parent2 = 0; ///< 0 = none

    /** Gene indices rewritten by mutation (empty for other ops). */
    std::vector<std::uint32_t> mutatedGenes;

    /** Fitness scored when the birth generation was evaluated. */
    double fitness = 0.0;
};

/**
 * lineage.csv format version written by this build. Like history.csv,
 * the first line is `# gest-lineage v<N>` and columns are append-only
 * across versions.
 */
constexpr int lineageCsvVersion = 1;

/**
 * Seals each evaluated generation's births into lineage events (the
 * fitness is only known once the generation is evaluated) and keeps an
 * id -> fitness map, so operator efficacy (children beating both
 * parents) can be computed without re-reading lineage.csv.
 */
class LineageLedger
{
  public:
    /**
     * One event per birth of @p view, in birth order, with the fitness
     * each individual scored in the evaluated population.
     */
    std::vector<LineageEvent> seal(const core::GenerationView& view);

    /** Fitness of a sealed individual. @return true when known. */
    bool fitnessOf(std::uint64_t id, double& out) const;

  private:
    std::unordered_map<std::uint64_t, double> _fitnessById;
};

/** The lineage.csv version and column header lines. */
std::string lineageCsvHeader();

/** @p events as lineage.csv rows. */
std::string formatLineageRows(const std::vector<LineageEvent>& events);

/**
 * Parse lineage.csv text. Header-driven like the history parser;
 * fatal() with an actionable message on malformed rows.
 */
std::vector<LineageEvent> parseLineage(const std::string& text);

/** Read and parse @p run_dir/lineage.csv; fatal() when absent. */
std::vector<LineageEvent> loadLineage(const std::string& run_dir);

/**
 * The champion's ancestry, reconstructed from a ledger. The champion
 * is the highest-fitness birth event (earliest generation, then lowest
 * id on ties, so reconstruction is deterministic).
 */
struct Ancestry
{
    /**
     * The primary descent line, champion first: from each individual,
     * the fitter parent is followed until a seed/resumed record (or an
     * ancestor the ledger does not know). Indices into the event list
     * handed to championAncestry().
     */
    std::vector<std::size_t> chain;

    /** Distinct ancestors of the champion (champion included). */
    std::size_t ancestorCount = 0;

    /** Ancestors per creating operator, indexed by BirthOp. */
    std::array<std::size_t, numBirthOps> opCounts{};

    /** True when every ancestry path terminates in a generation-0 row. */
    bool reachesGeneration0 = false;

    /**
     * Parent ids referenced by ancestors but absent from the ledger
     * (non-empty only for resumed runs whose ancestors predate it).
     */
    std::vector<std::uint64_t> unknownParents;
};

/**
 * Reconstruct the champion's ancestry from parsed lineage events.
 * Elite-copy rows re-record an existing id; the first record of each
 * id (its true birth) is used. fatal() when @p events is empty.
 */
Ancestry championAncestry(const std::vector<LineageEvent>& events);

} // namespace analysis
} // namespace gest

#endif // GEST_ANALYSIS_LINEAGE_HH
