/**
 * @file
 * Per-generation population digests: the replay-verification ground
 * truth behind `gest verify`.
 *
 * After each evaluated generation the provenance layer hashes a
 * canonical serialization of the whole population — every individual's
 * id, lineage, fitness, measurement vector and genome — and appends one
 * row to the run's `digests.csv` ledger (`# gest-digests v1`). A replay
 * of the run from its recorded configuration and seed must reproduce
 * every digest bit-for-bit; the first row that differs pins the first
 * divergent generation, and the recorded population checkpoint of that
 * generation pins the first divergent individual.
 *
 * The canonical text deliberately excludes the generation *number*: a
 * population checkpoint reloaded as the seed of a new run (§III.D)
 * holds the same individuals under a different generation index, and
 * its generation-0 digest must equal the checkpoint's.
 */

#ifndef GEST_PROVENANCE_DIGEST_HH
#define GEST_PROVENANCE_DIGEST_HH

#include <string>
#include <vector>

#include "core/population.hh"

namespace gest {
namespace provenance {

/**
 * digests.csv format version written by this build. The first line of
 * the file is `# gest-digests v<N>`; columns are append-only across
 * versions, like every other ledger in the run directory.
 */
constexpr int digestsCsvVersion = 1;

/**
 * The canonical serialization of one individual that populationDigest()
 * hashes: the `individual` / `measurements` / `code` records of the
 * population file format (core::serializePopulation), with doubles at
 * precision 17 so they round-trip exactly. No generation number.
 */
std::string canonicalIndividualText(const isa::InstructionLibrary& lib,
                                    const core::Individual& ind);

/**
 * SHA-256 (64 hex digits) over the canonical serialization of every
 * individual of @p pop, in population order.
 */
std::string populationDigest(const isa::InstructionLibrary& lib,
                             const core::Population& pop);

/** One parsed digests.csv row. */
struct DigestRow
{
    int generation = 0;
    double bestFitness = 0.0;
    std::string digest;
};

/**
 * Digests one population per evaluated generation and keeps the run
 * totals the manifest records; the run pipeline writes the rows into
 * `<run_dir>/digests.csv`. Reads const views only.
 */
class DigestLedger
{
  public:
    /** @param lib must outlive the ledger. */
    explicit DigestLedger(const isa::InstructionLibrary& lib) : _lib(lib)
    {}

    /** Digest @p pop and count it as sealed. */
    std::string seal(const core::Population& pop);

    /** Digests sealed so far. */
    std::uint64_t rowsSealed() const { return _rows; }

    /** Microseconds spent serializing + hashing, run total. */
    double digestUsTotal() const { return _digestUs; }

  private:
    const isa::InstructionLibrary& _lib;
    std::uint64_t _rows = 0;
    double _digestUs = 0.0;
};

/** The digests.csv version and column header lines. */
std::string digestsCsvHeader();

/** One digests.csv line. */
std::string formatDigestRow(int generation, double best_fitness,
                            const std::string& digest);

/**
 * Parse `<run_dir>/digests.csv`. @return false — with @p error set —
 * when the file is absent, has no rows, or is malformed.
 */
bool loadDigests(const std::string& run_dir, std::vector<DigestRow>& out,
                 std::string* error);

} // namespace provenance
} // namespace gest

#endif // GEST_PROVENANCE_DIGEST_HH
