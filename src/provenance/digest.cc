#include "provenance/digest.hh"

#include <fstream>
#include <sstream>

#include "stats/stats.hh"
#include "util/fileutil.hh"
#include "util/ledger.hh"
#include "util/logging.hh"
#include "util/sha256.hh"

namespace gest {
namespace provenance {

std::string
canonicalIndividualText(const isa::InstructionLibrary& lib,
                        const core::Individual& ind)
{
    // Mirrors the per-individual records of serializePopulation(): the
    // two formats must agree so a digest of a deserialized checkpoint
    // equals the digest of the population it checkpointed. Precision 17
    // makes the doubles round-trip exactly.
    std::ostringstream os;
    os.precision(17);
    os << "individual " << ind.id << " " << ind.parent1 << " "
       << ind.parent2 << " " << ind.fitness << " "
       << (ind.evaluated ? 1 : 0) << "\n";
    os << "measurements " << ind.measurements.size();
    for (double v : ind.measurements)
        os << " " << v;
    os << "\n";
    os << "code " << ind.code.size() << "\n";
    for (const isa::InstructionInstance& inst : ind.code) {
        os << lib.instruction(inst.defIndex).name;
        for (std::uint32_t choice : inst.operandChoice)
            os << " " << choice;
        os << "\n";
    }
    return os.str();
}

std::string
populationDigest(const isa::InstructionLibrary& lib,
                 const core::Population& pop)
{
    Sha256 hasher;
    for (const core::Individual& ind : pop.individuals)
        hasher.update(canonicalIndividualText(lib, ind));
    return hasher.finishHex();
}

std::string
DigestLedger::seal(const core::Population& pop)
{
    const double start = stats::nowUs();
    std::string digest = populationDigest(_lib, pop);
    ++_rows;
    _digestUs += stats::nowUs() - start;
    return digest;
}

std::string
digestsCsvHeader()
{
    return "# gest-digests v" + std::to_string(digestsCsvVersion) +
           "\ngeneration,best_fitness,population_digest\n";
}

std::string
formatDigestRow(int generation, double best_fitness,
                const std::string& digest)
{
    std::ostringstream out;
    out.precision(17);
    out << generation << ',' << best_fitness << ',' << digest << '\n';
    return out.str();
}

bool
loadDigests(const std::string& run_dir, std::vector<DigestRow>& out,
            std::string* error)
{
    out.clear();
    std::string text;
    const std::string path = run_dir + "/digests.csv";
    if (!tryReadFile(path, text)) {
        if (error)
            *error = path + " is missing: the run was recorded without "
                            "provenance (or by a pre-provenance build)";
        return false;
    }
    try {
        LedgerReader reader(path, "digests", digestsCsvVersion,
                            {"best_fitness", "population_digest"});
        reader.read(text, [&] {
            DigestRow row;
            row.generation = static_cast<int>(reader.integer("generation"));
            row.bestFitness = reader.number("best_fitness");
            row.digest = reader.text("population_digest");
            if (row.digest.size() != 64)
                reader.fail("population_digest '" + row.digest +
                            "' is not a 64-digit SHA-256");
            out.push_back(std::move(row));
        });
    } catch (const FatalError& err) {
        out.clear();
        if (error)
            *error = err.what();
        return false;
    }
    if (out.empty()) {
        if (error)
            *error = path + " holds no digest rows";
        return false;
    }
    return true;
}

} // namespace provenance
} // namespace gest
