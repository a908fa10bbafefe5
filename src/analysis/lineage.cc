#include "analysis/lineage.hh"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "util/fileutil.hh"
#include "util/ledger.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gest {
namespace analysis {

const char*
toString(BirthOp op)
{
    switch (op) {
      case BirthOp::Seed:      return "seed";
      case BirthOp::Resumed:   return "resumed";
      case BirthOp::Crossover: return "crossover";
      case BirthOp::Mutation:  return "mutation";
      case BirthOp::EliteCopy: return "elite_copy";
    }
    panic("unhandled BirthOp");
}

bool
birthOpFromString(std::string_view s, BirthOp& out)
{
    if (s == "seed")       { out = BirthOp::Seed;      return true; }
    if (s == "resumed")    { out = BirthOp::Resumed;   return true; }
    if (s == "crossover")  { out = BirthOp::Crossover; return true; }
    if (s == "mutation")   { out = BirthOp::Mutation;  return true; }
    if (s == "elite_copy") { out = BirthOp::EliteCopy; return true; }
    return false;
}

std::vector<LineageEvent>
LineageLedger::seal(const core::GenerationView& view)
{
    std::unordered_map<std::uint64_t, double> generation_fitness;
    generation_fitness.reserve(view.population.individuals.size());
    for (const core::Individual& ind : view.population.individuals) {
        if (ind.evaluated)
            generation_fitness.emplace(ind.id, ind.fitness);
    }

    std::vector<LineageEvent> sealed;
    sealed.reserve(view.births.size());
    for (const core::Birth& birth : view.births) {
        LineageEvent event;
        event.generation = view.record.generation;
        event.id = birth.id;
        event.op = birth.op;
        event.parent1 = birth.parent1;
        event.parent2 = birth.parent2;
        event.mutatedGenes = birth.mutatedGenes;
        const auto it = generation_fitness.find(event.id);
        if (it != generation_fitness.end())
            event.fitness = it->second;
        _fitnessById[event.id] = event.fitness;
        sealed.push_back(std::move(event));
    }
    return sealed;
}

std::string
lineageCsvHeader()
{
    return "# gest-lineage v" + std::to_string(lineageCsvVersion) +
           "\ngeneration,id,op,parent1,parent2,mutated_genes,"
           "mutated_indices,fitness\n";
}

std::string
formatLineageRows(const std::vector<LineageEvent>& events)
{
    std::ostringstream out;
    out.precision(17);
    for (const LineageEvent& event : events) {
        out << event.generation << ',' << event.id << ','
            << toString(event.op) << ',' << event.parent1 << ','
            << event.parent2 << ',' << event.mutatedGenes.size() << ',';
        for (std::size_t i = 0; i < event.mutatedGenes.size(); ++i) {
            if (i > 0)
                out << ';';
            out << event.mutatedGenes[i];
        }
        out << ',' << event.fitness << '\n';
    }
    return out.str();
}

bool
LineageLedger::fitnessOf(std::uint64_t id, double& out) const
{
    const auto it = _fitnessById.find(id);
    if (it == _fitnessById.end())
        return false;
    out = it->second;
    return true;
}

std::vector<LineageEvent>
parseLineage(const std::string& text, const std::string& path)
{
    LedgerReader reader(path, "lineage", lineageCsvVersion,
                        {"id", "op", "parent1", "parent2", "fitness"});
    std::vector<LineageEvent> events;
    reader.read(text, [&] {
        LineageEvent event;
        event.generation = static_cast<int>(reader.integer("generation"));
        event.id = reader.count("id");
        if (!birthOpFromString(reader.text("op"), event.op))
            reader.fail("unknown op '" + reader.text("op") +
                        "' — was the file written by a newer gest?");
        event.parent1 = reader.count("parent1");
        event.parent2 = reader.count("parent2");
        const std::string& indices = reader.text("mutated_indices");
        if (!indices.empty()) {
            for (const std::string& g : split(indices, ';'))
                event.mutatedGenes.push_back(static_cast<std::uint32_t>(
                    parseInt(g, reader.where("mutated_indices"))));
        }
        event.fitness = reader.number("fitness");
        events.push_back(std::move(event));
    });
    if (!reader.hasHeader())
        fatal("'", path, "' is empty — the run has not sealed its first "
              "generation yet");
    return events;
}

std::vector<LineageEvent>
loadLineage(const std::string& run_dir)
{
    if (!dirExists(run_dir))
        fatal("run directory '", run_dir, "' does not exist");
    const std::string path = run_dir + "/lineage.csv";
    std::string text;
    if (!tryReadFile(path, text))
        fatal("no lineage.csv in '", run_dir, "' — it is not the output "
              "directory of a gest run, or the run predates the "
              "analytics ledgers; rerun with a current build to record "
              "lineage");
    return parseLineage(text, path);
}

Ancestry
championAncestry(const std::vector<LineageEvent>& events)
{
    if (events.empty())
        fatal("cannot reconstruct ancestry from an empty lineage");

    // Birth lookup: first record per id. Elite-copy rows re-record an
    // id in later generations; the first row is the true birth.
    std::unordered_map<std::uint64_t, std::size_t> birth;
    birth.reserve(events.size());
    for (std::size_t i = 0; i < events.size(); ++i)
        birth.emplace(events[i].id, i);

    // Champion: highest fitness, earliest generation then lowest id on
    // ties, over true birth rows only.
    std::size_t champion = events.size();
    for (const auto& [event_id, index] : birth) {
        if (champion == events.size()) {
            champion = index;
            continue;
        }
        const LineageEvent& a = events[index];
        const LineageEvent& b = events[champion];
        if (a.fitness > b.fitness ||
            (a.fitness == b.fitness &&
             (a.generation < b.generation ||
              (a.generation == b.generation && a.id < b.id))))
            champion = index;
    }

    Ancestry out;
    out.reachesGeneration0 = true;

    // Full ancestor set, breadth-first over both parents.
    std::unordered_set<std::uint64_t> seen;
    std::vector<std::size_t> frontier{champion};
    seen.insert(events[champion].id);
    while (!frontier.empty()) {
        const std::size_t index = frontier.back();
        frontier.pop_back();
        const LineageEvent& event = events[birth.at(events[index].id)];
        ++out.ancestorCount;
        ++out.opCounts[static_cast<std::size_t>(event.op)];
        if (event.op == BirthOp::Seed || event.op == BirthOp::Resumed) {
            if (event.generation != 0)
                out.reachesGeneration0 = false;
            // A resumed individual's checkpoint parents predate this
            // ledger; surface them instead of chasing them.
            if (event.op == BirthOp::Resumed) {
                for (const std::uint64_t parent :
                     {event.parent1, event.parent2}) {
                    if (parent != 0)
                        out.unknownParents.push_back(parent);
                }
            }
            continue;
        }
        for (const std::uint64_t parent : {event.parent1, event.parent2}) {
            if (parent == 0 || !seen.insert(parent).second)
                continue;
            const auto it = birth.find(parent);
            if (it == birth.end()) {
                // Ancestor predates the ledger (resumed run).
                out.unknownParents.push_back(parent);
                out.reachesGeneration0 = false;
                continue;
            }
            frontier.push_back(it->second);
        }
    }
    std::sort(out.unknownParents.begin(), out.unknownParents.end());
    out.unknownParents.erase(std::unique(out.unknownParents.begin(),
                                         out.unknownParents.end()),
                             out.unknownParents.end());

    // Primary descent line: follow the fitter known parent. A corrupt
    // ledger can make a birth its own ancestor; the line stops before
    // it would revisit one.
    std::unordered_set<std::size_t> on_line;
    std::size_t index = champion;
    while (on_line.insert(index).second) {
        out.chain.push_back(index);
        const LineageEvent& event = events[index];
        if (event.op == BirthOp::Seed || event.op == BirthOp::Resumed)
            break;
        const auto p1 = birth.find(event.parent1);
        const auto p2 = birth.find(event.parent2);
        if (p1 == birth.end() && p2 == birth.end())
            break; // both parents predate the ledger
        if (p1 == birth.end()) {
            index = p2->second;
        } else if (p2 == birth.end()) {
            index = p1->second;
        } else {
            index = events[p2->second].fitness > events[p1->second].fitness
                        ? p2->second
                        : p1->second;
        }
    }
    return out;
}

} // namespace analysis
} // namespace gest
