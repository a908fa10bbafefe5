#include "analysis/analytics.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "util/fileutil.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gest {
namespace analysis {

namespace {

/** Column headers for the class-mix counts, in isa::InstrClass order. */
const char* const kMixColumns[isa::numInstrClasses] = {
    "mix_short_int", "mix_long_int", "mix_float_simd",
    "mix_mem",       "mix_branch",   "mix_nop",
};

/** Linear-interpolated quantile of a sorted sample. */
double
quantile(const std::vector<double>& sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double position =
        p * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(position);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = position - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/** Column index by header name, or -1 when absent. */
int
columnIndex(const std::vector<std::string>& header,
            const std::string& name)
{
    const auto it = std::find(header.begin(), header.end(), name);
    return it == header.end()
               ? -1
               : static_cast<int>(it - header.begin());
}

} // namespace

std::array<std::uint64_t, isa::numInstrClasses>
populationClassMix(const isa::InstructionLibrary& lib,
                   const core::Population& pop)
{
    std::array<std::uint64_t, isa::numInstrClasses> mix{};
    for (const core::Individual& ind : pop.individuals) {
        const std::array<int, isa::numInstrClasses> breakdown =
            core::classBreakdown(lib, ind);
        for (int c = 0; c < isa::numInstrClasses; ++c)
            mix[static_cast<std::size_t>(c)] +=
                static_cast<std::uint64_t>(
                    breakdown[static_cast<std::size_t>(c)]);
    }
    return mix;
}

double
geneEntropyBits(const core::Population& pop)
{
    if (pop.individuals.empty())
        return 0.0;
    std::size_t max_len = 0;
    for (const core::Individual& ind : pop.individuals)
        max_len = std::max(max_len, ind.code.size());
    if (max_len == 0)
        return 0.0;

    double total = 0.0;
    std::unordered_map<std::uint32_t, std::size_t> counts;
    for (std::size_t pos = 0; pos < max_len; ++pos) {
        counts.clear();
        std::size_t present = 0;
        for (const core::Individual& ind : pop.individuals) {
            if (pos < ind.code.size()) {
                ++counts[ind.code[pos].defIndex];
                ++present;
            }
        }
        if (present == 0)
            continue;
        double entropy = 0.0;
        for (const auto& [def, count] : counts) {
            const double f = static_cast<double>(count) /
                             static_cast<double>(present);
            entropy -= f * std::log2(f);
        }
        total += entropy;
    }
    return total / static_cast<double>(max_len);
}

double
pairwiseDiversity(const core::Population& pop)
{
    const std::size_t n = pop.individuals.size();
    if (n < 2)
        return 0.0;

    double total = 0.0;
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            const auto& a = pop.individuals[i].code;
            const auto& b = pop.individuals[j].code;
            const std::size_t len = std::max(a.size(), b.size());
            if (len == 0)
                continue;
            std::size_t differing = 0;
            for (std::size_t pos = 0; pos < len; ++pos) {
                if (pos >= a.size() || pos >= b.size() ||
                    !(a[pos] == b[pos]))
                    ++differing;
            }
            total += static_cast<double>(differing) /
                     static_cast<double>(len);
            ++pairs;
        }
    }
    return pairs > 0 ? total / static_cast<double>(pairs) : 0.0;
}

AnalyticsRow
computeAnalytics(const isa::InstructionLibrary& lib,
                 const core::Population& pop)
{
    AnalyticsRow row;
    row.generation = pop.generation;
    row.classMix = populationClassMix(lib, pop);
    row.geneEntropyBits = geneEntropyBits(pop);
    row.pairwiseDiversity = pairwiseDiversity(pop);

    std::vector<double> fitness;
    fitness.reserve(pop.individuals.size());
    for (const core::Individual& ind : pop.individuals) {
        if (ind.evaluated)
            fitness.push_back(ind.fitness);
    }
    std::sort(fitness.begin(), fitness.end());
    if (!fitness.empty()) {
        row.fitnessMin = fitness.front();
        row.fitnessQ1 = quantile(fitness, 0.25);
        row.fitnessMedian = quantile(fitness, 0.5);
        row.fitnessQ3 = quantile(fitness, 0.75);
        row.fitnessMax = fitness.back();
    }
    return row;
}

void
tallyOperatorEfficacy(AnalyticsRow& row,
                      const std::vector<LineageEvent>& births,
                      const LineageLedger& ledger)
{
    for (const LineageEvent& event : births) {
        switch (event.op) {
          case BirthOp::Crossover:
          case BirthOp::Mutation: {
            const bool crossed = event.op == BirthOp::Crossover;
            double p1 = 0.0, p2 = 0.0;
            // Parents are in an earlier sealed generation; efficacy is
            // only chartable when both fitnesses are on record (a
            // resumed run's pre-ledger ancestors are not).
            if (!ledger.fitnessOf(event.parent1, p1) ||
                !ledger.fitnessOf(event.parent2, p2))
                break;
            (crossed ? row.crossoverChildren : row.mutationChildren)++;
            if (event.fitness > p1 && event.fitness > p2)
                (crossed ? row.crossoverImproved
                         : row.mutationImproved)++;
            break;
          }
          case BirthOp::EliteCopy:
            ++row.eliteCopies;
            break;
          case BirthOp::Seed:
          case BirthOp::Resumed:
            break;
        }
    }
}

std::string
analyticsCsvHeader()
{
    std::string out = "# gest-analytics v" +
                      std::to_string(analyticsCsvVersion) +
                      "\ngeneration";
    for (const char* column : kMixColumns)
        out += std::string(",") + column;
    out += ",gene_entropy_bits,pairwise_diversity,fitness_min,"
           "fitness_q1,fitness_median,fitness_q3,fitness_max,"
           "crossover_children,crossover_improved,mutation_children,"
           "mutation_improved,elite_copies\n";
    return out;
}

std::string
formatAnalyticsRow(const AnalyticsRow& row)
{
    std::ostringstream out;
    out.precision(17);
    out << row.generation;
    for (const std::uint64_t count : row.classMix)
        out << ',' << count;
    out << ',' << row.geneEntropyBits << ',' << row.pairwiseDiversity
        << ',' << row.fitnessMin << ',' << row.fitnessQ1 << ','
        << row.fitnessMedian << ',' << row.fitnessQ3 << ','
        << row.fitnessMax << ',' << row.crossoverChildren << ','
        << row.crossoverImproved << ',' << row.mutationChildren << ','
        << row.mutationImproved << ',' << row.eliteCopies << '\n';
    return out.str();
}

std::vector<AnalyticsRow>
parseAnalytics(const std::string& text)
{
    std::vector<AnalyticsRow> rows;
    std::vector<std::string> header;
    int generation = -1, entropy = -1, diversity = -1;
    std::array<int, isa::numInstrClasses> mix;
    mix.fill(-1);
    int fmin = -1, fq1 = -1, fmed = -1, fq3 = -1, fmax = -1;
    int xchildren = -1, ximproved = -1, mchildren = -1, mimproved = -1,
        elites = -1;

    int line_number = 0;
    for (const std::string& raw : split(text, '\n')) {
        ++line_number;
        const std::string line = trim(raw);
        if (line.empty() || line.front() == '#')
            continue;
        if (header.empty()) {
            header = split(line, ',');
            if (columnIndex(header, "generation") != 0)
                fatal("analytics.csv does not look like a gest "
                      "analytics file: expected a header starting with "
                      "'generation', got '", line, "'");
            generation = columnIndex(header, "generation");
            for (int c = 0; c < isa::numInstrClasses; ++c)
                mix[static_cast<std::size_t>(c)] =
                    columnIndex(header, kMixColumns[c]);
            entropy = columnIndex(header, "gene_entropy_bits");
            diversity = columnIndex(header, "pairwise_diversity");
            fmin = columnIndex(header, "fitness_min");
            fq1 = columnIndex(header, "fitness_q1");
            fmed = columnIndex(header, "fitness_median");
            fq3 = columnIndex(header, "fitness_q3");
            fmax = columnIndex(header, "fitness_max");
            xchildren = columnIndex(header, "crossover_children");
            ximproved = columnIndex(header, "crossover_improved");
            mchildren = columnIndex(header, "mutation_children");
            mimproved = columnIndex(header, "mutation_improved");
            elites = columnIndex(header, "elite_copies");
            continue;
        }
        const std::vector<std::string> fields = split(line, ',');
        if (fields.size() < header.size())
            fatal("analytics.csv is truncated at line ", line_number,
                  " (", fields.size(), " of ", header.size(),
                  " columns): delete that line to analyze the complete "
                  "generations");
        auto num = [&](int index, const char* what) -> double {
            if (index < 0)
                return 0.0;
            return parseDouble(fields[static_cast<std::size_t>(index)],
                               detail::concat(what, " (analytics.csv "
                                              "line ", line_number, ")"));
        };
        AnalyticsRow row;
        row.generation =
            static_cast<int>(num(generation, "generation"));
        for (int c = 0; c < isa::numInstrClasses; ++c)
            row.classMix[static_cast<std::size_t>(c)] =
                static_cast<std::uint64_t>(
                    num(mix[static_cast<std::size_t>(c)],
                        kMixColumns[c]));
        row.geneEntropyBits = num(entropy, "gene_entropy_bits");
        row.pairwiseDiversity = num(diversity, "pairwise_diversity");
        row.fitnessMin = num(fmin, "fitness_min");
        row.fitnessQ1 = num(fq1, "fitness_q1");
        row.fitnessMedian = num(fmed, "fitness_median");
        row.fitnessQ3 = num(fq3, "fitness_q3");
        row.fitnessMax = num(fmax, "fitness_max");
        row.crossoverChildren = static_cast<std::uint64_t>(
            num(xchildren, "crossover_children"));
        row.crossoverImproved = static_cast<std::uint64_t>(
            num(ximproved, "crossover_improved"));
        row.mutationChildren = static_cast<std::uint64_t>(
            num(mchildren, "mutation_children"));
        row.mutationImproved = static_cast<std::uint64_t>(
            num(mimproved, "mutation_improved"));
        row.eliteCopies =
            static_cast<std::uint64_t>(num(elites, "elite_copies"));
        rows.push_back(row);
    }
    if (header.empty())
        fatal("analytics.csv is empty — the run has not sealed its "
              "first generation yet");
    return rows;
}

bool
tryLoadAnalytics(const std::string& run_dir,
                 std::vector<AnalyticsRow>& out)
{
    std::string text;
    if (!tryReadFile(run_dir + "/analytics.csv", text))
        return false;
    out = parseAnalytics(text);
    return true;
}

} // namespace analysis
} // namespace gest
