#include "attribution/coverage.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "attribution/attribution.hh"
#include "core/population.hh"
#include "stats/stats.hh"
#include "util/fileutil.hh"
#include "util/ledger.hh"
#include "util/logging.hh"

namespace gest {
namespace attribution {

namespace {

struct CoverageStats
{
    stats::Gauge& cellsSeen;
    stats::Gauge& cellsTotal;
    stats::Gauge& saturationPct;
    stats::Counter& novelCells;
    stats::Counter& touches;
};

CoverageStats&
coverageStats()
{
    static CoverageStats s{
        stats::StatsRegistry::instance().gauge(
            "coverage.cells_seen",
            "search-space cells evaluated so far"),
        stats::StatsRegistry::instance().gauge(
            "coverage.cells_total",
            "size of the instruction x operand-bin universe"),
        stats::StatsRegistry::instance().gauge(
            "coverage.saturation_pct",
            "percentage of the search space evaluated"),
        stats::StatsRegistry::instance().counter(
            "coverage.novel_cells",
            "cells seen for the first time"),
        stats::StatsRegistry::instance().counter(
            "coverage.touches", "cell touches observed"),
    };
    return s;
}

} // namespace

CoverageLedger::CoverageLedger(const isa::InstructionLibrary& lib)
    : _lib(lib)
{
    // Lay the universe out def by def, slot by slot: an operand-less
    // definition owns a single cell, an operand slot owns one cell per
    // value bin.
    for (std::size_t d = 0; d < lib.numInstructions(); ++d) {
        const isa::InstructionDef& def = lib.instruction(d);
        DefCells dc;
        dc.base = static_cast<std::uint32_t>(_cellsTotal);
        dc.firstSlot = static_cast<std::uint32_t>(_slots.size());
        dc.numSlots =
            static_cast<std::uint32_t>(def.operandIndex.size());
        dc.cls = def.cls;
        if (def.operandIndex.empty()) {
            dc.count = 1;
        } else {
            for (std::uint32_t op_index : def.operandIndex) {
                SlotCells slot;
                slot.cellBase =
                    static_cast<std::uint32_t>(_cellsTotal) + dc.count;
                slot.operandIndex = op_index;
                _slots.push_back(slot);
                dc.count += static_cast<std::uint32_t>(
                    isa::operandBinCount(lib.operand(op_index)));
            }
        }
        _classTotal[static_cast<int>(def.cls)] += dc.count;
        _cellsTotal += dc.count;
        _defs.push_back(dc);
    }
    _bits.assign((_cellsTotal + 63) / 64, 0);
}

bool
CoverageLedger::touch(std::uint64_t cell, isa::InstrClass cls)
{
    const std::uint64_t mask = std::uint64_t(1) << (cell & 63);
    std::uint64_t& word = _bits[cell >> 6];
    if (word & mask)
        return false;
    word |= mask;
    ++_cellsSeen;
    ++_classSeen[static_cast<int>(cls)];
    return true;
}

std::uint64_t
CoverageLedger::observe(
    const std::vector<isa::InstructionInstance>& code,
    std::uint64_t* touches)
{
    std::uint64_t fresh = 0;
    std::uint64_t touched = 0;
    for (const isa::InstructionInstance& gene : code) {
        if (gene.defIndex >= _defs.size())
            continue;
        const DefCells& dc = _defs[gene.defIndex];
        if (dc.numSlots == 0) {
            ++touched;
            fresh += touch(dc.base, dc.cls) ? 1 : 0;
            continue;
        }
        const std::uint32_t slots =
            std::min<std::uint32_t>(dc.numSlots,
                                    static_cast<std::uint32_t>(
                                        gene.operandChoice.size()));
        for (std::uint32_t s = 0; s < slots; ++s) {
            const SlotCells& slot = _slots[dc.firstSlot + s];
            const std::size_t bin = isa::operandBin(
                _lib.operand(slot.operandIndex), gene.operandChoice[s]);
            ++touched;
            fresh += touch(slot.cellBase + bin, dc.cls) ? 1 : 0;
        }
    }
    if (touches)
        *touches += touched;
    return fresh;
}

CoverageLedger::Snapshot
CoverageLedger::onGenerationEvaluated(const core::Population& pop,
                                      const core::GenerationRecord& rec)
{
    std::uint64_t fresh = 0;
    std::uint64_t touched = 0;
    for (const core::Individual& ind : pop.individuals)
        fresh += observe(ind.code, &touched);

    _lastGeneration = rec.generation;
    _lastNewCells = fresh;
    _lastTouches = touched;

    const Snapshot snap = snapshot();
    coverageStats().cellsSeen.set(
        static_cast<double>(snap.cellsSeen));
    coverageStats().cellsTotal.set(
        static_cast<double>(snap.cellsTotal));
    coverageStats().saturationPct.set(snap.saturationPct);
    coverageStats().novelCells.inc(fresh);
    coverageStats().touches.inc(touched);
    return snap;
}

CoverageLedger::Snapshot
CoverageLedger::snapshot() const
{
    Snapshot snap;
    snap.generation = _lastGeneration;
    snap.cellsSeen = _cellsSeen;
    snap.cellsTotal = _cellsTotal;
    snap.newCells = _lastNewCells;
    snap.touches = _lastTouches;
    snap.saturationPct =
        _cellsTotal > 0 ? 100.0 * static_cast<double>(snap.cellsSeen) /
                              static_cast<double>(_cellsTotal)
                        : 0.0;
    snap.noveltyRate =
        snap.touches > 0 ? static_cast<double>(snap.newCells) /
                               static_cast<double>(snap.touches)
                         : 0.0;
    for (int c = 0; c < isa::numInstrClasses; ++c) {
        snap.classes[c].seen = _classSeen[c];
        snap.classes[c].total = _classTotal[c];
    }
    return snap;
}

std::string
coverageCsvHeader(const CoverageLedger& ledger)
{
    const CoverageLedger::Snapshot empty = ledger.snapshot();
    std::ostringstream out;
    out << "# gest-coverage v" << coverageCsvVersion << "\n";
    out << "# cells_total " << ledger.cellsTotal() << "\n";
    for (int c = 0; c < isa::numInstrClasses; ++c)
        out << "# class " << classToken(static_cast<isa::InstrClass>(c))
            << " cells " << empty.classes[c].total << "\n";
    out << "generation,cells_new,cells_seen,cells_total,"
           "saturation_pct,novelty_rate";
    for (int c = 0; c < isa::numInstrClasses; ++c)
        out << ",seen_" << classToken(static_cast<isa::InstrClass>(c));
    out << "\n";
    return out.str();
}

std::string
formatCoverageCsvRow(const CoverageLedger::Snapshot& snap)
{
    char row[256];
    std::snprintf(row, sizeof(row), "%d,%llu,%llu,%llu,%.6f,%.6f",
                  snap.generation,
                  static_cast<unsigned long long>(snap.newCells),
                  static_cast<unsigned long long>(snap.cellsSeen),
                  static_cast<unsigned long long>(snap.cellsTotal),
                  snap.saturationPct, snap.noveltyRate);
    std::string out = row;
    for (int c = 0; c < isa::numInstrClasses; ++c)
        out += "," + std::to_string(snap.classes[c].seen);
    return out + "\n";
}

bool
loadCoverage(const std::string& run_dir,
             std::vector<CoverageLedger::Snapshot>& out)
{
    out.clear();
    std::string text;
    const std::string path = run_dir + "/coverage.csv";
    if (!tryReadFile(path, text))
        return false;
    LedgerReader reader(path, "coverage", coverageCsvVersion,
                        {"cells_new", "cells_seen", "cells_total",
                         "saturation_pct", "novelty_rate"});
    reader.read(text, [&] {
        CoverageLedger::Snapshot snap;
        snap.generation = static_cast<int>(reader.integer("generation"));
        snap.newCells = reader.count("cells_new");
        snap.cellsSeen = reader.count("cells_seen");
        snap.cellsTotal = reader.count("cells_total");
        snap.saturationPct = reader.number("saturation_pct");
        snap.noveltyRate = reader.number("novelty_rate");
        for (int c = 0; c < isa::numInstrClasses; ++c)
            snap.classes[c].seen = reader.count(
                std::string("seen_") +
                classToken(static_cast<isa::InstrClass>(c)));
        out.push_back(snap);
    });
    return true;
}

std::string
formatCoverageJson(const CoverageLedger::Snapshot& snap)
{
    char head[320];
    std::snprintf(
        head, sizeof(head),
        "{\n  \"generation\": %d,\n  \"cells_seen\": %llu,\n"
        "  \"cells_total\": %llu,\n  \"cells_new\": %llu,\n"
        "  \"saturation_pct\": %.6f,\n  \"novelty_rate\": %.6f,\n"
        "  \"classes\": [",
        snap.generation,
        static_cast<unsigned long long>(snap.cellsSeen),
        static_cast<unsigned long long>(snap.cellsTotal),
        static_cast<unsigned long long>(snap.newCells),
        snap.saturationPct, snap.noveltyRate);
    std::string out = head;
    for (int c = 0; c < isa::numInstrClasses; ++c) {
        char row[128];
        std::snprintf(
            row, sizeof(row),
            "%s\n    {\"class\": \"%s\", \"seen\": %llu, "
            "\"total\": %llu}",
            c == 0 ? "" : ",",
            classToken(static_cast<isa::InstrClass>(c)),
            static_cast<unsigned long long>(snap.classes[c].seen),
            static_cast<unsigned long long>(snap.classes[c].total));
        out += row;
    }
    out += "\n  ]\n}\n";
    return out;
}

} // namespace attribution
} // namespace gest
