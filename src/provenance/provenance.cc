#include "provenance/provenance.hh"

#include <algorithm>
#include <filesystem>

#include "util/fileutil.hh"
#include "util/logging.hh"
#include "util/sha256.hh"
#include "util/strutil.hh"

namespace gest {
namespace provenance {

namespace fs = std::filesystem;

std::string
inferArtifactKind(const std::string& rel_path)
{
    if (rel_path == "history.csv")
        return "history";
    if (rel_path == "digests.csv")
        return "digests";
    if (rel_path == "lineage.csv")
        return "lineage";
    if (rel_path == "analytics.csv")
        return "analytics";
    if (rel_path == "status.json")
        return "status";
    if (rel_path == "stats.txt" || rel_path == "metrics.json")
        return "stats";
    if (rel_path == "run_configuration.xml")
        return "config";
    if (rel_path == "run_template.txt")
        return "template";
    if (startsWith(rel_path, "population_") &&
        endsWith(rel_path, ".pop"))
        return "population";
    if (startsWith(rel_path, "waveforms/"))
        return "waveform";
    if (rel_path == "coverage.csv")
        return "coverage";
    if (rel_path == "alerts.csv")
        return "alerts";
    if (startsWith(rel_path, "attribution/"))
        return "attribution";
    if (endsWith(rel_path, "trace.json"))
        return "trace";
    if (endsWith(rel_path, ".txt"))
        return "individual";
    return "other";
}

std::string
sealManifest(const std::string& run_dir, const SealInfo& info,
             const std::map<std::string, std::string>& kinds)
{
    Manifest m;
    m.configHash = canonicalConfigHash(info.configText);
    m.configBaseDir = info.configBaseDir;
    m.measurementClass = info.measurementClass;
    m.fitnessClass = info.fitnessClass;
    m.hasSeed = true;
    m.seed = info.ga.seed;
    m.populationSize = info.ga.populationSize;
    m.individualSize = info.ga.individualSize;
    m.generations = info.ga.generations;
    m.threads = info.ga.threads;
    m.fitnessCacheSize = info.ga.fitnessCacheSize;
    m.elitism = info.ga.elitism;
    m.steadyStateOverride = info.steadyStateOverride;
    m.waveformTopK = info.waveformTopK;
    m.recordStats = info.recordStats;
    m.recordAttribution = info.recordAttribution;
    m.generationsCompleted = info.generationsCompleted;
    m.evaluations = info.evaluations;
    m.bestFitness = info.bestFitness;
    m.bestId = info.bestId;
    m.digestsSealed = info.digestsSealed;
    m.digestMsTotal = info.digestMsTotal;
    fillBuildInfo(m);

    // Walk the run directory; sorted relative paths make the artifact
    // table deterministic across filesystems.
    std::vector<std::string> rel_paths;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(run_dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (!it->is_regular_file(ec))
            continue;
        std::string rel =
            fs::relative(it->path(), run_dir, ec).generic_string();
        if (ec || rel.empty() || rel == "manifest.json")
            continue;
        rel_paths.push_back(std::move(rel));
    }
    std::sort(rel_paths.begin(), rel_paths.end());

    for (const std::string& rel : rel_paths) {
        ArtifactEntry entry;
        entry.path = rel;
        const std::string full = run_dir + "/" + rel;
        if (!sha256File(full, entry.sha256)) {
            warn("cannot checksum ", full, "; leaving it out of the "
                 "manifest");
            continue;
        }
        entry.bytes = static_cast<std::uint64_t>(
            fs::file_size(full, ec));
        const auto kind = kinds.find(rel);
        entry.kind =
            kind != kinds.end() ? kind->second : inferArtifactKind(rel);
        m.artifacts.push_back(std::move(entry));
    }

    const std::string path = run_dir + "/manifest.json";
    writeFile(path, formatManifest(m));
    debug("provenance sealed: ", m.artifacts.size(), " artifacts, ",
          m.digestsSealed, " digests in ", path);
    return path;
}

} // namespace provenance
} // namespace gest
