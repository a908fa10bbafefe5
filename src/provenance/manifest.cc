#include "provenance/manifest.hh"

#include <algorithm>
#include <ctime>
#include <sstream>

#include <sys/utsname.h>

#include "util/fileutil.hh"
#include "util/jsonlite.hh"
#include "util/logging.hh"
#include "util/sha256.hh"
#include "util/strutil.hh"
#include "xml/xml.hh"

// The git revision and build type are baked into this translation unit
// alone (src/CMakeLists.txt), so a new commit dirties one object file,
// not the whole library.
#ifndef GEST_GIT_SHA
#define GEST_GIT_SHA "unknown"
#endif
#ifndef GEST_BUILD_TYPE
#define GEST_BUILD_TYPE "unknown"
#endif

namespace gest {
namespace provenance {

const char* const rngGeneratorId = "xoshiro256** (splitmix64-seeded)";

namespace {

/**
 * Render @p elem into the canonical form canonicalConfigHash() hashes:
 * tag, attributes sorted by name, trimmed text, then children in
 * document order — each field length-delimited so renderings can never
 * collide across structure boundaries.
 */
void
canonicalize(const xml::Element& elem, std::ostringstream& os)
{
    os << "e" << elem.name().size() << ":" << elem.name();

    std::vector<const xml::Attribute*> attrs;
    for (const xml::Attribute& attr : elem.attributes())
        attrs.push_back(&attr);
    std::sort(attrs.begin(), attrs.end(),
              [](const xml::Attribute* a, const xml::Attribute* b) {
                  return a->name < b->name;
              });
    for (const xml::Attribute* attr : attrs)
        os << "a" << attr->name.size() << ":" << attr->name << "="
           << attr->value.size() << ":" << attr->value;

    const std::string text = trim(elem.text());
    if (!text.empty())
        os << "t" << text.size() << ":" << text;

    os << "[";
    for (const std::unique_ptr<xml::Element>& child : elem.children())
        canonicalize(*child, os);
    os << "]";
}

std::string
isoNowUtc()
{
    const std::time_t now = std::time(nullptr);
    std::tm tm_utc{};
    gmtime_r(&now, &tm_utc);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
    return buf;
}

std::string
quoted(const std::string& s)
{
    return "\"" + jsonEscape(s) + "\"";
}

std::string
formatDouble(double v)
{
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

} // namespace

std::string
canonicalConfigHash(const std::string& xml_text)
{
    const xml::Document doc =
        xml::parse(xml_text, "configuration (canonical hash)");
    std::ostringstream os;
    canonicalize(doc.root(), os);
    return sha256Hex(os.str());
}

std::string
currentBuildFingerprint()
{
#if defined(__VERSION__)
    const std::string compiler = __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    return compiler + ", " + GEST_BUILD_TYPE + ", " + GEST_GIT_SHA;
}

std::string
currentGitSha()
{
    return GEST_GIT_SHA;
}

void
fillBuildInfo(Manifest& m)
{
#if defined(__VERSION__)
    m.compiler = __VERSION__;
#else
    m.compiler = "unknown";
#endif
    m.buildType = GEST_BUILD_TYPE;
    m.gitSha = GEST_GIT_SHA;

    struct utsname uts{};
    if (uname(&uts) == 0) {
        m.os = std::string(uts.sysname) + " " + uts.release;
        m.machine = uts.machine;
    }
    m.rngGenerator = rngGeneratorId;
    if (m.created.empty())
        m.created = isoNowUtc();
}

std::string
buildFingerprintOf(const Manifest& m)
{
    return m.compiler + ", " + m.buildType + ", " + m.gitSha;
}

std::string
formatManifest(const Manifest& m)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"gest_manifest_version\": " << m.version << ",\n";
    os << "  \"created\": " << quoted(m.created) << ",\n";

    os << "  \"config\": {\n";
    os << "    \"hash\": " << quoted(m.configHash) << ",\n";
    os << "    \"base_dir\": " << quoted(m.configBaseDir) << ",\n";
    os << "    \"measurement_class\": " << quoted(m.measurementClass)
       << ",\n";
    os << "    \"fitness_class\": " << quoted(m.fitnessClass) << "\n";
    os << "  },\n";

    os << "  \"rng\": {\n";
    if (m.hasSeed)
        os << "    \"seed\": \"" << m.seed << "\",\n";
    os << "    \"generator\": " << quoted(m.rngGenerator) << "\n";
    os << "  },\n";

    os << "  \"ga\": {\n";
    os << "    \"population_size\": " << m.populationSize << ",\n";
    os << "    \"individual_size\": " << m.individualSize << ",\n";
    os << "    \"generations\": " << m.generations << ",\n";
    os << "    \"threads\": " << m.threads << ",\n";
    os << "    \"fitness_cache_size\": " << m.fitnessCacheSize << ",\n";
    os << "    \"elitism\": " << (m.elitism ? "true" : "false") << "\n";
    os << "  },\n";

    os << "  \"build\": {\n";
    os << "    \"compiler\": " << quoted(m.compiler) << ",\n";
    os << "    \"build_type\": " << quoted(m.buildType) << ",\n";
    os << "    \"git_sha\": " << quoted(m.gitSha) << "\n";
    os << "  },\n";

    os << "  \"platform\": {\n";
    os << "    \"os\": " << quoted(m.os) << ",\n";
    os << "    \"machine\": " << quoted(m.machine) << "\n";
    os << "  },\n";

    os << "  \"settings\": {\n";
    os << "    \"steady_state_override\": "
       << (m.steadyStateOverride
               ? (*m.steadyStateOverride ? "true" : "false")
               : "null")
       << ",\n";
    os << "    \"waveform_top_k\": " << m.waveformTopK << ",\n";
    os << "    \"record_stats\": " << (m.recordStats ? "true" : "false");
    // Only emitted when on: manifests of runs without attribution stay
    // byte-identical to pre-feature builds (the digests_sealed
    // optional-key convention).
    if (m.recordAttribution)
        os << ",\n    \"record_attribution\": true";
    os << "\n  },\n";

    os << "  \"run\": {\n";
    os << "    \"generations_completed\": " << m.generationsCompleted
       << ",\n";
    os << "    \"evaluations\": " << m.evaluations << ",\n";
    os << "    \"best_fitness\": " << formatDouble(m.bestFitness)
       << ",\n";
    os << "    \"best_id\": " << m.bestId << ",\n";
    os << "    \"digests_sealed\": " << m.digestsSealed << ",\n";
    os << "    \"digest_ms_total\": " << formatDouble(m.digestMsTotal)
       << "\n";
    os << "  },\n";

    os << "  \"artifacts\": [\n";
    for (std::size_t i = 0; i < m.artifacts.size(); ++i) {
        const ArtifactEntry& a = m.artifacts[i];
        os << "    {\"path\": " << quoted(a.path)
           << ", \"sha256\": " << quoted(a.sha256)
           << ", \"bytes\": " << a.bytes
           << ", \"kind\": " << quoted(a.kind) << "}"
           << (i + 1 < m.artifacts.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";
    return os.str();
}

bool
loadManifest(const std::string& run_dir, Manifest& out, std::string* error)
{
    out = Manifest();
    const std::string path = run_dir + "/manifest.json";
    std::string text;
    if (!tryReadFile(path, text)) {
        if (error)
            *error = path + " is missing: not a provenance-sealed run "
                            "(recorded by a pre-provenance build, or "
                            "with <output provenance=\"false\"/>)";
        return false;
    }
    json::Value root;
    std::string parse_error;
    if (!json::parse(text, root, &parse_error)) {
        if (error)
            *error = path + " is not valid JSON: " + parse_error;
        return false;
    }
    out.version = static_cast<int>(
        root.numberOr("gest_manifest_version", 0));
    if (out.version != manifestVersion) {
        if (error)
            *error = path + " has schema version " +
                     std::to_string(out.version) +
                     "; this build understands version " +
                     std::to_string(manifestVersion);
        return false;
    }
    out.created = root.stringOr("created", "");

    if (const json::Value* config = root.find("config")) {
        out.configHash = config->stringOr("hash", "");
        out.configBaseDir = config->stringOr("base_dir", "");
        out.measurementClass =
            config->stringOr("measurement_class", "");
        out.fitnessClass = config->stringOr("fitness_class", "");
    }
    if (const json::Value* rng = root.find("rng")) {
        const std::string seed = rng->stringOr("seed", "");
        if (!seed.empty()) {
            out.hasSeed = true;
            out.seed = parseUint64(seed, "manifest seed");
        }
        out.rngGenerator = rng->stringOr("generator", "");
    }
    if (const json::Value* ga = root.find("ga")) {
        out.populationSize =
            static_cast<int>(ga->numberOr("population_size", 0));
        out.individualSize =
            static_cast<int>(ga->numberOr("individual_size", 0));
        out.generations =
            static_cast<int>(ga->numberOr("generations", 0));
        out.threads = static_cast<int>(ga->numberOr("threads", 1));
        out.fitnessCacheSize =
            static_cast<int>(ga->numberOr("fitness_cache_size", 0));
        if (const json::Value* elitism = ga->find("elitism"))
            out.elitism = elitism->boolean;
    }
    if (const json::Value* build = root.find("build")) {
        out.compiler = build->stringOr("compiler", "");
        out.buildType = build->stringOr("build_type", "");
        out.gitSha = build->stringOr("git_sha", "");
    }
    if (const json::Value* platform = root.find("platform")) {
        out.os = platform->stringOr("os", "");
        out.machine = platform->stringOr("machine", "");
    }
    if (const json::Value* settings = root.find("settings")) {
        if (const json::Value* steady =
                settings->find("steady_state_override")) {
            if (steady->type == json::Value::Type::Bool)
                out.steadyStateOverride = steady->boolean;
        }
        out.waveformTopK =
            static_cast<int>(settings->numberOr("waveform_top_k", 0));
        if (const json::Value* stats = settings->find("record_stats"))
            out.recordStats = stats->boolean;
        // Manifests sealed by older builds also carry record_analytics
        // and record_coverage; those recorders now always run, so the
        // keys are read past.
        if (const json::Value* attr =
                settings->find("record_attribution"))
            out.recordAttribution = attr->boolean;
    }
    if (const json::Value* run = root.find("run")) {
        out.generationsCompleted =
            static_cast<int>(run->numberOr("generations_completed", 0));
        out.evaluations = static_cast<std::uint64_t>(
            run->numberOr("evaluations", 0));
        out.bestFitness = run->numberOr("best_fitness", 0.0);
        out.bestId =
            static_cast<std::uint64_t>(run->numberOr("best_id", 0));
        out.digestsSealed = static_cast<std::uint64_t>(
            run->numberOr("digests_sealed", 0));
        out.digestMsTotal = run->numberOr("digest_ms_total", 0.0);
    }
    if (const json::Value* artifacts = root.find("artifacts")) {
        for (const json::Value& entry : artifacts->array) {
            ArtifactEntry a;
            a.path = entry.stringOr("path", "");
            a.sha256 = entry.stringOr("sha256", "");
            a.bytes = static_cast<std::uint64_t>(
                entry.numberOr("bytes", 0));
            a.kind = entry.stringOr("kind", "");
            if (!a.path.empty())
                out.artifacts.push_back(std::move(a));
        }
    }
    return true;
}

} // namespace provenance
} // namespace gest
