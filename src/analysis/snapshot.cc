#include "analysis/snapshot.hh"

#include <cmath>
#include <cstdio>
#include <limits>

#include "stats/stats.hh"
#include "util/jsonlite.hh"
#include "util/strutil.hh"

namespace gest {
namespace analysis {

std::string
formatStatusJson(const StatusSnapshot& snapshot)
{
    char buf[1536];
    std::snprintf(
        buf, sizeof(buf),
        "{\n"
        "  \"state\": \"%s\",\n"
        "  \"generation\": %d,\n"
        "  \"total_generations\": %d,\n"
        "  \"best_fitness\": %.17g,\n"
        "  \"average_fitness\": %.17g,\n"
        "  \"diversity\": %.6f,\n"
        "  \"gene_entropy_bits\": %.6f,\n"
        "  \"pairwise_diversity\": %.6f,\n"
        "  \"evaluations\": %llu,\n"
        "  \"cache_hit_rate\": %.6f,\n"
        "  \"evals_per_sec\": %.3f,\n"
        "  \"elapsed_seconds\": %.3f,\n"
        "  \"eta_seconds\": %.3f,\n"
        "  \"steady_hits\": %llu,\n"
        "  \"sim_evaluations\": %llu,\n"
        "  \"cycles_simulated\": %llu,\n"
        "  \"cycles_tiled\": %llu,\n",
        snapshot.running ? "running" : "completed", snapshot.generation,
        snapshot.totalGenerations, snapshot.bestFitness,
        snapshot.averageFitness, snapshot.diversity,
        snapshot.geneEntropyBits, snapshot.pairwiseDiversity,
        static_cast<unsigned long long>(snapshot.evaluations),
        snapshot.cacheHitRate, snapshot.evalsPerSec,
        snapshot.elapsedSeconds, snapshot.etaSeconds,
        static_cast<unsigned long long>(snapshot.steadyHits),
        static_cast<unsigned long long>(snapshot.simEvaluations),
        static_cast<unsigned long long>(snapshot.cyclesSimulated),
        static_cast<unsigned long long>(snapshot.cyclesTiled));
    std::string payload = buf;
    // Optional key: runs without provenance keep the pre-digest schema
    // byte-for-byte, so existing pollers see nothing new.
    if (snapshot.digestsSealed >= 0) {
        std::snprintf(buf, sizeof(buf),
                      "  \"digests_sealed\": %lld,\n",
                      static_cast<long long>(snapshot.digestsSealed));
        payload += buf;
    }
    // Optional block, same convention; a clean run says `"raised": 0`
    // — "no alerts", not "not watched".
    if (snapshot.alertsRaised >= 0) {
        payload += "  \"alerts\": {\n    \"raised\": " +
                   std::to_string(snapshot.alertsRaised) + ",\n";
        payload += "    \"last_generation\": " +
                   std::to_string(snapshot.lastAlertGeneration) + ",\n";
        payload += "    \"last_rule\": \"" +
                   jsonEscape(snapshot.lastAlertRule) + "\"\n  },\n";
    }
    payload += "  \"git_sha\": \"" + jsonEscape(snapshot.gitSha) +
               "\",\n";
    payload += "  \"build\": \"" + jsonEscape(snapshot.build) + "\",\n";
    payload += "  \"listen\": \"" + jsonEscape(snapshot.listen) +
               "\"\n}\n";
    return payload;
}

namespace {

/**
 * Set the integer @p out from the number at @p key when present and in
 * range (an out-of-range conversion is undefined behaviour).
 */
template <typename T>
void
readInteger(const json::Value& object, const char* key, T& out)
{
    const double v = object.numberOr(key, -0x1p70);
    if (v >= static_cast<double>(std::numeric_limits<T>::min()) &&
        v < std::ldexp(1.0, std::numeric_limits<T>::digits))
        out = static_cast<T>(v);
}

} // namespace

bool
parseStatusJson(std::string_view text, StatusSnapshot& out,
                std::string* error)
{
    json::Value status;
    std::string parse_error;
    if (!json::parse(text, status, &parse_error)) {
        if (error)
            *error = "not valid JSON: " + parse_error;
        return false;
    }
    const std::string state = status.stringOr("state", "");
    if (state != "running" && state != "completed") {
        if (error)
            *error = "not a heartbeat: \"state\" is neither \"running\" "
                     "nor \"completed\"";
        return false;
    }
    out.running = state == "running";
    readInteger(status, "generation", out.generation);
    readInteger(status, "total_generations", out.totalGenerations);
    out.bestFitness = status.numberOr("best_fitness", out.bestFitness);
    out.averageFitness =
        status.numberOr("average_fitness", out.averageFitness);
    out.diversity = status.numberOr("diversity", out.diversity);
    out.geneEntropyBits =
        status.numberOr("gene_entropy_bits", out.geneEntropyBits);
    out.pairwiseDiversity =
        status.numberOr("pairwise_diversity", out.pairwiseDiversity);
    readInteger(status, "evaluations", out.evaluations);
    out.cacheHitRate = status.numberOr("cache_hit_rate", out.cacheHitRate);
    out.evalsPerSec = status.numberOr("evals_per_sec", out.evalsPerSec);
    out.elapsedSeconds =
        status.numberOr("elapsed_seconds", out.elapsedSeconds);
    out.etaSeconds = status.numberOr("eta_seconds", out.etaSeconds);
    readInteger(status, "steady_hits", out.steadyHits);
    readInteger(status, "sim_evaluations", out.simEvaluations);
    readInteger(status, "cycles_simulated", out.cyclesSimulated);
    readInteger(status, "cycles_tiled", out.cyclesTiled);
    readInteger(status, "digests_sealed", out.digestsSealed);
    if (const json::Value* alerts = status.find("alerts")) {
        readInteger(*alerts, "raised", out.alertsRaised);
        readInteger(*alerts, "last_generation", out.lastAlertGeneration);
        out.lastAlertRule = alerts->stringOr("last_rule", out.lastAlertRule);
    }
    out.gitSha = status.stringOr("git_sha", out.gitSha);
    out.build = status.stringOr("build", out.build);
    out.listen = status.stringOr("listen", out.listen);
    return true;
}

void
fillSteadyCounters(StatusSnapshot& snapshot)
{
    // Look up without find-or-create: a run that never touches the
    // simulated fast path (native measurements, stats off) must not
    // grow eval.* entries in its metrics.prom just by heartbeating.
    for (const stats::Counter* counter :
         stats::StatsRegistry::instance().counterList()) {
        if (counter->name() == "eval.steady_hits")
            snapshot.steadyHits = counter->value();
        else if (counter->name() == "measure.sim.evaluations")
            snapshot.simEvaluations = counter->value();
        else if (counter->name() == "eval.cycles_simulated")
            snapshot.cyclesSimulated = counter->value();
        else if (counter->name() == "eval.cycles_tiled")
            snapshot.cyclesTiled = counter->value();
    }
}

} // namespace analysis
} // namespace gest
