#include "analysis/snapshot.hh"

#include <cstdio>

#include "stats/stats.hh"
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

void
fillSteadyCounters(StatusSnapshot& snapshot)
{
    // Look up without find-or-create: a run that never touches the
    // simulated fast path (native measurements, stats off) must not
    // grow eval.* entries in its stats.txt just by heartbeating.
    for (const stats::Counter* counter :
         stats::StatsRegistry::instance().counterList()) {
        if (counter->name() == "eval.steady_hits")
            snapshot.steadyHits = counter->value();
        else if (counter->name() == "eval.cycles_simulated")
            snapshot.cyclesSimulated = counter->value();
        else if (counter->name() == "eval.cycles_tiled")
            snapshot.cyclesTiled = counter->value();
    }
}

} // namespace analysis
} // namespace gest
