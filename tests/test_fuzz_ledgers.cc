/**
 * @file
 * Deterministic mutation fuzzing of every run-directory reader: the six
 * CSV ledgers (history, lineage, analytics, coverage, alerts, digests)
 * and the status.json heartbeat. The seeds come from a small generated
 * run directory; each mutation (byte flips, truncation at every line,
 * dropped or doubled commas, CRLF line ends, a bumped schema version)
 * is written over one artifact, and every reader of the directory then
 * runs. A reader must return or throw FatalError — loadDigests,
 * `gest top`'s poller, the registry and parseStatusJson must not even
 * throw — and never crash. The RNG seed and the mutation budget are
 * fixed, so a failure reproduces exactly; the sanitizer build runs the
 * same test.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analytics.hh"
#include "analysis/health.hh"
#include "analysis/lineage.hh"
#include "analysis/snapshot.hh"
#include "attribution/coverage.hh"
#include "config/config.hh"
#include "output/report.hh"
#include "output/top.hh"
#include "provenance/digest.hh"
#include "registry/registry.hh"
#include "util/fileutil.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gest {
namespace {

const char* kRunConfig = R"(
<gest_configuration>
  <ga population_size="6" individual_size="5" mutation_rate="0.2"
      generations="6" seed="23"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a7" min_cycles="256"/>
  </measurement>
  <fitness class="DefaultFitness"/>
  <output directory="run" health_plateau="1"/>
</gest_configuration>
)";

/** The fuzzed artifacts, each with its `# gest-<kind>` schema tag. */
const std::vector<std::pair<std::string, std::string>> kLedgers = {
    {"history.csv", "history"},   {"lineage.csv", "lineage"},
    {"analytics.csv", "analytics"}, {"coverage.csv", "coverage"},
    {"alerts.csv", "alerts"},     {"digests.csv", "digests"},
};

/** Run @p fn; a FatalError is an accepted outcome. */
void
fatalOrReturn(const std::function<void()>& fn)
{
    try {
        fn();
    } catch (const FatalError&) {
    }
}

/**
 * Every reader of @p run (inside @p workspace). Anything but a return
 * or a FatalError from the loaders that may fatal() escapes and fails
 * the test.
 */
void
readEverything(const std::string& workspace, const std::string& run)
{
    fatalOrReturn([&] { output::analyzeRun(run); });
    fatalOrReturn([&] {
        output::formatExplain(output::analyzeExplain(run));
    });
    fatalOrReturn([&] {
        std::vector<analysis::AnalyticsRow> rows;
        analysis::tryLoadAnalytics(run, rows);
    });
    fatalOrReturn([&] {
        std::vector<attribution::CoverageLedger::Snapshot> rows;
        attribution::loadCoverage(run, rows);
    });
    fatalOrReturn([&] {
        std::vector<analysis::Alert> alerts;
        analysis::loadAlerts(run, alerts);
    });

    std::vector<provenance::DigestRow> digests;
    std::string error;
    provenance::loadDigests(run, digests, &error);

    std::string status_text;
    if (tryReadFile(run + "/status.json", status_text)) {
        analysis::StatusSnapshot status;
        analysis::parseStatusJson(status_text, status, &error);
    }

    output::TopFilePoller poller(run);
    output::TopSnapshot snapshot;
    poller.poll(snapshot);
    output::renderTop(snapshot);

    registry::formatRegistryCsv(registry::scanWorkspace(workspace));
}

class FuzzLedgers : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        _workspace = makeTempDir("gest-fuzz");
        _run = _workspace + "/run";
        config::RunConfig cfg = config::parseConfig(kRunConfig);
        cfg.outputDirectory = _run;
        config::runFromConfig(cfg);
        // Unsealed, so the registry reads history.csv and status.json
        // instead of the manifest.
        removeAll(_run + "/manifest.json");
        for (const auto& [file, kind] : kLedgers)
            _seeds[file] = readFile(_run + "/" + file);
        _seeds["status.json"] = readFile(_run + "/status.json");
    }

    static void TearDownTestSuite() { removeAll(_workspace); }

    /** Write @p text over @p file, read everything, restore the seed. */
    static void tryMutation(const std::string& file, const std::string& text)
    {
        writeFile(_run + "/" + file, text);
        readEverything(_workspace, _run);
        writeFile(_run + "/" + file, _seeds[file]);
    }

    static std::string _workspace;
    static std::string _run;
    static std::map<std::string, std::string> _seeds;
};

std::string FuzzLedgers::_workspace;
std::string FuzzLedgers::_run;
std::map<std::string, std::string> FuzzLedgers::_seeds;

TEST_F(FuzzLedgers, SeedRunHasRowsInEveryLedger)
{
    for (const auto& [file, kind] : kLedgers) {
        const std::vector<std::string> lines = split(_seeds[file], '\n');
        EXPECT_GE(lines.size(), 3u) << file << " has no data row";
        EXPECT_TRUE(startsWith(_seeds[file], "# gest-" + kind + " v"))
            << file;
    }
    readEverything(_workspace, _run);
}

TEST_F(FuzzLedgers, EveryReaderSurvivesMutatedArtifacts)
{
    std::mt19937_64 rng(0x6e57f022);
    const std::string alphabet = "0123456789,.-#\n\r ve\"{}:x";
    std::vector<std::string> files;
    for (const auto& [file, seed] : _seeds)
        files.push_back(file);

    for (const std::string& file : files) {
        const std::string& seed = _seeds[file];
        ASSERT_FALSE(seed.empty()) << file;
        auto at = [&](std::size_t n) {
            return static_cast<std::size_t>(rng() % n);
        };

        // Byte flips: one to three bytes overwritten.
        for (int i = 0; i < 60; ++i) {
            std::string text = seed;
            for (int k = 0, flips = 1 + static_cast<int>(at(3)); k < flips;
                 ++k) {
                const std::size_t pos = at(text.size());
                text[pos] = (rng() & 1)
                                ? alphabet[at(alphabet.size())]
                                : static_cast<char>(rng() & 0xff);
            }
            tryMutation(file, text);
        }

        // Truncation at every line: at its start and in its middle.
        for (std::size_t start = 0; start < seed.size();) {
            const std::size_t end = seed.find('\n', start);
            const std::size_t stop =
                end == std::string::npos ? seed.size() : end;
            tryMutation(file, seed.substr(0, start));
            tryMutation(file, seed.substr(0, start + (stop - start) / 2));
            start = stop + 1;
        }

        // Dropped and doubled commas.
        std::vector<std::size_t> commas;
        for (std::size_t i = 0; i < seed.size(); ++i) {
            if (seed[i] == ',')
                commas.push_back(i);
        }
        for (int i = 0; i < 20 && !commas.empty(); ++i) {
            std::string text = seed;
            const std::size_t pos = commas[at(commas.size())];
            if (i % 2 == 0)
                text.erase(pos, 1);
            else
                text.insert(pos, 1, ',');
            tryMutation(file, text);
        }

        tryMutation(file, replaceAll(seed, "\n", "\r\n"));
        tryMutation(file, replaceAll(seed, " v1\n", " v99\n"));
        tryMutation(file, replaceAll(seed, " v2\n", " v99\n"));
        tryMutation(file, "");
    }
}

TEST_F(FuzzLedgers, CrlfLedgersReadLikeTheirLfSeeds)
{
    const auto crlf = [](const std::string& text) {
        return replaceAll(text, "\n", "\r\n");
    };
    const std::string before =
        output::formatReportJson(output::analyzeRun(_run)) +
        output::formatExplain(output::analyzeExplain(_run));
    std::vector<attribution::CoverageLedger::Snapshot> coverage_before;
    ASSERT_TRUE(attribution::loadCoverage(_run, coverage_before));
    std::vector<analysis::Alert> alerts_before;
    ASSERT_TRUE(analysis::loadAlerts(_run, alerts_before));
    std::vector<provenance::DigestRow> digests_before;
    std::string error;
    ASSERT_TRUE(provenance::loadDigests(_run, digests_before, &error))
        << error;

    for (const auto& [file, kind] : kLedgers)
        writeFile(_run + "/" + file, crlf(_seeds[file]));
    EXPECT_EQ(output::formatReportJson(output::analyzeRun(_run)) +
                  output::formatExplain(output::analyzeExplain(_run)),
              before);
    std::vector<attribution::CoverageLedger::Snapshot> coverage;
    ASSERT_TRUE(attribution::loadCoverage(_run, coverage));
    ASSERT_EQ(coverage.size(), coverage_before.size());
    EXPECT_EQ(attribution::formatCoverageCsvRow(coverage.back()),
              attribution::formatCoverageCsvRow(coverage_before.back()));
    std::vector<analysis::Alert> alerts;
    ASSERT_TRUE(analysis::loadAlerts(_run, alerts));
    ASSERT_EQ(alerts.size(), alerts_before.size());
    for (std::size_t i = 0; i < alerts.size(); ++i)
        EXPECT_EQ(analysis::formatAlertCsvRow(alerts[i]),
                  analysis::formatAlertCsvRow(alerts_before[i]));
    std::vector<provenance::DigestRow> digests;
    ASSERT_TRUE(provenance::loadDigests(_run, digests, &error)) << error;
    ASSERT_EQ(digests.size(), digests_before.size());
    EXPECT_EQ(digests.back().digest, digests_before.back().digest);

    for (const auto& [file, kind] : kLedgers)
        writeFile(_run + "/" + file, _seeds[file]);
}

TEST_F(FuzzLedgers, EveryLedgerRejectsANewerSchema)
{
    for (const auto& [file, kind] : kLedgers) {
        const std::string tag = "# gest-" + kind + " v";
        const std::string& seed = _seeds[file];
        ASSERT_TRUE(startsWith(seed, tag)) << file;
        const int version = static_cast<int>(
            parseInt(seed.substr(tag.size(), seed.find('\n') - tag.size()),
                     "seed schema version"));
        const std::string newer =
            tag + std::to_string(version + 1) +
            seed.substr(seed.find('\n'));
        writeFile(_run + "/" + file, newer);

        std::string message;
        try {
            if (file == "history.csv") {
                output::analyzeRun(_run);
            } else if (file == "lineage.csv") {
                analysis::loadLineage(_run);
            } else if (file == "analytics.csv") {
                std::vector<analysis::AnalyticsRow> rows;
                analysis::tryLoadAnalytics(_run, rows);
            } else if (file == "coverage.csv") {
                std::vector<attribution::CoverageLedger::Snapshot> rows;
                attribution::loadCoverage(_run, rows);
            } else if (file == "alerts.csv") {
                std::vector<analysis::Alert> alerts;
                analysis::loadAlerts(_run, alerts);
            } else {
                std::vector<provenance::DigestRow> rows;
                EXPECT_FALSE(provenance::loadDigests(_run, rows, &message));
            }
        } catch (const FatalError& err) {
            message = err.what();
        }
        EXPECT_NE(message.find(_run + "/" + file), std::string::npos)
            << file << ": " << message;
        EXPECT_NE(message.find("v" + std::to_string(version + 1)),
                  std::string::npos)
            << file << ": " << message;
        EXPECT_NE(message.find("v" + std::to_string(version)),
                  std::string::npos)
            << file << ": " << message;
        writeFile(_run + "/" + file, seed);
    }
}

TEST(StatusJson, ParseThenFormatIsTheIdentity)
{
    analysis::StatusSnapshot full;
    full.running = false;
    full.generation = 41;
    full.totalGenerations = 60;
    full.bestFitness = 4.178560123456789;
    full.averageFitness = 3.9427500000000001;
    full.diversity = 0.142;
    full.geneEntropyBits = 1.234567;
    full.pairwiseDiversity = 0.5;
    full.evaluations = 2205;
    full.cacheHitRate = 0.286;
    full.evalsPerSec = 1540.25;
    full.elapsedSeconds = 12.5;
    full.etaSeconds = 3.25;
    full.steadyHits = 812;
    full.simEvaluations = 2205;
    full.cyclesSimulated = 123456789;
    full.cyclesTiled = 98765432;
    full.digestsSealed = 42;
    full.alertsRaised = 2;
    full.lastAlertGeneration = 37;
    full.lastAlertRule = "fitness_plateau";
    full.gitSha = "0123456789ab";
    full.build = "12.2.0, Release, \"quoted\\path\"";
    full.listen = "127.0.0.1:8080";

    analysis::StatusSnapshot bare = full;
    bare.running = true;
    bare.digestsSealed = -1;
    bare.alertsRaised = -1;
    bare.listen.clear();

    for (const analysis::StatusSnapshot& original : {full, bare}) {
        const std::string text = analysis::formatStatusJson(original);
        analysis::StatusSnapshot parsed;
        std::string error;
        ASSERT_TRUE(analysis::parseStatusJson(text, parsed, &error))
            << error;
        EXPECT_EQ(analysis::formatStatusJson(parsed), text);
    }
}

TEST(StatusJson, RejectsPayloadsThatAreNotHeartbeats)
{
    analysis::StatusSnapshot status;
    std::string error;
    EXPECT_FALSE(analysis::parseStatusJson("{", status, &error));
    EXPECT_NE(error.find("JSON"), std::string::npos) << error;
    EXPECT_FALSE(analysis::parseStatusJson("[1, 2]", status, &error));
    EXPECT_FALSE(
        analysis::parseStatusJson("{\"state\": \"paused\"}", status, &error));
    EXPECT_NE(error.find("state"), std::string::npos) << error;

    // Keys an older heartbeat lacks keep the caller's sentinels.
    status.geneEntropyBits = -1.0;
    ASSERT_TRUE(analysis::parseStatusJson(
        "{\"state\": \"running\", \"generation\": 3}", status, &error));
    EXPECT_TRUE(status.running);
    EXPECT_EQ(status.generation, 3);
    EXPECT_EQ(status.geneEntropyBits, -1.0);
}

} // namespace
} // namespace gest
