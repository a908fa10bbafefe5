#include "output/top.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "analysis/health.hh"
#include "net/http_client.hh"
#include "stats/stats.hh"
#include "util/fileutil.hh"
#include "util/jsonlite.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gest {
namespace output {

namespace {

/**
 * Fill @p out's heartbeat from a status payload. @return false, with
 * @p error set, when the payload is not a heartbeat.
 */
bool
applyStatus(std::string_view text, TopSnapshot& out, std::string* error)
{
    if (!analysis::parseStatusJson(text, out.status, error))
        return false;
    out.state = out.status.running ? "running" : "completed";
    return true;
}

/** Fill the coverage fields of @p out from parsed /coverage JSON. */
void
applyCoverage(const json::Value& coverage, TopSnapshot& out)
{
    const std::uint64_t total = static_cast<std::uint64_t>(
        coverage.numberOr("cells_total", 0.0));
    if (total == 0)
        return;  // pre-generation placeholder
    out.hasCoverage = true;
    out.coverage.cellsTotal = total;
    out.coverage.cellsSeen = static_cast<std::uint64_t>(
        coverage.numberOr("cells_seen", 0.0));
    out.coverage.newCells = static_cast<std::uint64_t>(
        coverage.numberOr("cells_new", 0.0));
    out.coverage.saturationPct =
        coverage.numberOr("saturation_pct", 0.0);
    out.coverage.noveltyRate = coverage.numberOr("novelty_rate", 0.0);
}

/**
 * Fill the coverage fields of @p out from @p run_dir's coverage.csv
 * (last row), when the run recorded a readable one.
 */
void
loadCoverageCsv(const std::string& run_dir, TopSnapshot& out)
{
    std::vector<attribution::CoverageLedger::Snapshot> rows;
    try {
        if (!attribution::loadCoverage(run_dir, rows) || rows.empty())
            return;
    } catch (const FatalError&) {
        return;  // a sick ledger must not take the dashboard down
    }
    out.hasCoverage = true;
    out.coverage = rows.back();
}

/** An alert as one dashboard pane line. */
std::string
formatAlertLine(int generation, const std::string& rule,
                const std::string& severity, const std::string& message)
{
    return "gen " + std::to_string(generation) + " " + rule + " (" +
           severity + "): " + message;
}

/** Fill the alerts pane of @p out from @p run_dir's alerts.csv. */
void
loadAlertsCsv(const std::string& run_dir, TopSnapshot& out)
{
    std::vector<analysis::Alert> alerts;
    try {
        if (!analysis::loadAlerts(run_dir, alerts))
            return;
    } catch (const FatalError&) {
        return;  // a sick ledger must not take the dashboard down
    }
    out.status.alertsRaised = static_cast<std::int64_t>(alerts.size());
    if (!alerts.empty()) {
        out.status.lastAlertGeneration = alerts.back().generation;
        out.status.lastAlertRule = alerts.back().rule;
    }
    const std::size_t first = alerts.size() > 3 ? alerts.size() - 3 : 0;
    for (std::size_t i = first; i < alerts.size(); ++i)
        out.alertLines.push_back(
            formatAlertLine(alerts[i].generation, alerts[i].rule,
                            alerts[i].severity, alerts[i].message));
}

/** Per-worker busy fractions from engine.worker.N.busy_us counters. */
std::vector<double>
workerBusyFromMetrics(const std::string& metrics, double elapsed_s)
{
    std::vector<double> out;
    if (elapsed_s <= 0.0)
        return out;
    for (int w = 0;; ++w) {
        const double busy_us = stats::exposedValue(
            metrics,
            "gest_engine_worker_" + std::to_string(w) + "_busy_us_total",
            -1.0);
        if (busy_us < 0.0)
            break;
        out.push_back(
            std::min(1.0, busy_us / 1e6 / elapsed_s));
    }
    return out;
}

} // namespace

bool
fetchTopSnapshot(const std::string& url, TopSnapshot& out)
{
    out = TopSnapshot();
    out.live = true;
    std::string base = url;
    while (!base.empty() && base.back() == '/')
        base.pop_back();
    out.source = base;

    const net::HttpResult status_res = net::httpGet(base + "/status");
    if (!status_res.ok || status_res.status != 200) {
        out.error = status_res.ok
                        ? "/status returned HTTP " +
                              std::to_string(status_res.status)
                        : status_res.error;
        return false;
    }
    std::string parse_error;
    if (!applyStatus(status_res.body, out, &parse_error)) {
        out.error = "/status is " + parse_error;
        return false;
    }

    const net::HttpResult history_res = net::httpGet(base + "/history");
    if (history_res.ok && history_res.status == 200) {
        json::Value history;
        if (json::parse(history_res.body, history, nullptr) &&
            history.isArray()) {
            for (const json::Value& row : history.array) {
                out.bestTrajectory.push_back(
                    row.numberOr("best_fitness", 0.0));
                out.evaluationMs += row.numberOr("evaluation_ms", 0.0);
            }
        }
    }

    const net::HttpResult metrics_res = net::httpGet(base + "/metrics");
    if (metrics_res.ok && metrics_res.status == 200) {
        const std::string& m = metrics_res.body;
        out.selectionMs = stats::exposedValue(
                              m, "gest_engine_selection_us_sum", 0.0) /
                          1e3;
        out.crossoverMs = stats::exposedValue(
                              m, "gest_engine_crossover_us_sum", 0.0) /
                          1e3;
        out.mutationMs = stats::exposedValue(
                             m, "gest_engine_mutation_us_sum", 0.0) /
                         1e3;
        out.workerBusyFrac =
            workerBusyFromMetrics(m, out.status.elapsedSeconds);
    }

    const net::HttpResult coverage_res =
        net::httpGet(base + "/coverage");
    if (coverage_res.ok && coverage_res.status == 200) {
        json::Value coverage;
        if (json::parse(coverage_res.body, coverage, nullptr))
            applyCoverage(coverage, out);
    }

    const net::HttpResult alerts_res = net::httpGet(base + "/alerts");
    if (alerts_res.ok && alerts_res.status == 200) {
        json::Value alerts;
        if (json::parse(alerts_res.body, alerts, nullptr) &&
            alerts.isArray()) {
            // /alerts exists on every serving build, but only watched
            // runs publish into it; status.json's alerts block is the
            // authority on watched-vs-not, so an empty array does not
            // flip the -1 sentinel on its own.
            if (!alerts.array.empty())
                out.status.alertsRaised =
                    static_cast<std::int64_t>(alerts.array.size());
            const std::size_t first =
                alerts.array.size() > 3 ? alerts.array.size() - 3 : 0;
            for (std::size_t i = first; i < alerts.array.size(); ++i) {
                const json::Value& a = alerts.array[i];
                out.alertLines.push_back(formatAlertLine(
                    static_cast<int>(a.numberOr("generation", 0.0)),
                    a.stringOr("rule", "?"),
                    a.stringOr("severity", "?"),
                    a.stringOr("message", "")));
            }
        }
    }
    return true;
}

TopSnapshot::TopSnapshot()
{
    status.generation = -1;
    status.geneEntropyBits = -1.0;
    status.pairwiseDiversity = -1.0;
}

TopFilePoller::TopFilePoller(std::string run_dir)
    : _runDir(std::move(run_dir)),
      _history(historyReader(_runDir + "/history.csv"))
{}

bool
TopFilePoller::poll(TopSnapshot& out)
{
    out = TopSnapshot();
    out.live = false;
    out.source = _runDir;

    std::ifstream in(_runDir + "/history.csv",
                     std::ios::binary | std::ios::ate);
    if (!in) {
        if (!dirExists(_runDir)) {
            out.error =
                "run directory '" + _runDir + "' does not exist";
            return false;
        }
        *this = TopFilePoller(_runDir);
        out.state = "waiting for first generation";
        return true;
    }
    const std::uint64_t size =
        static_cast<std::uint64_t>(in.tellg());
    if (size < _offset)
        *this = TopFilePoller(_runDir);  // truncated or replaced
    if (size > _offset) {
        in.seekg(static_cast<std::streamoff>(_offset));
        std::string chunk(static_cast<std::size_t>(size - _offset),
                          '\0');
        in.read(&chunk[0],
                static_cast<std::streamsize>(chunk.size()));
        chunk.resize(static_cast<std::size_t>(in.gcount()));
        _offset += chunk.size();
        _carry += chunk;
        std::size_t start = 0;
        for (std::size_t nl = _carry.find('\n');
             nl != std::string::npos; nl = _carry.find('\n', start)) {
            // A line the reader rejects is skipped: a sick ledger must
            // not take the dashboard down.
            try {
                if (_history.feed(std::string_view(_carry).substr(
                        start, nl - start))) {
                    _report.hasTimings =
                        _history.column("evaluation_ms") >= 0;
                    _report.add(readHistoryRow(_history));
                }
            } catch (const FatalError&) {
            }
            start = nl + 1;
        }
        _carry.erase(0, start);
    }
    if (_report.rows.empty()) {
        out.state = "waiting for first generation";
        return true;
    }

    analysis::StatusSnapshot& status = out.status;
    status.generation = _report.rows.back().generation;
    status.bestFitness = _report.bestFitness;
    status.averageFitness = _report.finalAverage;
    status.diversity = _report.finalDiversity;
    status.evaluations = _report.totalMeasured;
    status.cacheHitRate = _report.cacheHitRate();
    status.evalsPerSec = _report.evaluationsPerSecond();
    for (const HistoryRow& row : _report.rows)
        out.bestTrajectory.push_back(row.bestFitness);
    out.selectionMs = _report.selectionMs;
    out.crossoverMs = _report.crossoverMs;
    out.mutationMs = _report.mutationMs;
    out.evaluationMs = _report.evaluationMs;

    std::string status_text;
    if (tryReadFile(_runDir + "/status.json", status_text))
        applyStatus(status_text, out, nullptr);
    loadCoverageCsv(_runDir, out);
    loadAlertsCsv(_runDir, out);
    return true;
}

std::string
sparkline(const std::vector<double>& values, std::size_t width)
{
    static const char* glyphs[] = {"▁", "▂", "▃", "▄",
                                   "▅", "▆", "▇", "█"};
    if (values.empty() || width == 0)
        return "";

    // Bucket down to `width` cells, keeping each bucket's last value
    // (the trajectory is monotone enough that last ≈ max and the right
    // edge always shows the current value).
    std::vector<double> cells;
    const std::size_t n = values.size();
    if (n <= width) {
        cells = values;
    } else {
        for (std::size_t c = 0; c < width; ++c) {
            const std::size_t end = (c + 1) * n / width;
            cells.push_back(values[end == 0 ? 0 : end - 1]);
        }
    }
    const auto [lo_it, hi_it] =
        std::minmax_element(cells.begin(), cells.end());
    const double lo = *lo_it, hi = *hi_it;
    std::string out;
    for (double v : cells) {
        int level = 3;  // flat line renders mid-height
        if (hi > lo) {
            level = static_cast<int>((v - lo) / (hi - lo) * 7.0 + 0.5);
            level = std::min(7, std::max(0, level));
        }
        out += glyphs[level];
    }
    return out;
}

std::string
renderTop(const TopSnapshot& snapshot)
{
    const analysis::StatusSnapshot& status = snapshot.status;
    char line[256];
    std::string out;
    out += "gest top — " + snapshot.source +
           (snapshot.live ? " (live)" : " (files)");
    if (!status.gitSha.empty() && status.gitSha != "unknown")
        out += "   git " + status.gitSha.substr(0, 12);
    out += "\n";
    if (!status.build.empty())
        out += "build " + status.build + "\n";
    if (!snapshot.error.empty()) {
        out += "error: " + snapshot.error + "\n";
        return out;
    }
    if (startsWith(snapshot.state, "waiting")) {
        out += "state " + snapshot.state +
               " — no history.csv yet; the dashboard fills in once "
               "the first generation is evaluated\n";
        return out;
    }

    std::snprintf(line, sizeof(line),
                  "state %-10s gen %d/%d   elapsed %.1fs   eta %.1fs\n",
                  snapshot.state.c_str(), status.generation,
                  status.totalGenerations, status.elapsedSeconds,
                  status.etaSeconds);
    out += line;
    std::snprintf(line, sizeof(line),
                  "best %.6f   avg %.6f   diversity %.3f\n",
                  status.bestFitness, status.averageFitness,
                  status.diversity);
    out += line;
    // Analytics-derived measures: "n/a" — not a fake 0 — when the run
    // records no analytics (negative sentinel).
    if (status.geneEntropyBits >= 0.0)
        std::snprintf(line, sizeof(line), "entropy %.2f bits   ",
                      status.geneEntropyBits);
    else
        std::snprintf(line, sizeof(line), "entropy n/a   ");
    out += line;
    if (status.pairwiseDiversity >= 0.0)
        std::snprintf(line, sizeof(line), "pairwise diversity %.3f\n",
                      status.pairwiseDiversity);
    else
        std::snprintf(line, sizeof(line), "pairwise diversity n/a\n");
    out += line;
    if (!snapshot.bestTrajectory.empty()) {
        out += "fitness " + sparkline(snapshot.bestTrajectory, 60) +
               "\n";
    }
    std::snprintf(line, sizeof(line),
                  "evals %llu (%.1f/s)   cache hits %.1f%%",
                  static_cast<unsigned long long>(status.evaluations),
                  status.evalsPerSec, 100.0 * status.cacheHitRate);
    out += line;
    if (status.simEvaluations > 0) {
        std::snprintf(
            line, sizeof(line), "   steady hits %.1f%%",
            100.0 * static_cast<double>(status.steadyHits) /
                static_cast<double>(status.simEvaluations));
        out += line;
    }
    const std::uint64_t cycles =
        status.cyclesSimulated + status.cyclesTiled;
    if (cycles > 0) {
        std::snprintf(line, sizeof(line), "   tiled cycles %.1f%%",
                      100.0 * static_cast<double>(status.cyclesTiled) /
                          static_cast<double>(cycles));
        out += line;
    }
    out += "\n";

    if (snapshot.hasCoverage) {
        std::snprintf(
            line, sizeof(line),
            "coverage %llu/%llu cells (%.1f%%)   new this gen %llu   "
            "novelty %.2f\n",
            static_cast<unsigned long long>(snapshot.coverage.cellsSeen),
            static_cast<unsigned long long>(
                snapshot.coverage.cellsTotal),
            snapshot.coverage.saturationPct,
            static_cast<unsigned long long>(snapshot.coverage.newCells),
            snapshot.coverage.noveltyRate);
        out += line;
    }

    const double phase_total = snapshot.selectionMs +
                               snapshot.crossoverMs +
                               snapshot.mutationMs +
                               snapshot.evaluationMs;
    if (phase_total > 0.0) {
        std::snprintf(line, sizeof(line),
                      "phases selection %.1f ms | crossover %.1f ms | "
                      "mutation %.1f ms | evaluation %.1f ms\n",
                      snapshot.selectionMs, snapshot.crossoverMs,
                      snapshot.mutationMs, snapshot.evaluationMs);
        out += line;
    }
    if (!snapshot.workerBusyFrac.empty()) {
        out += "workers";
        for (std::size_t w = 0; w < snapshot.workerBusyFrac.size();
             ++w) {
            std::snprintf(line, sizeof(line), " #%zu %.0f%%", w,
                          100.0 * snapshot.workerBusyFrac[w]);
            out += line;
        }
        out += "\n";
    }

    // Alerts pane: hidden for unwatched runs; a watched clean run says
    // so explicitly ("none" is information, absence is not).
    if (status.alertsRaised == 0) {
        out += "alerts none\n";
    } else if (status.alertsRaised > 0) {
        std::snprintf(
            line, sizeof(line), "alerts %lld (last: %s @ gen %d)\n",
            static_cast<long long>(status.alertsRaised),
            status.lastAlertRule.empty()
                ? "?"
                : status.lastAlertRule.c_str(),
            status.lastAlertGeneration);
        out += line;
        for (const std::string& alert : snapshot.alertLines)
            out += "  " + alert + "\n";
    }
    return out;
}

} // namespace output
} // namespace gest
