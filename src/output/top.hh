/**
 * @file
 * The live terminal dashboard behind `gest top <url|run_dir>`: one
 * snapshot of an in-flight (or finished) run, collected either by
 * scraping the embedded telemetry server (/status, /history, /metrics)
 * or by polling the run directory's files when no server is listening.
 * Collection and rendering are split so tests can render canned
 * snapshots without a server or a terminal.
 */

#ifndef GEST_OUTPUT_TOP_HH
#define GEST_OUTPUT_TOP_HH

#include <cstdint>
#include <string>
#include <vector>

namespace gest {
namespace output {

/** Everything one `gest top` refresh displays. */
struct TopSnapshot
{
    /** true: scraped over HTTP; false: read from run-dir files. */
    bool live = false;

    /** The URL or run directory the snapshot came from. */
    std::string source;

    std::string state = "unknown";  ///< "running" or "completed"
    int generation = -1;
    int totalGenerations = 0;

    double bestFitness = 0.0;
    double averageFitness = 0.0;
    double diversity = 0.0;

    // Population analytics (negative: absent from the status →
    // rendered "n/a", never a misleading 0).
    double geneEntropyBits = -1.0;
    double pairwiseDiversity = -1.0;

    // Search-space coverage (valid only when hasCoverage; filled from
    // /coverage live or coverage.csv's last row from files).
    bool hasCoverage = false;
    std::uint64_t coverageCellsSeen = 0;
    std::uint64_t coverageCellsTotal = 0;
    std::uint64_t coverageNewCells = 0;
    double coverageSaturationPct = 0.0;
    double coverageNoveltyRate = 0.0;

    std::uint64_t evaluations = 0;
    double cacheHitRate = 0.0;  ///< [0, 1]
    double evalsPerSec = 0.0;
    double elapsedSeconds = 0.0;
    double etaSeconds = 0.0;

    // Steady-state fast path (zero when stats were off).
    std::uint64_t steadyHits = 0;
    std::uint64_t cyclesSimulated = 0;
    std::uint64_t cyclesTiled = 0;
    std::uint64_t simEvaluations = 0;

    /** best_fitness per generation, for the sparkline. */
    std::vector<double> bestTrajectory;

    // Phase totals, milliseconds (zero when timing was off).
    double selectionMs = 0.0;
    double crossoverMs = 0.0;
    double mutationMs = 0.0;
    double evaluationMs = 0.0;

    /** Busy fraction per evaluation worker, [0, 1]; may be empty. */
    std::vector<double> workerBusyFrac;

    /**
     * Health-watchdog alerts: -1 when the run is unwatched (pane
     * hidden), 0 for a watched clean run ("alerts none"). alertLines
     * holds the most recent alerts, already human-formatted.
     */
    std::int64_t alertsRaised = -1;
    int lastAlertGeneration = -1;
    std::string lastAlertRule;
    std::vector<std::string> alertLines;

    /** Build identity of the serving binary (from /status; may be ""). */
    std::string gitSha;
    std::string build;

    /** Non-empty when collection failed; other fields are unusable. */
    std::string error;
};

/**
 * Scrape @p url (a telemetry server root, e.g. "127.0.0.1:8080" or
 * "http://127.0.0.1:8080"). @return false — with snapshot.error set —
 * when the server is unreachable or responds malformed.
 */
bool fetchTopSnapshot(const std::string& url, TopSnapshot& out);

/**
 * The incremental file poller behind `gest top <run_dir>`'s refresh
 * loop: builds the same snapshot from the run directory's files
 * (history.csv, status.json, coverage.csv, alerts.csv), for runs
 * without --listen. It remembers its byte offset into history.csv and
 * parses only the bytes appended since the last poll (a partial
 * trailing line is carried until its newline arrives; a file that
 * shrank — truncated or replaced — resets the parse from offset 0), so
 * each refresh costs O(new generations). status.json, coverage.csv and
 * alerts.csv stay whole-file reads: they are bounded-size snapshots,
 * not append-only logs.
 */
class TopFilePoller
{
  public:
    explicit TopFilePoller(std::string run_dir);

    /**
     * Refresh @p out from the run directory. @return false with
     * snapshot.error set when the directory does not exist; malformed
     * history rows are skipped (the poller may observe a live file
     * mid-write).
     */
    bool poll(TopSnapshot& out);

  private:
    void reset();
    void ingestLine(const std::string& line);

    std::string _runDir;
    std::uint64_t _offset = 0;  ///< history.csv bytes consumed
    std::string _carry;         ///< partial line awaiting its newline
    std::vector<std::string> _columns;  ///< header → cell mapping

    // Aggregates over every ingested row.
    bool _sawRow = false;
    int _lastGeneration = -1;
    double _lastAverage = 0.0;
    double _lastDiversity = 0.0;
    double _best = 0.0;
    std::vector<double> _trajectory;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    double _selectionMs = 0.0;
    double _crossoverMs = 0.0;
    double _mutationMs = 0.0;
    double _evaluationMs = 0.0;
};

/**
 * Map @p values onto a @p width-glyph Unicode sparkline (block
 * elements U+2581..U+2588); values are bucketed when there are more
 * than @p width of them. Empty input renders as an empty string.
 */
std::string sparkline(const std::vector<double>& values,
                      std::size_t width);

/** Render one dashboard frame (multi-line, trailing newline). */
std::string renderTop(const TopSnapshot& snapshot);

} // namespace output
} // namespace gest

#endif // GEST_OUTPUT_TOP_HH
