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

#include "analysis/snapshot.hh"
#include "output/report.hh"

namespace gest {
namespace output {

/** Everything one `gest top` refresh displays. */
struct TopSnapshot
{
    TopSnapshot();

    /** true: scraped over HTTP; false: read from run-dir files. */
    bool live = false;

    /** The URL or run directory the snapshot came from. */
    std::string source;

    /**
     * "running" or "completed" from the heartbeat; "unknown" without
     * one; "waiting for first generation" before history.csv has a row.
     */
    std::string state = "unknown";

    /**
     * The heartbeat (GET /status, or status.json), read with
     * analysis::parseStatusJson. In file mode the history.csv fields
     * (generation, fitness, diversity, evaluations, rates) are filled
     * from history.csv first, and the alerts summary comes from
     * alerts.csv. Absent analytics measures stay negative, rendered
     * "n/a" rather than a misleading 0; alertsRaised = -1 hides the
     * alerts pane of an unwatched run.
     */
    analysis::StatusSnapshot status;

    /** Search-space coverage, from /coverage or coverage.csv. */
    bool hasCoverage = false;
    attribution::CoverageLedger::Snapshot coverage;

    /** best_fitness per generation, for the sparkline. */
    std::vector<double> bestTrajectory;

    // Phase totals, milliseconds (zero when timing was off).
    double selectionMs = 0.0;
    double crossoverMs = 0.0;
    double mutationMs = 0.0;
    double evaluationMs = 0.0;

    /** Busy fraction per evaluation worker, [0, 1]; may be empty. */
    std::vector<double> workerBusyFrac;

    /** The most recent health alerts, already human-formatted. */
    std::vector<std::string> alertLines;

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
 * feeds the shared history reader only the lines appended since the
 * last poll (a partial trailing line is carried until its newline
 * arrives; a file that shrank — truncated or replaced — resets the
 * parse from offset 0), so each refresh costs O(new generations).
 * status.json, coverage.csv and alerts.csv stay whole-file reads: they
 * are bounded-size snapshots, not append-only logs.
 */
class TopFilePoller
{
  public:
    explicit TopFilePoller(std::string run_dir);

    /**
     * Refresh @p out from the run directory. @return false with
     * snapshot.error set when the directory does not exist. A sick
     * ledger never takes the dashboard down: history lines the reader
     * rejects are skipped, and an unreadable coverage.csv or alerts.csv
     * leaves its pane empty.
     */
    bool poll(TopSnapshot& out);

  private:
    std::string _runDir;
    LedgerReader _history;
    std::uint64_t _offset = 0;  ///< history.csv bytes consumed
    std::string _carry;         ///< partial line awaiting its newline
    RunReport _report;          ///< the rows ingested so far
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
