/**
 * @file
 * The live telemetry plane: in-memory snapshots of a run's
 * observability artifacts served over the embedded HTTP server
 * (docs/observability.md, "Live endpoints").
 *
 * Layering: the run pipeline *pushes* each generation snapshot in
 * (coordinator thread, one small JSON composition per generation —
 * never on the evaluation hot path), HTTP workers *pull* them out.
 * Scrape endpoints never read the disk artifacts: /status, /history
 * and /champion serve the in-memory copies, /metrics renders the
 * StatsRegistry (relaxed atomics) into Prometheus text exposition
 * format, and /events streams one Server-Sent-Event per sealed
 * generation out of a lock-free single-producer snapshot buffer. The
 * whole plane is read-only: hosting it cannot perturb the GA
 * (bit-identical run artifacts with the server on or off).
 */

#ifndef GEST_NET_TELEMETRY_HH
#define GEST_NET_TELEMETRY_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/snapshot.hh"
#include "isa/library.hh"
#include "net/http_server.hh"

namespace gest {
namespace net {

/**
 * A bounded, append-only, lock-free snapshot buffer: one producer (the
 * engine's coordinator thread) publishes immutable payloads, any
 * number of SSE worker threads read them concurrently. Slots are
 * preallocated and published with a release store on the size counter,
 * so readers that acquire the size see fully-written payloads; nothing
 * is ever overwritten or freed while the buffer lives, which makes
 * replay-from-zero for late-connecting clients trivial and the whole
 * structure wait-free on both sides. Publishing past capacity drops
 * the event (counted), never blocks.
 */
class GenerationEventBuffer
{
  public:
    explicit GenerationEventBuffer(std::size_t capacity);
    ~GenerationEventBuffer();

    GenerationEventBuffer(const GenerationEventBuffer&) = delete;
    GenerationEventBuffer& operator=(const GenerationEventBuffer&) =
        delete;

    /**
     * Publish one payload; single producer only. @p key is the event's
     * resume key — the generation number for frames that carry an SSE
     * `id:` line, -1 for frames that do not (alerts). A client
     * reconnecting with `Last-Event-ID: N` is replayed every event
     * whose key exceeds N *plus* every keyless event, which gives
     * generation frames exactly-once and alert frames at-least-once
     * delivery across reconnects.
     */
    void publish(std::string payload, long long key = -1);

    /** Resume key of event @p i; requires i < size(). */
    long long keyAt(std::size_t i) const
    {
        return _keys[i].load(std::memory_order_relaxed);
    }

    /** Events visible so far (acquire). */
    std::size_t size() const
    {
        return _size.load(std::memory_order_acquire);
    }

    /** Event @p i; requires i < size(). */
    const std::string* at(std::size_t i) const
    {
        return _slots[i].load(std::memory_order_relaxed);
    }

    std::size_t capacity() const { return _slots.size(); }

    /** Events dropped because the buffer was full. */
    std::uint64_t dropped() const
    {
        return _dropped.load(std::memory_order_relaxed);
    }

  private:
    std::vector<std::atomic<const std::string*>> _slots;
    std::vector<std::atomic<long long>> _keys;
    std::atomic<std::size_t> _size{0};
    std::atomic<std::uint64_t> _dropped{0};
};

/**
 * Render every registered stat as Prometheus text exposition format
 * (version 0.0.4): counters and gauges one sample each, histograms as
 * native Prometheus histograms (cumulative `le` buckets, `_sum`,
 * `_count`) plus a p50/p95/p99 quantile series derived by
 * stats::Histogram::quantile — the same implementation behind
 * stats.txt and metrics.json. Metric names are `gest_` plus the stat
 * name with every non-alphanumeric character mapped to '_'.
 */
std::string renderPrometheusMetrics();

/**
 * The in-memory snapshot store behind the endpoints. All setters run
 * on the engine's coordinator thread; all getters are called
 * concurrently from HTTP workers and synchronize on one small mutex
 * (the event buffer is lock-free, see above).
 */
class TelemetryService
{
  public:
    /**
     * @param lib library the run's individuals reference (champion
     *        source rendering; must outlive the service)
     * @param total_generations the run's generation budget
     */
    TelemetryService(const isa::InstructionLibrary& lib,
                     int total_generations);

    /**
     * Ingest one generation snapshot: publish an `event: alert` SSE
     * frame per alert raised (before the generation's frame; alert
     * frames carry no SSE id, so a resumed stream redelivers them),
     * append the history row (coverage columns included), refresh the
     * champion on strict improvement, replace /status and /coverage,
     * then publish the `event: generation` frame.
     */
    void publish(const analysis::GenerationSnapshot& snapshot);

    std::string coverageJson() const;

    /** The `/alerts` payload: every raised alert as a JSON array. */
    std::string alertsJson() const;

    /**
     * Serve @p final_status as /status and mark the run finished so
     * /events streams can end gracefully.
     */
    void noteRunCompleted(const analysis::StatusSnapshot& final_status);

    /** @return whether noteRunCompleted() has been called. */
    bool completed() const
    {
        return _completed.load(std::memory_order_acquire);
    }

    std::string statusJson() const;
    std::string historyJson() const;
    std::string championJson() const;

    const GenerationEventBuffer& events() const { return _events; }

  private:
    const isa::InstructionLibrary& _lib;
    GenerationEventBuffer _events;

    std::atomic<bool> _completed{false};

    mutable std::mutex _mutex;
    std::string _statusJson;
    std::string _championJson;
    std::string _coverageJson;
    std::vector<std::string> _historyRows;
    std::vector<std::string> _alertRows;
    double _bestFitness = 0.0;
    bool _haveChampion = false;
};

/**
 * Glue: one TelemetryService hosted by one HttpServer with the live
 * endpoints (/metrics, /status, /history, /champion, /coverage,
 * /alerts, /events, plus /healthz and a tiny index at /) registered.
 * Construct, start(), feed the service snapshots, stop().
 */
class TelemetryServer
{
  public:
    TelemetryServer(std::string listen_address,
                    const isa::InstructionLibrary& lib,
                    int total_generations,
                    HttpServer::Options options =
                        HttpServer::Options());

    /** Bind and serve; fatal() on a bad address. */
    void start();

    /** Graceful shutdown; idempotent. */
    void stop();

    /** "host:port" actually bound (valid after start()). */
    std::string address() const { return _http.address(); }

    int port() const { return _http.port(); }

    TelemetryService& service() { return _service; }
    HttpServer& http() { return _http; }

  private:
    TelemetryService _service;
    HttpServer _http;
};

} // namespace net
} // namespace gest

#endif // GEST_NET_TELEMETRY_HH
