#include "net/telemetry.hh"

#include <cstdio>
#include <cstdlib>

#include "core/individual.hh"
#include "stats/stats.hh"
#include "util/strutil.hh"

namespace gest {
namespace net {

namespace {

/** Stat name → Prometheus metric name: gest_ prefix, [a-zA-Z0-9_]. */
std::string
prometheusName(const std::string& name)
{
    std::string out = "gest_";
    out.reserve(out.size() + name.size());
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9');
        out.push_back(ok ? c : '_');
    }
    return out;
}

std::string
prometheusDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

/** Escape a HELP text: Prometheus wants \\ and \n escaped. */
std::string
helpEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else
            out.push_back(c);
    }
    return out;
}

void
appendHeader(std::string& out, const std::string& metric,
             const std::string& desc, const char* type)
{
    if (!desc.empty())
        out += "# HELP " + metric + " " + helpEscape(desc) + "\n";
    out += "# TYPE " + metric + " " + type + "\n";
}

} // namespace

std::string
renderPrometheusMetrics()
{
    stats::StatsRegistry& registry = stats::StatsRegistry::instance();
    std::string out;
    out.reserve(4096);

    for (const stats::Counter* c : registry.counterList()) {
        const std::string metric = prometheusName(c->name()) + "_total";
        appendHeader(out, metric, c->desc(), "counter");
        out += metric + " " + std::to_string(c->value()) + "\n";
    }
    for (const stats::Gauge* g : registry.gaugeList()) {
        const std::string metric = prometheusName(g->name());
        appendHeader(out, metric, g->desc(), "gauge");
        out += metric + " " + prometheusDouble(g->value()) + "\n";
    }
    for (const stats::Histogram* h : registry.histogramList()) {
        const std::string metric = prometheusName(h->name());
        appendHeader(out, metric, h->desc(), "histogram");
        // Cumulative le buckets; the underflow bucket folds into the
        // first edge, the overflow bucket only into +Inf.
        std::uint64_t cumulative = h->underflow();
        for (std::size_t i = 0; i < h->numBuckets(); ++i) {
            cumulative += h->bucketCount(i);
            out += metric + "_bucket{le=\"" +
                   prometheusDouble(h->bucketLo(i + 1)) + "\"} " +
                   std::to_string(cumulative) + "\n";
        }
        out += metric + "_bucket{le=\"+Inf\"} " +
               std::to_string(h->count()) + "\n";
        out += metric + "_sum " + prometheusDouble(h->sum()) + "\n";
        out += metric + "_count " + std::to_string(h->count()) + "\n";
        // Quantile gauges from the shared stats::Histogram::quantile
        // implementation (native histograms carry no quantiles).
        const char* qs[] = {"0.5", "0.95", "0.99"};
        const double qv[] = {0.50, 0.95, 0.99};
        appendHeader(out, metric + "_quantile", "", "gauge");
        for (int i = 0; i < 3; ++i) {
            out += metric + "_quantile{quantile=\"" + qs[i] + "\"} " +
                   prometheusDouble(h->quantile(qv[i])) + "\n";
        }
    }
    return out;
}

GenerationEventBuffer::GenerationEventBuffer(std::size_t capacity)
    : _slots(capacity == 0 ? 1 : capacity),
      _keys(capacity == 0 ? 1 : capacity)
{
    for (std::atomic<const std::string*>& slot : _slots)
        slot.store(nullptr, std::memory_order_relaxed);
    for (std::atomic<long long>& key : _keys)
        key.store(-1, std::memory_order_relaxed);
}

GenerationEventBuffer::~GenerationEventBuffer()
{
    const std::size_t n = _size.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i)
        delete _slots[i].load(std::memory_order_relaxed);
}

void
GenerationEventBuffer::publish(std::string payload, long long key)
{
    const std::size_t n = _size.load(std::memory_order_relaxed);
    if (n >= _slots.size()) {
        _dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    // Slot and key first, then size with release: a reader that
    // acquires the new size is guaranteed to see the fully constructed
    // string and its resume key.
    _slots[n].store(new std::string(std::move(payload)),
                    std::memory_order_relaxed);
    _keys[n].store(key, std::memory_order_relaxed);
    _size.store(n + 1, std::memory_order_release);
}

TelemetryService::TelemetryService(const isa::InstructionLibrary& lib,
                                   int total_generations)
    : _lib(lib),
      // Capacity for the whole run plus slack for stagnation overruns
      // and tests that step past the budget.
      _events(static_cast<std::size_t>(
                  total_generations > 0 ? total_generations : 1) +
              64)
{
    // Placeholder until the first generation is published.
    analysis::StatusSnapshot empty;
    empty.generation = -1;
    empty.totalGenerations = total_generations;
    _statusJson = analysis::formatStatusJson(empty);
    _championJson = "{\n  \"state\": \"no champion yet\"\n}\n";
    _coverageJson = "{\n  \"state\": \"no generation yet\"\n}\n";
}

void
TelemetryService::publish(const analysis::GenerationSnapshot& snap)
{
    const core::GenerationRecord& rec = snap.record;
    for (const analysis::Alert& alert : snap.alerts) {
        const std::string row = analysis::formatAlertJson(alert);
        {
            std::lock_guard<std::mutex> lock(_mutex);
            _alertRows.push_back(row);
        }
        // No `id:` line — see the publish() contract: alert frames must
        // not advance a client's Last-Event-ID, and keyless events are
        // redelivered on resume.
        _events.publish("event: alert\ndata: " + row + "\n\n");
    }

    // History row: same quantities as a history.csv line, as JSON,
    // extended with the generation's coverage tick.
    const attribution::CoverageLedger::Snapshot& cov = snap.coverage;
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "{\"generation\": %d, \"best_fitness\": %.17g, "
        "\"average_fitness\": %.17g, \"best_id\": %llu, "
        "\"diversity\": %.6f, \"cache_hits\": %llu, "
        "\"cache_misses\": %llu, \"evaluation_ms\": %.3f, "
        "\"coverage_cells_seen\": %llu, "
        "\"coverage_cells_total\": %llu, "
        "\"coverage_cells_new\": %llu, "
        "\"coverage_saturation_pct\": %.6f, "
        "\"coverage_novelty_rate\": %.6f}",
        rec.generation, rec.bestFitness, rec.averageFitness,
        static_cast<unsigned long long>(rec.bestId), rec.diversity,
        static_cast<unsigned long long>(rec.cacheHits),
        static_cast<unsigned long long>(rec.cacheMisses),
        rec.evaluationMs,
        static_cast<unsigned long long>(cov.cellsSeen),
        static_cast<unsigned long long>(cov.cellsTotal),
        static_cast<unsigned long long>(cov.newCells), cov.saturationPct,
        cov.noveltyRate);
    const std::string row = buf;

    // SSE frame: replayable from index 0, id = generation.
    std::string frame = "event: generation\nid: ";
    frame += std::to_string(rec.generation);
    frame += "\ndata: ";
    frame += row;
    frame += "\n\n";

    std::string status = analysis::formatStatusJson(snap.status);
    std::string coverage = attribution::formatCoverageJson(cov);
    {
        std::lock_guard<std::mutex> lock(_mutex);
        const core::Population& pop = snap.population;
        const bool improved = !_haveChampion ||
                              rec.bestFitness > _bestFitness;
        if (improved && pop.bestIndex() >= 0) {
            const core::Individual& best = pop.best();
            _haveChampion = true;
            _bestFitness = best.fitness;
            std::string json = "{\n  \"generation\": " +
                               std::to_string(rec.generation) +
                               ",\n  \"id\": " + std::to_string(best.id);
            char fit[64];
            std::snprintf(fit, sizeof(fit), "%.17g", best.fitness);
            json += ",\n  \"fitness\": ";
            json += fit;
            json += ",\n  \"measurements\": [";
            for (std::size_t i = 0; i < best.measurements.size(); ++i) {
                char m[64];
                std::snprintf(m, sizeof(m), "%.17g",
                              best.measurements[i]);
                json += i == 0 ? "" : ", ";
                json += m;
            }
            json += "],\n  \"code\": [";
            const std::vector<std::string> lines =
                core::renderLines(_lib, best);
            for (std::size_t i = 0; i < lines.size(); ++i) {
                json += i == 0 ? "\n    \"" : ",\n    \"";
                json += jsonEscape(lines[i]);
                json += "\"";
            }
            json += lines.empty() ? "]\n}\n" : "\n  ]\n}\n";
            _championJson = std::move(json);
        }
        _historyRows.push_back(row);
        _statusJson = std::move(status);
        _coverageJson = std::move(coverage);
    }

    // Publish the SSE event last so a client woken by it can already
    // read the matching snapshots.
    _events.publish(std::move(frame), rec.generation);
}

std::string
TelemetryService::alertsJson() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::string out = "[";
    for (std::size_t i = 0; i < _alertRows.size(); ++i) {
        out += i == 0 ? "\n  " : ",\n  ";
        out += _alertRows[i];
    }
    out += _alertRows.empty() ? "]\n" : "\n]\n";
    return out;
}

std::string
TelemetryService::coverageJson() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _coverageJson;
}

void
TelemetryService::noteRunCompleted(
    const analysis::StatusSnapshot& final_status)
{
    std::string status = analysis::formatStatusJson(final_status);
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _statusJson = std::move(status);
    }
    _completed.store(true, std::memory_order_release);
}

std::string
TelemetryService::statusJson() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _statusJson;
}

std::string
TelemetryService::championJson() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _championJson;
}

std::string
TelemetryService::historyJson() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::string out = "[";
    for (std::size_t i = 0; i < _historyRows.size(); ++i) {
        out += i == 0 ? "\n  " : ",\n  ";
        out += _historyRows[i];
    }
    out += _historyRows.empty() ? "]\n" : "\n]\n";
    return out;
}

TelemetryServer::TelemetryServer(std::string listen_address,
                                 const isa::InstructionLibrary& lib,
                                 int total_generations,
                                 HttpServer::Options options)
    : _service(lib, total_generations),
      _http(std::move(listen_address), options)
{
    _http.route("/metrics", [](const HttpRequest&) {
        // Sampled, not maintained: refresh uptime/RSS at scrape time.
        stats::updateProcessGauges();
        HttpResponse res;
        res.contentType = "text/plain; version=0.0.4; charset=utf-8";
        res.body = renderPrometheusMetrics();
        return res;
    });
    _http.route("/status", [this](const HttpRequest&) {
        HttpResponse res;
        res.contentType = "application/json";
        res.body = _service.statusJson();
        return res;
    });
    _http.route("/history", [this](const HttpRequest&) {
        HttpResponse res;
        res.contentType = "application/json";
        res.body = _service.historyJson();
        return res;
    });
    _http.route("/champion", [this](const HttpRequest&) {
        HttpResponse res;
        res.contentType = "application/json";
        res.body = _service.championJson();
        return res;
    });
    _http.route("/coverage", [this](const HttpRequest&) {
        HttpResponse res;
        res.contentType = "application/json";
        res.body = _service.coverageJson();
        return res;
    });
    _http.route("/alerts", [this](const HttpRequest&) {
        HttpResponse res;
        res.contentType = "application/json";
        res.body = _service.alertsJson();
        return res;
    });
    _http.route("/healthz", [this](const HttpRequest&) {
        HttpResponse res;
        res.contentType = "application/json";
        res.body = std::string("{\"status\": \"ok\", \"state\": \"") +
                   (_service.completed() ? "completed" : "running") +
                   "\"}\n";
        return res;
    });
    _http.route("/", [](const HttpRequest&) {
        HttpResponse res;
        res.contentType = "text/plain; charset=utf-8";
        res.body = "gest live telemetry\n"
                   "  /metrics   Prometheus text exposition\n"
                   "  /status    status.json heartbeat\n"
                   "  /history   per-generation history (JSON)\n"
                   "  /champion  current best individual (JSON)\n"
                   "  /coverage  search-space coverage ledger (JSON)\n"
                   "  /alerts    GA health-watchdog alerts (JSON)\n"
                   "  /events    SSE, one event per generation\n"
                   "  /healthz   liveness probe\n";
        return res;
    });
    _http.routeStream("/events", [this](const HttpRequest& req,
                                        StreamWriter& writer) {
        // Standard SSE resume: a reconnecting client sends the id of
        // the last event it saw and is replayed only what it missed.
        // Keyless events (alerts) are always replayed — at-least-once
        // beats silently losing an alert raised mid-reconnect.
        long long last_seen = -1;
        const std::string last_header = req.header("last-event-id");
        if (!last_header.empty()) {
            char* end = nullptr;
            const long long parsed =
                std::strtoll(last_header.c_str(), &end, 10);
            if (end != last_header.c_str())
                last_seen = parsed;
        }
        if (!writer.write("retry: 1000\n\n"))
            return;
        std::size_t sent = 0;
        while (writer.ok()) {
            const GenerationEventBuffer& events = _service.events();
            const std::size_t available = events.size();
            while (sent < available) {
                const long long key = events.keyAt(sent);
                if (key >= 0 && key <= last_seen) {
                    ++sent;
                    continue;
                }
                if (!writer.write(*events.at(sent)))
                    return;
                ++sent;
            }
            if (_service.completed() &&
                sent == _service.events().size()) {
                writer.write(
                    "event: end\ndata: {\"state\": \"completed\"}\n\n");
                return;
            }
            writer.waitBriefly(25);
        }
    });
}

void
TelemetryServer::start()
{
    _http.start();
}

void
TelemetryServer::stop()
{
    _http.stop();
}

} // namespace net
} // namespace gest
