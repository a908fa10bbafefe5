/**
 * @file
 * Tests for the live telemetry plane: the embedded HTTP server, the
 * minimal GET client, the JSON reader, the lock-free generation event
 * buffer, the Prometheus renderer, the run pipeline, and the end-to-end
 * guarantees the plane makes — concurrent scrapes during a real GA run,
 * an unperturbed search with every sink on and byte-identical artifacts
 * with the server on or off.
 * Build with -DGEST_SANITIZE=thread to run the hammer test under TSan.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "config/config.hh"
#include "config/pipeline.hh"
#include "core/engine.hh"
#include "fitness/fitness.hh"
#include "measure/sim_measurements.hh"
#include "net/http_client.hh"
#include "net/http_server.hh"
#include "net/telemetry.hh"
#include "output/top.hh"
#include "platform/platform.hh"
#include "provenance/digest.hh"
#include "stats/stats.hh"
#include "util/fileutil.hh"
#include "util/jsonlite.hh"

namespace gest {
namespace {

using core::Engine;
using core::GaParams;

GaParams
smallParams(std::uint64_t seed, int generations = 6)
{
    GaParams params;
    params.populationSize = 8;
    params.individualSize = 8;
    params.generations = generations;
    params.tournamentSize = 2;
    params.seed = seed;
    params.threads = 1;
    return params;
}

/** A run configuration over @p lib that deploys only the live server. */
config::RunConfig
listenOnly(const isa::InstructionLibrary& lib, const GaParams& params)
{
    config::RunConfig cfg;
    cfg.library = lib;
    cfg.ga = params;
    cfg.listenAddress = "127.0.0.1:0";
    return cfg;
}

// ------------------------------------------------------------ jsonlite

TEST(Jsonlite, ParsesScalarsArraysAndObjects)
{
    json::Value v;
    ASSERT_TRUE(json::parse(
        R"({"a": 1.5, "b": "x\ny", "c": [1, 2, 3], "d": null,
            "e": {"nested": true}})",
        v, nullptr));
    ASSERT_TRUE(v.isObject());
    EXPECT_DOUBLE_EQ(v.numberOr("a", 0.0), 1.5);
    EXPECT_EQ(v.stringOr("b", ""), "x\ny");
    ASSERT_NE(v.find("c"), nullptr);
    ASSERT_TRUE(v.find("c")->isArray());
    EXPECT_EQ(v.find("c")->array.size(), 3u);
    EXPECT_TRUE(v.find("d")->isNull());
    EXPECT_TRUE(v.find("e")->find("nested")->boolean);
}

TEST(Jsonlite, RejectsMalformedInput)
{
    json::Value v;
    std::string error;
    EXPECT_FALSE(json::parse("{\"a\": }", v, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(json::parse("[1, 2", v, nullptr));
    EXPECT_FALSE(json::parse("{} trailing", v, nullptr));
    EXPECT_FALSE(json::parse("", v, nullptr));
}

TEST(Jsonlite, DecodesUnicodeEscapes)
{
    json::Value v;
    ASSERT_TRUE(json::parse(R"(["A\u00e9\n"])", v, nullptr));
    EXPECT_EQ(v.array[0].str, "A\xc3\xa9\n");
}

// --------------------------------------------------- histogram quantiles

TEST(HistogramQuantile, InterpolatesAndClamps)
{
    stats::Histogram& hist = stats::StatsRegistry::instance().histogram(
        "test.net.quantile", "quantile test", 0.0, 100.0, 10);
    const bool was = stats::enabled();
    stats::setEnabled(true);
    EXPECT_DOUBLE_EQ(hist.quantile(0.5), 0.0);  // empty

    for (int i = 0; i < 100; ++i)
        hist.sample(i + 0.5);  // uniform over [0, 100)
    const double p50 = hist.quantile(0.50);
    const double p95 = hist.quantile(0.95);
    EXPECT_NEAR(p50, 50.0, 10.0 + 1e-9);  // one bucket of slack
    EXPECT_NEAR(p95, 95.0, 10.0 + 1e-9);
    EXPECT_LT(p50, p95);
    EXPECT_GE(hist.quantile(0.0), hist.minSeen());
    EXPECT_LE(hist.quantile(1.0), hist.maxSeen());
    stats::setEnabled(was);
}

TEST(HistogramQuantile, AppearsInDumps)
{
    stats::Histogram& hist = stats::StatsRegistry::instance().histogram(
        "test.net.dump", "dump test", 0.0, 10.0, 5);
    const bool was = stats::enabled();
    stats::setEnabled(true);
    hist.sample(5.0);
    const std::string text =
        stats::StatsRegistry::instance().textDump();
    EXPECT_NE(text.find("test.net.dump::p50"), std::string::npos);
    EXPECT_NE(text.find("test.net.dump::p95"), std::string::npos);
    EXPECT_NE(text.find("test.net.dump::p99"), std::string::npos);

    json::Value metrics;
    ASSERT_TRUE(json::parse(stats::StatsRegistry::instance().jsonDump(),
                            metrics, nullptr));
    const json::Value* entry =
        metrics.find("histograms")->find("test.net.dump");
    ASSERT_NE(entry, nullptr);
    for (const char* key : {"p50", "p95", "p99"})
        EXPECT_NE(entry->find(key), nullptr) << key;
    stats::setEnabled(was);
}

// ------------------------------------------------------- event buffer

TEST(GenerationEventBuffer, PublishesReadsAndDrops)
{
    net::GenerationEventBuffer buffer(3);
    EXPECT_EQ(buffer.size(), 0u);
    buffer.publish("one");
    buffer.publish("two");
    buffer.publish("three");
    buffer.publish("four");  // over capacity: dropped, not blocked
    EXPECT_EQ(buffer.size(), 3u);
    EXPECT_EQ(buffer.dropped(), 1u);
    EXPECT_EQ(*buffer.at(0), "one");
    EXPECT_EQ(*buffer.at(2), "three");
}

TEST(GenerationEventBuffer, ConcurrentReadersSeeCompletePayloads)
{
    net::GenerationEventBuffer buffer(256);
    std::atomic<bool> stop{false};
    std::thread reader([&] {
        while (!stop.load(std::memory_order_acquire)) {
            const std::size_t n = buffer.size();
            for (std::size_t i = 0; i < n; ++i) {
                const std::string& payload = *buffer.at(i);
                ASSERT_EQ(payload,
                          "payload-" + std::to_string(i) + "-end");
            }
        }
    });
    for (std::size_t i = 0; i < 256; ++i)
        buffer.publish("payload-" + std::to_string(i) + "-end");
    stop.store(true, std::memory_order_release);
    reader.join();
    EXPECT_EQ(buffer.size(), 256u);
    EXPECT_EQ(buffer.dropped(), 0u);
}

// --------------------------------------------------------- http server

TEST(HttpServer, RoutesRespondsAndRejectsUnknown)
{
    net::HttpServer server("127.0.0.1:0");
    server.route("/hello", [](const net::HttpRequest& req) {
        net::HttpResponse res;
        res.body = "hi " + req.query;
        return res;
    });
    server.start();
    ASSERT_GT(server.port(), 0);
    const std::string base = server.address();

    net::HttpResult res = net::httpGet(base + "/hello?q=1");
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.status, 200);
    EXPECT_EQ(res.body, "hi q=1");

    res = net::httpGet(base + "/nope");
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.status, 404);

    EXPECT_GE(server.requestsServed(), 2u);
    server.stop();
    server.stop();  // idempotent
}

TEST(HttpServer, RefusesNonGetAndOversizedRequests)
{
    net::HttpServer::Options options;
    options.maxRequestBytes = 256;
    net::HttpServer server("127.0.0.1:0", options);
    server.route("/x", [](const net::HttpRequest&) {
        return net::HttpResponse();
    });
    server.start();
    const std::string base = server.address();

    // The GET client cannot send a POST or an oversized header block,
    // so drive the server with handcrafted requests over a raw socket.
    auto raw = [&](const std::string& request) {
        const int port = server.port();
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd);
            return std::string();
        }
        const ssize_t sent =
            ::send(fd, request.data(), request.size(), 0);
        EXPECT_EQ(sent, static_cast<ssize_t>(request.size()));
        std::string reply;
        char buf[1024];
        ssize_t n;
        while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
            reply.append(buf, static_cast<std::size_t>(n));
        ::close(fd);
        return reply;
    };

    const std::string post =
        raw("POST /x HTTP/1.1\r\nHost: t\r\n\r\n");
    EXPECT_NE(post.find("405"), std::string::npos) << post;

    std::string big = "GET /x HTTP/1.1\r\n";
    big += "X-Pad: " + std::string(512, 'a') + "\r\n\r\n";
    const std::string oversized = raw(big);
    EXPECT_NE(oversized.find("431"), std::string::npos) << oversized;

    const std::string head = raw("HEAD /x HTTP/1.1\r\nHost: t\r\n\r\n");
    EXPECT_NE(head.find("200"), std::string::npos) << head;
    server.stop();
}

// ------------------------------------------------------- run pipeline

TEST(Pipeline, EverySinkLeavesTheSearchBitIdentical)
{
    const auto a15 = platform::cortexA15Platform();
    const isa::InstructionLibrary& lib = a15->library();
    fitness::DefaultFitness fit;
    const GaParams params = smallParams(17, 6);

    // A bare engine: no callback, so no births are even tracked.
    measure::SimPowerMeasurement bare_meas(lib, a15);
    Engine bare(params, lib, bare_meas, fit);
    bare.run();

    // The full pipeline: run directory (every artifact, waveforms,
    // provenance) plus the live server.
    const std::string dir = makeTempDir("gest-pipeline");
    config::RunConfig cfg = listenOnly(lib, params);
    cfg.outputDirectory = dir;
    cfg.waveformTopK = 2;
    measure::SimPowerMeasurement full_meas(lib, a15);
    Engine full(params, lib, full_meas, fit);
    {
        config::RunPipeline pipeline(cfg, full_meas);
        full.setGenerationCallback(pipeline.callback());
        full.run();
        EXPECT_FALSE(pipeline.sealWaveforms().empty());
        pipeline.finish();
    }

    ASSERT_EQ(bare.history().size(), full.history().size());
    for (std::size_t g = 0; g < bare.history().size(); ++g) {
        const core::GenerationRecord& a = bare.history()[g];
        const core::GenerationRecord& b = full.history()[g];
        EXPECT_EQ(a.generation, b.generation);
        EXPECT_EQ(a.bestFitness, b.bestFitness);
        EXPECT_EQ(a.averageFitness, b.averageFitness);
        EXPECT_EQ(a.bestId, b.bestId);
        EXPECT_EQ(a.bestUniqueInstructions, b.bestUniqueInstructions);
        EXPECT_EQ(a.bestBreakdown, b.bestBreakdown);
        EXPECT_EQ(a.diversity, b.diversity);
        EXPECT_EQ(a.cacheHits, b.cacheHits);
        EXPECT_EQ(a.cacheMisses, b.cacheMisses);
    }
    EXPECT_EQ(provenance::populationDigest(lib, bare.population()),
              provenance::populationDigest(lib, full.population()));
    EXPECT_EQ(bare.bestEver().id, full.bestEver().id);
    EXPECT_EQ(bare.bestEver().code, full.bestEver().code);
    EXPECT_EQ(bare.bestEver().fitness, full.bestEver().fitness);
    EXPECT_EQ(bare.bestEver().measurements, full.bestEver().measurements);
    EXPECT_EQ(bare.evaluations(), full.evaluations());
    removeAll(dir);
}

// --------------------------------------------------- telemetry service

TEST(Telemetry, EndpointsServeTheRunAndStreamEvents)
{
    const auto a15 = platform::cortexA15Platform();
    const isa::InstructionLibrary& lib = a15->library();
    measure::SimPowerMeasurement meas(lib, a15);
    fitness::DefaultFitness fit;
    Engine engine(smallParams(5, 5), lib, meas, fit);

    const config::RunConfig cfg = listenOnly(lib, smallParams(5, 5));
    config::RunPipeline pipeline(cfg, meas);
    engine.setGenerationCallback(pipeline.callback());
    engine.run();
    pipeline.finish();

    const std::string base = pipeline.listenAddress();

    net::HttpResult res = net::httpGet(base + "/status");
    ASSERT_TRUE(res.ok && res.status == 200) << res.error;
    json::Value status;
    ASSERT_TRUE(json::parse(res.body, status, nullptr)) << res.body;
    EXPECT_EQ(static_cast<int>(status.numberOr("generation", -1)), 4);
    EXPECT_EQ(static_cast<int>(status.numberOr("total_generations", 0)),
              5);

    res = net::httpGet(base + "/history");
    ASSERT_TRUE(res.ok && res.status == 200);
    json::Value history;
    ASSERT_TRUE(json::parse(res.body, history, nullptr)) << res.body;
    ASSERT_TRUE(history.isArray());
    ASSERT_EQ(history.array.size(), 5u);
    for (std::size_t i = 0; i < history.array.size(); ++i)
        EXPECT_EQ(history.array[i].numberOr("generation", -1),
                  static_cast<double>(i));

    res = net::httpGet(base + "/champion");
    ASSERT_TRUE(res.ok && res.status == 200);
    json::Value champion;
    ASSERT_TRUE(json::parse(res.body, champion, nullptr)) << res.body;
    EXPECT_DOUBLE_EQ(champion.numberOr("fitness", -1.0),
                     engine.bestEver().fitness);
    ASSERT_NE(champion.find("code"), nullptr);
    EXPECT_EQ(champion.find("code")->array.size(),
              engine.bestEver().code.size());

    res = net::httpGet(base + "/metrics");
    ASSERT_TRUE(res.ok && res.status == 200);
    EXPECT_NE(res.body.find("# TYPE gest_"), std::string::npos);

    // The SSE stream replays every generation from index 0 and closes
    // with the end event once the run is complete.
    res = net::httpGet(base + "/events", /*timeout_ms=*/5000);
    ASSERT_TRUE(res.ok && res.status == 200) << res.error;
    for (int g = 0; g < 5; ++g)
        EXPECT_NE(res.body.find("id: " + std::to_string(g) + "\n"),
                  std::string::npos)
            << res.body;
    EXPECT_NE(res.body.find("event: end"), std::string::npos);
}

TEST(Telemetry, ConcurrentScrapersDuringARealRun)
{
    const auto a15 = platform::cortexA15Platform();
    const isa::InstructionLibrary& lib = a15->library();
    measure::SimPowerMeasurement meas(lib, a15);
    fitness::DefaultFitness fit;
    GaParams params = smallParams(7, 20);
    params.threads = 2;  // exercise worker-pool + scraper overlap
    Engine engine(params, lib, meas, fit);

    const bool was = stats::enabled();
    stats::setEnabled(true);  // histograms live while scrapers render

    const config::RunConfig cfg = listenOnly(lib, params);
    config::RunPipeline pipeline(cfg, meas);
    engine.setGenerationCallback(pipeline.callback());
    const std::string base = pipeline.listenAddress();

    std::atomic<bool> stop{false};
    std::atomic<int> scrapes{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> scrapers;
    for (int t = 0; t < 2; ++t) {
        scrapers.emplace_back([&, t] {
            const char* endpoints[] = {"/metrics", "/status", "/history",
                                       "/champion", "/healthz"};
            int i = t;
            while (!stop.load(std::memory_order_acquire)) {
                const net::HttpResult r =
                    net::httpGet(base + endpoints[i % 5]);
                if (r.ok && r.status == 200)
                    scrapes.fetch_add(1, std::memory_order_relaxed);
                else
                    failures.fetch_add(1, std::memory_order_relaxed);
                ++i;
            }
        });
    }
    std::thread sse([&] {
        // Long-poll the event stream for the whole run; the handler
        // exercises the lock-free buffer from a worker thread.
        (void)net::httpGet(base + "/events", /*timeout_ms=*/30000);
    });

    engine.run();
    pipeline.finish();
    stop.store(true, std::memory_order_release);
    for (std::thread& scraper : scrapers)
        scraper.join();
    sse.join();
    stats::setEnabled(was);

    EXPECT_GT(scrapes.load(), 0);
    EXPECT_EQ(failures.load(), 0);
    const net::HttpResult history = net::httpGet(base + "/history");
    json::Value rows;
    ASSERT_TRUE(json::parse(history.body, rows, nullptr));
    EXPECT_EQ(rows.array.size(), 20u);
}

// ------------------------------------------------ artifact byte-identity

const char kIdentityConfig[] = R"(
<gest_configuration>
  <ga population_size="8" individual_size="8" generations="5" seed="21"
      tournament_size="2" threads="1"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a15"/>
  </measurement>
  <fitness class="DefaultFitness"/>
</gest_configuration>
)";

/**
 * history.csv's last five columns are wall-clock phase timings
 * (selection_ms .. io_ms) that differ between *any* two runs; drop
 * them so the comparison covers exactly the deterministic GA columns.
 */
std::string
stripTimingColumns(const std::string& csv)
{
    std::string out;
    std::size_t start = 0;
    while (start < csv.size()) {
        std::size_t end = csv.find('\n', start);
        if (end == std::string::npos)
            end = csv.size();
        std::string line = csv.substr(start, end - start);
        for (int i = 0; i < 5; ++i) {
            const std::size_t comma = line.rfind(',');
            if (comma == std::string::npos)
                break;
            line.erase(comma);
        }
        out += line + "\n";
        start = end + 1;
    }
    return out;
}

TEST(Telemetry, RunArtifactsAreByteIdenticalWithServerOnAndOff)
{
    const std::string dir = makeTempDir("gest-net-ident");

    config::RunConfig off = config::parseConfig(kIdentityConfig);
    off.outputDirectory = dir + "/off";
    const config::RunResult off_result = config::runFromConfig(off);
    EXPECT_TRUE(off_result.listenAddress.empty());

    config::RunConfig on = config::parseConfig(kIdentityConfig);
    on.outputDirectory = dir + "/on";
    on.listenAddress = "127.0.0.1:0";
    const config::RunResult on_result = config::runFromConfig(on);
    EXPECT_FALSE(on_result.listenAddress.empty());

    EXPECT_EQ(off_result.best.code, on_result.best.code);
    // lineage.csv holds only deterministic GA state: byte-identical.
    EXPECT_EQ(readFile(dir + "/off/lineage.csv"),
              readFile(dir + "/on/lineage.csv"));
    // history.csv embeds wall-clock timings; everything else matches.
    EXPECT_EQ(stripTimingColumns(readFile(dir + "/off/history.csv")),
              stripTimingColumns(readFile(dir + "/on/history.csv")));
    removeAll(dir);
}

// -------------------------------------------------------- gest top bits

TEST(Top, SparklineMapsRangeOntoGlyphs)
{
    EXPECT_EQ(output::sparkline({}, 10), "");
    const std::string flat = output::sparkline({1.0, 1.0, 1.0}, 10);
    EXPECT_EQ(flat, "▄▄▄");  // constant renders mid-height
    const std::string ramp =
        output::sparkline({0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0}, 8);
    EXPECT_EQ(ramp, "▁▂▃▄▅▆▇█");
    // Downsampling keeps the right edge at the latest value.
    const std::vector<double> many(100, 1.0);
    EXPECT_EQ(output::sparkline(many, 10).size(),
              10 * std::string("▁").size());
}

TEST(Top, FetchesASnapshotFromALiveServer)
{
    const auto a15 = platform::cortexA15Platform();
    const isa::InstructionLibrary& lib = a15->library();
    measure::SimPowerMeasurement meas(lib, a15);
    fitness::DefaultFitness fit;
    Engine engine(smallParams(9, 4), lib, meas, fit);

    const config::RunConfig cfg = listenOnly(lib, smallParams(9, 4));
    config::RunPipeline pipeline(cfg, meas);
    engine.setGenerationCallback(pipeline.callback());
    engine.run();

    output::TopSnapshot snapshot;
    ASSERT_TRUE(output::fetchTopSnapshot(pipeline.listenAddress(),
                                         snapshot))
        << snapshot.error;
    EXPECT_TRUE(snapshot.live);
    EXPECT_EQ(snapshot.generation, 3);
    EXPECT_EQ(snapshot.totalGenerations, 4);
    EXPECT_EQ(snapshot.bestTrajectory.size(), 4u);
    const std::string frame = output::renderTop(snapshot);
    EXPECT_NE(frame.find("gen 3/4"), std::string::npos) << frame;
    EXPECT_NE(frame.find("fitness "), std::string::npos) << frame;

    output::TopSnapshot bad;
    EXPECT_FALSE(output::fetchTopSnapshot("127.0.0.1:1", bad));
    EXPECT_FALSE(bad.error.empty());
}

} // namespace
} // namespace gest
