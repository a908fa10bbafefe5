/**
 * @file
 * Tests for the observability layer: the stats registry, the scoped
 * timer, JSON escaping, the Chrome trace writer, the run-report
 * analyzer and the thread-pool worker ids that trace events rely on.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "config/config.hh"
#include "output/report.hh"
#include "output/trace_writer.hh"
#include "stats/stats.hh"
#include "util/fileutil.hh"
#include "util/logging.hh"
#include "util/strutil.hh"
#include "util/thread_pool.hh"

namespace {

using namespace gest;

/** Stats recording is a process-wide flag: save and restore it. */
class StatsTest : public ::testing::Test
{
  protected:
    void SetUp() override { _was = stats::enabled(); }
    void TearDown() override { stats::setEnabled(_was); }

  private:
    bool _was = false;
};

TEST_F(StatsTest, CounterGatedByEnabledFlag)
{
    stats::Counter& ctr = stats::StatsRegistry::instance().counter(
        "test.counter", "a test counter");
    stats::StatsRegistry::instance().resetValues();

    stats::setEnabled(false);
    ctr.inc();
    ctr.inc(10);
    EXPECT_EQ(ctr.value(), 0u);

    stats::setEnabled(true);
    ctr.inc();
    ctr.inc(10);
    EXPECT_EQ(ctr.value(), 11u);
}

TEST_F(StatsTest, RegistryReturnsSameObjectForSameName)
{
    stats::Counter& a =
        stats::StatsRegistry::instance().counter("test.same");
    stats::Counter& b =
        stats::StatsRegistry::instance().counter("test.same");
    EXPECT_EQ(&a, &b);

    stats::Histogram& h1 = stats::StatsRegistry::instance().histogram(
        "test.same_hist", "first description");
    stats::Histogram& h2 = stats::StatsRegistry::instance().histogram(
        "test.same_hist", "second description");
    EXPECT_EQ(&h1, &h2);
    EXPECT_EQ(h2.desc(), "first description"); // the creator's wins
}

TEST_F(StatsTest, GaugeSetAndAdd)
{
    stats::Gauge& g =
        stats::StatsRegistry::instance().gauge("test.gauge");
    stats::StatsRegistry::instance().resetValues();
    stats::setEnabled(true);
    g.set(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    g.add(1.5);
    EXPECT_DOUBLE_EQ(g.value(), 4.0);
    stats::setEnabled(false);
    g.set(99.0);
    EXPECT_DOUBLE_EQ(g.value(), 4.0);
}

TEST_F(StatsTest, HistogramBucketsAndExtrema)
{
    stats::Histogram& h = stats::StatsRegistry::instance().histogram(
        "test.hist", "test histogram");
    stats::StatsRegistry::instance().resetValues();
    stats::setEnabled(true);

    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.minSeen(), 0.0); // empty: defined as zero
    EXPECT_DOUBLE_EQ(h.maxSeen(), 0.0);

    const std::size_t last = stats::Histogram::kBuckets - 1;
    h.sample(1.0);     // [1, 1.125)
    h.sample(1.124);   // same bucket
    h.sample(-3.0);    // below the range: first bucket
    h.sample(0.0);     // below the range: first bucket
    h.sample(0x1p40);  // the range's top is exclusive: last bucket
    h.sample(1e300);   // last bucket

    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.bucketCount(stats::Histogram::bucketIndex(1.0)), 2u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(last), 2u);
    EXPECT_DOUBLE_EQ(h.sum(), 1.0 + 1.124 - 3.0 + 0x1p40 + 1e300);
    EXPECT_DOUBLE_EQ(h.minSeen(), -3.0);
    EXPECT_DOUBLE_EQ(h.maxSeen(), 1e300);

    stats::StatsRegistry::instance().resetValues();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.bucketCount(last), 0u);
    EXPECT_DOUBLE_EQ(h.minSeen(), 0.0);
}

TEST_F(StatsTest, HistogramLayoutEdgesAreExactAndLogLinear)
{
    using H = stats::Histogram;
    EXPECT_EQ(H::edge(0), -std::numeric_limits<double>::infinity());
    EXPECT_EQ(H::edge(1), std::ldexp(1.0, H::kMinExp));
    EXPECT_EQ(H::edge(H::kBuckets - 1), std::ldexp(1.0, H::kMaxExp));
    EXPECT_EQ(H::edge(H::kBuckets), std::numeric_limits<double>::infinity());
    EXPECT_EQ(H::bucketIndex(std::numeric_limits<double>::quiet_NaN()), 0u);
    EXPECT_EQ(H::bucketIndex(-std::numeric_limits<double>::infinity()), 0u);
    EXPECT_EQ(H::bucketIndex(std::numeric_limits<double>::infinity()),
              H::kBuckets - 1);
    for (std::size_t i = 1; i < H::kBuckets; ++i) {
        const double lo = H::edge(i);
        // Each edge maps to its own bucket, the double just below it
        // to the bucket before.
        ASSERT_EQ(H::bucketIndex(lo), i) << lo;
        ASSERT_EQ(H::bucketIndex(std::nextafter(lo, 0.0)), i - 1) << lo;
        // Edges print and parse back exactly.
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.15g", lo);
        ASSERT_EQ(std::strtod(buf, nullptr), lo) << buf;
        if (i + 1 < H::kBuckets) {
            ASSERT_LE(H::edge(i + 1) - lo, lo / H::kSubBuckets) << lo;
        }
    }
}

TEST_F(StatsTest, HistogramQuantilesTrackExactOrderStatistics)
{
    // Log-uniform samples over nine decades: every quantile sits in the
    // same bucket as the exact order statistic, so the two differ by at
    // most the layout's relative bucket width.
    stats::Histogram& h = stats::StatsRegistry::instance().histogram(
        "test.quantile_accuracy", "");
    stats::StatsRegistry::instance().resetValues();
    stats::setEnabled(true);
    std::mt19937_64 rng(15);
    std::uniform_real_distribution<double> decades(-2.0, 7.0);
    std::vector<double> samples(100000);
    for (double& v : samples) {
        v = std::pow(10.0, decades(rng));
        h.sample(v);
    }
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    for (double q : {0.01, 0.10, 0.50, 0.90, 0.99, 0.999}) {
        const auto rank = static_cast<std::size_t>(std::ceil(q * n));
        const double exact = samples[rank - 1];
        EXPECT_LE(std::abs(h.quantile(q) - exact),
                  exact / stats::Histogram::kSubBuckets)
            << "q=" << q << " exact=" << exact;
    }
}

TEST_F(StatsTest, ScopedTimerOnlyRunsWhenEnabled)
{
    stats::Histogram& h = stats::StatsRegistry::instance().histogram(
        "test.timer", "");
    stats::StatsRegistry::instance().resetValues();

    stats::setEnabled(false);
    {
        stats::ScopedTimer timer(&h);
        EXPECT_DOUBLE_EQ(timer.stop(), 0.0);
    }
    EXPECT_EQ(h.count(), 0u);

    stats::setEnabled(true);
    {
        stats::ScopedTimer timer(&h);
        EXPECT_GE(timer.stop(), 0.0);
        EXPECT_DOUBLE_EQ(timer.stop(), 0.0); // second stop is a no-op
    }
    {
        stats::ScopedTimer timer(&h); // records at scope exit
    }
    EXPECT_EQ(h.count(), 2u);

    stats::ScopedTimer null_timer(nullptr); // never samples
    EXPECT_DOUBLE_EQ(null_timer.stop(), 0.0);
}

TEST_F(StatsTest, ConcurrentRecordingIsConsistent)
{
    stats::Counter& ctr =
        stats::StatsRegistry::instance().counter("test.mt_counter");
    stats::Histogram& h = stats::StatsRegistry::instance().histogram(
        "test.mt_hist", "");
    stats::StatsRegistry::instance().resetValues();
    stats::setEnabled(true);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                ctr.inc();
                h.sample(static_cast<double>(t % 8) + 0.5);
            }
        });
    }
    for (std::thread& t : threads)
        t.join();

    EXPECT_EQ(ctr.value(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(h.count(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    std::uint64_t in_buckets = 0;
    for (std::size_t i = 0; i < stats::Histogram::kBuckets; ++i)
        in_buckets += h.bucketCount(i);
    EXPECT_EQ(in_buckets, h.count());
}

TEST_F(StatsTest, ExpositionCarriesNamesValuesAndEscaping)
{
    stats::StatsRegistry& reg = stats::StatsRegistry::instance();
    stats::Counter& ctr = reg.counter(
        "test.dump_counter", "desc with \"quotes\", back\\slash\nnewline");
    reg.resetValues();
    stats::setEnabled(true);
    ctr.inc(7);

    const std::string text = stats::renderPrometheusMetrics();
    // HELP keeps quotes verbatim and escapes backslash and newline, so
    // the description stays on its one comment line.
    EXPECT_NE(text.find("# HELP gest_test_dump_counter_total desc with "
                        "\"quotes\", back\\\\slash\\nnewline\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE gest_test_dump_counter_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("\ngest_test_dump_counter_total 7\n"),
              std::string::npos);
    EXPECT_EQ(stats::prometheusName("a.b-c/d9"), "gest_a_b_c_d9");
    // The registry names() list is sorted and contains everything.
    const std::vector<std::string> names = reg.names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    EXPECT_NE(std::find(names.begin(), names.end(),
                        std::string("test.dump_counter")),
              names.end());
}

TEST_F(StatsTest, HistogramQuantileStaysInRangeAndMonotone)
{
    // Property: for any sample set, quantile(q) lies in [min, max] and
    // never decreases as q grows — whether the mass sits inside the
    // layout's range, in the bucket below it (zero and negatives) or in
    // the bucket above it.
    stats::Histogram& h = stats::StatsRegistry::instance().histogram(
        "test.quantile_property", "quantile property");
    stats::setEnabled(true);
    std::mt19937_64 rng(20190324);
    struct Mix
    {
        double below, above;  ///< share of samples outside the range
    };
    const Mix mixes[] = {{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0},
                         {0.3, 0.0}, {0.0, 0.3}, {0.25, 0.25}};
    const double top = std::ldexp(1.0, stats::Histogram::kMaxExp);
    for (const Mix& mix : mixes) {
        for (int trial = 0; trial < 20; ++trial) {
            stats::StatsRegistry::instance().resetValues();
            const int n = 1 + static_cast<int>(rng() % 200);
            std::uniform_real_distribution<double> unit(0.0, 1.0);
            for (int i = 0; i < n; ++i) {
                const double pick = unit(rng);
                if (pick < mix.below)
                    h.sample(-50.0 * unit(rng));
                else if (pick < mix.below + mix.above)
                    h.sample(top * (1.0 + 50.0 * unit(rng)));
                else
                    h.sample(10.0 * unit(rng) + 1e-3);
            }
            double previous = h.quantile(0.0);
            for (int step = 0; step <= 1000; ++step) {
                const double q = step / 1000.0;
                const double value = h.quantile(q);
                ASSERT_GE(value, h.minSeen()) << "q=" << q;
                ASSERT_LE(value, h.maxSeen()) << "q=" << q;
                ASSERT_GE(value, previous) << "q=" << q << " n=" << n;
                previous = value;
            }
        }
    }
}

TEST_F(StatsTest, ExpositionRoundTripsEveryValue)
{
    // Every value the sealed metrics.prom carries reads back through
    // the shared reader exactly as the registry holds it.
    stats::StatsRegistry& reg = stats::StatsRegistry::instance();
    stats::Counter& big = reg.counter("test.roundtrip.counter", "");
    stats::Gauge& third = reg.gauge("test.roundtrip.third", "");
    stats::Gauge& tiny = reg.gauge("test.roundtrip.tiny", "");
    stats::Gauge& huge = reg.gauge("test.roundtrip.huge", "");
    stats::Histogram& hist = reg.histogram("test.roundtrip.hist", "");
    reg.resetValues();
    stats::setEnabled(true);
    big.inc(123456789012ull);
    third.set(1.0 / 3.0);
    tiny.set(0.1 + 0.2);
    huge.set(-2.5e17 - 1.0 / 7.0);
    for (double v : {0.1, 0.7, 1.0 / 3.0, -0.2, 9.75})
        hist.sample(v);

    const std::string text = stats::renderPrometheusMetrics();
    int checked = 0;
    for (const stats::Counter* c : reg.counterList()) {
        EXPECT_EQ(stats::exposedValue(
                      text, stats::prometheusName(c->name()) + "_total",
                      -1.0),
                  static_cast<double>(c->value()))
            << c->name();
        ++checked;
    }
    for (const stats::Gauge* g : reg.gaugeList()) {
        EXPECT_EQ(stats::exposedValue(text, stats::prometheusName(g->name()),
                                      -1.0),
                  g->value())
            << g->name();
        ++checked;
    }
    for (const stats::Histogram* hg : reg.histogramList()) {
        const std::string metric = stats::prometheusName(hg->name());
        EXPECT_EQ(stats::exposedValue(text, metric + "_sum", -1.0),
                  hg->sum())
            << hg->name();
        EXPECT_EQ(stats::exposedValue(text, metric + "_count", -1.0),
                  static_cast<double>(hg->count()))
            << hg->name();
        ++checked;
    }
    EXPECT_GE(checked, 5);
    EXPECT_EQ(stats::exposedValue(text, "gest_no_such_metric", -7.0),
              -7.0);
    // A labelled bucket line is not the unlabelled sample.
    EXPECT_EQ(stats::exposedValue(text, "gest_test_roundtrip_hist_bucket",
                                  -7.0),
              -7.0);
}

// ---------------------------------------------------------------- JSON

/** Minimal unescaper for round-trip checks of jsonEscape output. */
std::string
jsonUnescape(const std::string& s)
{
    std::string out;
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\') {
            out += s[i];
            continue;
        }
        ++i;
        switch (s[i]) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'f': out += '\f'; break;
          case 'b': out += '\b'; break;
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'u': {
              const int code =
                  std::stoi(s.substr(i + 1, 4), nullptr, 16);
              out += static_cast<char>(code);
              i += 4;
              break;
          }
          default: out += s[i];
        }
    }
    return out;
}

TEST_F(StatsTest, OperatorHistogramsSampleOnlyBredGenerations)
{
    // Generation 0 is seeded, not bred: a 10-generation run evaluates
    // 10 generations but runs selection, crossover and mutation for 9.
    const config::RunConfig cfg = config::parseConfig(R"(
<gest_configuration>
  <ga population_size="6" individual_size="6" generations="10" seed="5"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a15" min_cycles="256"/>
  </measurement>
  <fitness class="DefaultFitness"/>
</gest_configuration>
)");
    ASSERT_TRUE(cfg.recordStats);
    const config::RunResult result = config::runFromConfig(cfg);
    ASSERT_EQ(result.history.size(), 10u);

    stats::StatsRegistry& reg = stats::StatsRegistry::instance();
    EXPECT_EQ(reg.histogram("engine.generation_eval_us", "").count(), 10u);
    for (const char* name : {"engine.selection_us", "engine.crossover_us",
                             "engine.mutation_us"})
        EXPECT_EQ(reg.histogram(name, "").count(), 9u) << name;
}

TEST(JsonEscape, RoundTripsQuotesNewlinesAndControlChars)
{
    const std::string nasty =
        "he said \"hi\"\nback\\slash\ttab\rret\fform\bbell\x01" "end";
    const std::string escaped = jsonEscape(nasty);
    EXPECT_EQ(escaped.find('\n'), std::string::npos);
    EXPECT_EQ(escaped.find('\r'), std::string::npos);
    EXPECT_NE(escaped.find("\\\""), std::string::npos);
    EXPECT_NE(escaped.find("\\u0001"), std::string::npos);
    EXPECT_EQ(jsonUnescape(escaped), nasty);
}

TEST(JsonEscape, PassesUtf8Through)
{
    const std::string utf8 = "grüße 測試 → done";
    EXPECT_EQ(jsonEscape(utf8), utf8);
    EXPECT_EQ(jsonUnescape(jsonEscape(utf8)), utf8);
}

// --------------------------------------------------------- TraceWriter

TEST(TraceWriter, EmitsValidEventsAndEscapesNames)
{
    const std::string dir = makeTempDir("gest-trace");
    output::TraceWriter trace(dir + "/trace.json");
    trace.setThreadName(0, "coordinator");
    trace.setThreadName(1, "worker \"zero\"\n");
    const double now = stats::nowUs();
    trace.completeEvent("phase \"one\"", "test", 0, now, 12.5,
                        {{"generation", 3.0}});
    trace.instantEvent("marker", "test", 1);
    // process_name metadata + 2 thread names + 1 complete + 1 instant.
    EXPECT_EQ(trace.eventCount(), 5u);

    const std::string json = trace.toJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("phase \\\"one\\\""), std::string::npos);
    EXPECT_NE(json.find("worker \\\"zero\\\"\\n"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(json.find("\"generation\":3"), std::string::npos);
    // No raw control characters may survive into the file.
    for (const char c : json)
        EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20);

    trace.finish();
    const std::string on_disk = readFile(dir + "/trace.json");
    EXPECT_EQ(on_disk, json);
    trace.finish(); // idempotent
}

TEST(TraceWriter, ClampsEventsBeforeItsEpochToZero)
{
    const std::string dir = makeTempDir("gest-trace");
    output::TraceWriter trace(dir + "/trace.json");
    trace.completeEvent("early", "test", 0, -1e12, 5.0);
    EXPECT_NE(trace.toJson().find("\"ts\":0.000"), std::string::npos);
}

// -------------------------------------------------------------- report

TEST(Report, AnalyzesAV2HistoryFile)
{
    const std::string dir = makeTempDir("gest-report");
    writeFile(dir + "/history.csv",
              "# gest-history v2\n"
              "generation,best_fitness,average_fitness,best_id,"
              "unique_instructions,diversity,cache_hits,cache_misses,"
              "selection_ms,crossover_ms,mutation_ms,evaluation_ms,"
              "io_ms\n"
              "0,1.5,1.0,3,10,0.9,0,20,0.1,0.2,0.3,40.0,2.0\n"
              "1,2.5,2.0,7,12,0.8,15,5,0.1,0.2,0.3,10.0,2.0\n");
    const output::RunReport report = output::analyzeRun(dir);
    EXPECT_EQ(report.historyVersion, 2);
    EXPECT_TRUE(report.hasTimings);
    ASSERT_EQ(report.rows.size(), 2u);
    EXPECT_DOUBLE_EQ(report.firstBest, 1.5);
    EXPECT_DOUBLE_EQ(report.bestFitness, 2.5);
    EXPECT_EQ(report.bestGeneration, 1);
    EXPECT_EQ(report.totalMeasured, 25u);
    EXPECT_EQ(report.totalCacheHits, 15u);
    EXPECT_DOUBLE_EQ(report.evaluationMs, 50.0);
    EXPECT_NEAR(report.cacheHitRate(), 15.0 / 40.0, 1e-12);
    EXPECT_NEAR(report.evaluationsPerSecond(), 25.0 / 0.05, 1e-9);

    const std::string text = output::formatReport(report);
    EXPECT_NE(text.find("phase breakdown"), std::string::npos);
    EXPECT_NE(text.find("evaluation"), std::string::npos);
    EXPECT_NE(text.find("hit rate"), std::string::npos);
    EXPECT_NE(text.find("evaluations/sec"), std::string::npos);
}

TEST(Report, ReadsV1FilesWithoutTimingColumns)
{
    const std::string dir = makeTempDir("gest-report");
    writeFile(dir + "/history.csv",
              "generation,best_fitness,average_fitness,best_id,"
              "unique_instructions,diversity,cache_hits,cache_misses\n"
              "0,1.5,1.0,3,10,0.9,2,18\n");
    const output::RunReport report = output::analyzeRun(dir);
    EXPECT_EQ(report.historyVersion, 1);
    EXPECT_FALSE(report.hasTimings);
    EXPECT_EQ(report.totalMeasured, 18u);
    EXPECT_DOUBLE_EQ(report.evaluationsPerSecond(), 0.0);
    const std::string text = output::formatReport(report);
    EXPECT_NE(text.find("predates"), std::string::npos);
}

TEST(Report, FatalsWithActionableMessages)
{
    try {
        output::analyzeRun("/nonexistent/run/dir");
        FAIL() << "expected fatal()";
    } catch (const FatalError& err) {
        EXPECT_NE(std::string(err.what()).find("does not exist"),
                  std::string::npos);
    }

    const std::string empty = makeTempDir("gest-report");
    try {
        output::analyzeRun(empty);
        FAIL() << "expected fatal()";
    } catch (const FatalError& err) {
        EXPECT_NE(std::string(err.what()).find("history.csv"),
                  std::string::npos);
        EXPECT_NE(std::string(err.what()).find("run directory"),
                  std::string::npos);
    }

    const std::string truncated = makeTempDir("gest-report");
    writeFile(truncated + "/history.csv",
              "# gest-history v2\n"
              "generation,best_fitness,average_fitness,best_id,"
              "unique_instructions,diversity,cache_hits,cache_misses,"
              "selection_ms,crossover_ms,mutation_ms,evaluation_ms,"
              "io_ms\n"
              "0,1.5,1.0,3,10,0.9,0,20,0.1,0.2,0.3,40.0,2.0\n"
              "1,2.5,2.0\n");
    try {
        output::analyzeRun(truncated);
        FAIL() << "expected fatal()";
    } catch (const FatalError& err) {
        EXPECT_NE(std::string(err.what()).find("truncated"),
                  std::string::npos);
    }

    const std::string headless = makeTempDir("gest-report");
    writeFile(headless + "/history.csv", "");
    EXPECT_THROW(output::analyzeRun(headless), FatalError);
}

TEST(Report, HandlesDegenerateHistoriesWithoutDivisionByZero)
{
    // Single row, zero duration everywhere, zero first-gen best, no
    // cache traffic: every ratio in the report must degrade to 0 or
    // "n/a", never inf/nan.
    const std::string dir = makeTempDir("gest-report");
    writeFile(dir + "/history.csv",
              "# gest-history v2\n"
              "generation,best_fitness,average_fitness,best_id,"
              "unique_instructions,diversity,cache_hits,cache_misses,"
              "selection_ms,crossover_ms,mutation_ms,evaluation_ms,"
              "io_ms\n"
              "0,0.0,0.0,1,0,0.0,0,0,0,0,0,0,0\n");
    const output::RunReport report = output::analyzeRun(dir);
    ASSERT_EQ(report.rows.size(), 1u);
    EXPECT_DOUBLE_EQ(report.cacheHitRate(), 0.0);
    EXPECT_DOUBLE_EQ(report.evaluationsPerSecond(), 0.0);

    const std::string text = output::formatReport(report);
    EXPECT_NE(text.find("throughput: n/a"), std::string::npos);
    EXPECT_EQ(text.find("inf"), std::string::npos);
    EXPECT_EQ(text.find("nan"), std::string::npos);
    // Zero first-gen best: the improvement percentage is omitted
    // rather than divided by zero.
    EXPECT_EQ(text.find("(+"), std::string::npos);

    const std::string json = output::formatReportJson(report);
    EXPECT_EQ(json.find("inf"), std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);
    EXPECT_NE(json.find("\"evaluations_per_second\": 0"),
              std::string::npos);
    EXPECT_NE(json.find("\"analytics\": null"), std::string::npos);
}

TEST(Report, JsonCarriesSummaryAndAnalytics)
{
    const std::string dir = makeTempDir("gest-report");
    writeFile(dir + "/history.csv",
              "# gest-history v2\n"
              "generation,best_fitness,average_fitness,best_id,"
              "unique_instructions,diversity,cache_hits,cache_misses,"
              "selection_ms,crossover_ms,mutation_ms,evaluation_ms,"
              "io_ms\n"
              "0,1.5,1.0,3,10,0.9,0,20,0.1,0.2,0.3,40.0,2.0\n"
              "1,2.5,2.0,7,12,0.8,15,5,0.1,0.2,0.3,10.0,2.0\n");
    writeFile(dir + "/analytics.csv",
              "# gest-analytics v1\n"
              "generation,mix_short_int,mix_long_int,mix_float_simd,"
              "mix_mem,mix_branch,mix_nop,gene_entropy_bits,"
              "pairwise_diversity,fitness_min,fitness_q1,"
              "fitness_median,fitness_q3,fitness_max,"
              "crossover_children,crossover_improved,mutation_children,"
              "mutation_improved,elite_copies\n"
              "0,4,3,2,1,0,0,2.0,0.9,0.5,0.6,0.7,0.8,1.5,0,0,0,0,0\n"
              "1,5,2,2,1,0,0,1.5,0.75,0.6,0.7,0.8,0.9,2.5,3,1,4,2,1\n");
    const output::RunReport report = output::analyzeRun(dir);
    EXPECT_TRUE(report.hasAnalytics);
    EXPECT_DOUBLE_EQ(report.finalGeneEntropyBits, 1.5);
    EXPECT_DOUBLE_EQ(report.finalPairwiseDiversity, 0.75);
    EXPECT_EQ(report.crossoverChildren, 3u);
    EXPECT_EQ(report.mutationImproved, 2u);
    EXPECT_EQ(report.eliteCopies, 1u);

    const std::string text = output::formatReport(report);
    EXPECT_NE(text.find("evolution analytics"), std::string::npos);
    EXPECT_NE(text.find("crossover"), std::string::npos);

    const std::string json = output::formatReportJson(report);
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"generations\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"best_fitness\": 2.5"), std::string::npos);
    EXPECT_NE(json.find("\"phase_ms\""), std::string::npos);
    EXPECT_NE(json.find("\"crossover_children\": 3"),
              std::string::npos);
    EXPECT_NE(json.find("\"mutation_improved\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"run_dir\": \"" + dir + "\""),
              std::string::npos);
}

// ------------------------------------------------------------ explain

TEST(Explain, ReconstructsAncestryAndFlagsPathologies)
{
    const std::string dir = makeTempDir("gest-explain");
    writeFile(dir + "/lineage.csv",
              "# gest-lineage v1\n"
              "generation,id,op,parent1,parent2,mutated_genes,"
              "mutated_indices,fitness\n"
              "0,1,seed,0,0,0,,1.0\n"
              "0,2,seed,0,0,0,,2.0\n"
              "1,3,crossover,1,2,0,,1.5\n"
              "2,4,mutation,3,2,2,0;5,3.0\n");
    // Twelve generations of flat best fitness, collapsed diversity and
    // fruitless mutation: all three pathology detectors should fire.
    std::string analytics =
        "# gest-analytics v1\n"
        "generation,mix_short_int,mix_long_int,mix_float_simd,"
        "mix_mem,mix_branch,mix_nop,gene_entropy_bits,"
        "pairwise_diversity,fitness_min,fitness_q1,fitness_median,"
        "fitness_q3,fitness_max,crossover_children,crossover_improved,"
        "mutation_children,mutation_improved,elite_copies\n";
    for (int g = 0; g < 12; ++g)
        analytics += std::to_string(g) +
                     ",6,0,0,0,0,0,0.0,0.01,3.0,3.0,3.0,3.0,3.0,"
                     "2,0,5,0,1\n";
    writeFile(dir + "/analytics.csv", analytics);

    const output::ExplainReport report = output::analyzeExplain(dir);
    ASSERT_EQ(report.events.size(), 4u);
    EXPECT_TRUE(report.ancestry.reachesGeneration0);
    EXPECT_EQ(report.ancestry.ancestorCount, 4u);
    EXPECT_GE(report.pathologies.size(), 3u);

    const std::string text = output::formatExplain(report);
    EXPECT_NE(text.find("champion: id 4"), std::string::npos);
    EXPECT_NE(text.find("born generation 2 by mutation"),
              std::string::npos);
    EXPECT_NE(text.find("primary descent line"), std::string::npos);
    EXPECT_NE(text.find("instruction-mix trajectory"),
              std::string::npos);
    EXPECT_NE(text.find("diversity collapse"), std::string::npos);
    EXPECT_NE(text.find("mutation starvation"), std::string::npos);
    EXPECT_NE(text.find("elite stagnation"), std::string::npos);
    // Actionable knobs are named, not just symptoms.
    EXPECT_NE(text.find("mutation_rate"), std::string::npos);
    EXPECT_NE(text.find("stagnation_limit"), std::string::npos);
}

TEST(Explain, HealthyRunReportsNoPathologies)
{
    const std::string dir = makeTempDir("gest-explain");
    writeFile(dir + "/lineage.csv",
              "# gest-lineage v1\n"
              "generation,id,op,parent1,parent2,mutated_genes,"
              "mutated_indices,fitness\n"
              "0,1,seed,0,0,0,,1.0\n"
              "1,2,mutation,1,1,1,3,2.0\n");
    writeFile(dir + "/analytics.csv",
              "# gest-analytics v1\n"
              "generation,mix_short_int,mix_long_int,mix_float_simd,"
              "mix_mem,mix_branch,mix_nop,gene_entropy_bits,"
              "pairwise_diversity,fitness_min,fitness_q1,"
              "fitness_median,fitness_q3,fitness_max,"
              "crossover_children,crossover_improved,mutation_children,"
              "mutation_improved,elite_copies\n"
              "0,3,3,0,0,0,0,2.0,0.8,0.5,0.6,0.7,0.8,1.0,0,0,0,0,0\n"
              "1,3,2,1,0,0,0,1.8,0.7,0.6,0.8,1.0,1.5,2.0,2,1,3,1,1\n");
    const output::ExplainReport report = output::analyzeExplain(dir);
    EXPECT_TRUE(report.pathologies.empty());
    const std::string text = output::formatExplain(report);
    EXPECT_NE(text.find("none detected"), std::string::npos);
}

TEST(Explain, MissingLedgerFatalsActionably)
{
    const std::string dir = makeTempDir("gest-explain");
    try {
        output::analyzeExplain(dir);
        FAIL() << "expected fatal()";
    } catch (const FatalError& err) {
        EXPECT_NE(std::string(err.what()).find("lineage.csv"),
                  std::string::npos);
    }
    EXPECT_THROW(output::analyzeExplain("/nonexistent/run"),
                 FatalError);
}

TEST(Explain, WorksWithoutAnalyticsTrajectory)
{
    // A ledger alone (analytics.csv missing) still explains ancestry.
    const std::string dir = makeTempDir("gest-explain");
    writeFile(dir + "/lineage.csv",
              "# gest-lineage v1\n"
              "generation,id,op,parent1,parent2,mutated_genes,"
              "mutated_indices,fitness\n"
              "0,1,seed,0,0,0,,1.0\n");
    const output::ExplainReport report = output::analyzeExplain(dir);
    EXPECT_TRUE(report.analytics.empty());
    EXPECT_TRUE(report.pathologies.empty());
    const std::string text = output::formatExplain(report);
    EXPECT_NE(text.find("champion: id 1"), std::string::npos);
    EXPECT_NE(text.find("instruction-mix trajectory: n/a"),
              std::string::npos);
}

// ---------------------------------------------------- ThreadPool ids

TEST(ThreadPoolIds, DenseStableIdsAndNames)
{
    EXPECT_EQ(util::ThreadPool::currentWorkerId(), -1);
    EXPECT_EQ(util::ThreadPool::workerName(-1), "coordinator");
    EXPECT_EQ(util::ThreadPool::workerName(2), "worker-2");

    constexpr int kWorkers = 4;
    util::ThreadPool pool(kWorkers);

    // Exactly one task per worker: every task blocks until all kWorkers
    // tasks have started, so no worker can take a second index. The ids
    // observed must then be each worker's own id — dense in [0, N).
    auto one_round = [&pool] {
        std::vector<int> seen(kWorkers, -2);
        std::atomic<int> started{0};
        pool.parallelFor(kWorkers, [&](std::size_t index, int worker) {
            seen[index] = util::ThreadPool::currentWorkerId();
            EXPECT_EQ(seen[index], worker);
            started.fetch_add(1);
            while (started.load() < kWorkers)
                std::this_thread::yield();
        });
        return std::set<int>(seen.begin(), seen.end());
    };

    const std::set<int> first = one_round();
    EXPECT_EQ(first, (std::set<int>{0, 1, 2, 3}));
    // Stability: the same thread keeps its id across parallelFor calls.
    const std::set<int> second = one_round();
    EXPECT_EQ(second, first);
}

} // namespace
