#include "stats/stats.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#if defined(__linux__)
#include <unistd.h>
#endif

namespace gest {
namespace stats {

namespace detail {
std::atomic<bool> enabledFlag{false};
} // namespace detail

void
setEnabled(bool on)
{
    detail::enabledFlag.store(on, std::memory_order_relaxed);
}

double
nowUs()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
        .count();
}

void
updateProcessGauges()
{
    // Resolved once; the registry guarantees stable references.
    static Gauge& uptime = StatsRegistry::instance().gauge(
        "process.uptime_seconds", "seconds since process start");
    static Gauge& rss = StatsRegistry::instance().gauge(
        "process.rss_bytes", "resident set size in bytes");
    uptime.set(nowUs() / 1e6);

    std::uint64_t rss_bytes = 0;
#if defined(__linux__)
    if (std::FILE* statm = std::fopen("/proc/self/statm", "r")) {
        unsigned long long total_pages = 0, resident_pages = 0;
        if (std::fscanf(statm, "%llu %llu", &total_pages,
                        &resident_pages) == 2)
            rss_bytes = resident_pages *
                        static_cast<std::uint64_t>(
                            sysconf(_SC_PAGESIZE));
        std::fclose(statm);
    }
#endif
    rss.set(static_cast<double>(rss_bytes));
}

namespace {

/** Relaxed CAS update keeping the extremum of @p current and @p v. */
template <typename Cmp>
void
updateExtremum(std::atomic<double>& current, double v, Cmp better)
{
    double seen = current.load(std::memory_order_relaxed);
    while (better(v, seen) &&
           !current.compare_exchange_weak(seen, v,
                                          std::memory_order_relaxed)) {
        // seen reloaded by compare_exchange_weak.
    }
}

/** Shortest of %.15g..%.17g that parses back to exactly @p v. */
std::string
prometheusDouble(double v)
{
    char buf[64];
    for (int digits = 15; digits < 17; ++digits) {
        std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
        if (std::strtod(buf, nullptr) == v)
            return buf;
    }
    std::snprintf(buf, sizeof(buf), "%.17g", v);
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

std::size_t
Histogram::bucketIndex(double v)
{
    if (!(v >= std::ldexp(1.0, kMinExp)))
        return 0;  // below the range, or NaN
    if (v >= std::ldexp(1.0, kMaxExp))
        return kBuckets - 1;
    // v = m * 2^exp with m in [0.5, 1): exp picks the octave, the
    // leading bits of m the sub-bucket.
    int exp = 0;
    const double m = std::frexp(v, &exp);
    const int octave = exp - 1 - kMinExp;
    const int sub = static_cast<int>(m * 2 * kSubBuckets) - kSubBuckets;
    return static_cast<std::size_t>(1 + octave * kSubBuckets + sub);
}

double
Histogram::edge(std::size_t i)
{
    if (i == 0)
        return -std::numeric_limits<double>::infinity();
    if (i >= kBuckets)
        return std::numeric_limits<double>::infinity();
    const std::size_t k = i - 1;
    return std::ldexp(1.0 + static_cast<double>(k % kSubBuckets) /
                                kSubBuckets,
                      kMinExp + static_cast<int>(k / kSubBuckets));
}

void
Histogram::sample(double v)
{
    if (!enabled())
        return;
    _buckets[bucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    _count.fetch_add(1, std::memory_order_relaxed);
    _sum.fetch_add(v, std::memory_order_relaxed);
    updateExtremum(_min, v, std::less<double>());
    updateExtremum(_max, v, std::greater<double>());
}

double
Histogram::minSeen() const
{
    return count() == 0 ? 0.0 : _min.load(std::memory_order_relaxed);
}

double
Histogram::maxSeen() const
{
    return count() == 0 ? 0.0 : _max.load(std::memory_order_relaxed);
}

double
Histogram::quantile(double q) const
{
    const std::uint64_t n = count();
    if (n == 0)
        return 0.0;
    q = std::min(std::max(q, 0.0), 1.0);
    const double rank = q * static_cast<double>(n);
    double result = maxSeen();
    double cumulative = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        const double in_bucket = static_cast<double>(
            _buckets[i].load(std::memory_order_relaxed));
        if (in_bucket > 0.0 && rank <= cumulative + in_bucket) {
            // Interpolate over the part of the bucket samples occupy;
            // this also bounds the open-ended first and last buckets.
            const double lo = std::max(edge(i), minSeen());
            const double hi = std::min(edge(i + 1), maxSeen());
            result = std::min(
                hi, lo + (hi - lo) * (rank - cumulative) / in_bucket);
            break;
        }
        cumulative += in_bucket;
    }
    // Concurrent sampling can leave count/buckets momentarily out of
    // step; the observed extremes are always a sane envelope.
    return std::min(std::max(result, minSeen()), maxSeen());
}

void
Histogram::reset()
{
    for (std::atomic<std::uint64_t>& bucket : _buckets)
        bucket.store(0, std::memory_order_relaxed);
    _count.store(0, std::memory_order_relaxed);
    _sum.store(0.0, std::memory_order_relaxed);
    _min.store(std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
    _max.store(-std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
}

StatsRegistry&
StatsRegistry::instance()
{
    static StatsRegistry registry;
    return registry;
}

Counter&
StatsRegistry::counter(const std::string& name, const std::string& desc)
{
    std::lock_guard<std::mutex> lock(_mutex);
    for (const std::unique_ptr<Counter>& c : _counters) {
        if (c->name() == name)
            return *c;
    }
    _counters.emplace_back(new Counter(name, desc));
    return *_counters.back();
}

Gauge&
StatsRegistry::gauge(const std::string& name, const std::string& desc)
{
    std::lock_guard<std::mutex> lock(_mutex);
    for (const std::unique_ptr<Gauge>& g : _gauges) {
        if (g->name() == name)
            return *g;
    }
    _gauges.emplace_back(new Gauge(name, desc));
    return *_gauges.back();
}

Histogram&
StatsRegistry::histogram(const std::string& name, const std::string& desc)
{
    std::lock_guard<std::mutex> lock(_mutex);
    for (const std::unique_ptr<Histogram>& h : _histograms) {
        if (h->name() == name)
            return *h;
    }
    _histograms.emplace_back(new Histogram(name, desc));
    return *_histograms.back();
}

void
StatsRegistry::resetValues()
{
    std::lock_guard<std::mutex> lock(_mutex);
    for (const std::unique_ptr<Counter>& c : _counters)
        c->reset();
    for (const std::unique_ptr<Gauge>& g : _gauges)
        g->reset();
    for (const std::unique_ptr<Histogram>& h : _histograms)
        h->reset();
}

std::vector<std::string>
StatsRegistry::names() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::vector<std::string> out;
    out.reserve(_counters.size() + _gauges.size() + _histograms.size());
    for (const std::unique_ptr<Counter>& c : _counters)
        out.push_back(c->name());
    for (const std::unique_ptr<Gauge>& g : _gauges)
        out.push_back(g->name());
    for (const std::unique_ptr<Histogram>& h : _histograms)
        out.push_back(h->name());
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<const Counter*>
StatsRegistry::counterList() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::vector<const Counter*> out;
    out.reserve(_counters.size());
    for (const std::unique_ptr<Counter>& c : _counters)
        out.push_back(c.get());
    return out;
}

std::vector<const Gauge*>
StatsRegistry::gaugeList() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::vector<const Gauge*> out;
    out.reserve(_gauges.size());
    for (const std::unique_ptr<Gauge>& g : _gauges)
        out.push_back(g.get());
    return out;
}

std::vector<const Histogram*>
StatsRegistry::histogramList() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::vector<const Histogram*> out;
    out.reserve(_histograms.size());
    for (const std::unique_ptr<Histogram>& h : _histograms)
        out.push_back(h.get());
    return out;
}

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
renderPrometheusMetrics()
{
    StatsRegistry& registry = StatsRegistry::instance();
    std::string out;
    out.reserve(4096);

    for (const Counter* c : registry.counterList()) {
        const std::string metric = prometheusName(c->name()) + "_total";
        appendHeader(out, metric, c->desc(), "counter");
        out += metric + " " + std::to_string(c->value()) + "\n";
    }
    for (const Gauge* g : registry.gaugeList()) {
        const std::string metric = prometheusName(g->name());
        appendHeader(out, metric, g->desc(), "gauge");
        out += metric + " " + prometheusDouble(g->value()) + "\n";
    }
    for (const Histogram* h : registry.histogramList()) {
        const std::string metric = prometheusName(h->name());
        appendHeader(out, metric, h->desc(), "histogram");
        // One cumulative le line per occupied bucket at its upper edge
        // (the last bucket's is +Inf). +Inf and _count share one
        // running sum, so a sample landing mid-render cannot split them.
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
            const std::uint64_t in_bucket = h->bucketCount(i);
            cumulative += in_bucket;
            if (in_bucket > 0 && i + 1 < Histogram::kBuckets)
                out += metric + "_bucket{le=\"" +
                       prometheusDouble(Histogram::edge(i + 1)) + "\"} " +
                       std::to_string(cumulative) + "\n";
        }
        const std::string total = std::to_string(cumulative);
        out += metric + "_bucket{le=\"+Inf\"} " + total + "\n";
        out += metric + "_sum " + prometheusDouble(h->sum()) + "\n";
        out += metric + "_count " + total + "\n";
        // Quantile gauges from Histogram::quantile (native histograms
        // carry no quantiles).
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

double
exposedValue(const std::string& exposition, const std::string& metric,
             double fallback)
{
    std::size_t pos = 0;
    while (pos < exposition.size()) {
        std::size_t eol = exposition.find('\n', pos);
        if (eol == std::string::npos)
            eol = exposition.size();
        if (exposition.compare(pos, metric.size(), metric) == 0 &&
            pos + metric.size() < eol &&
            exposition[pos + metric.size()] == ' ') {
            return std::strtod(
                exposition.c_str() + pos + metric.size() + 1, nullptr);
        }
        pos = eol + 1;
    }
    return fallback;
}

} // namespace stats
} // namespace gest
