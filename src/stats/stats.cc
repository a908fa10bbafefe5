#include "stats/stats.hh"

#include <algorithm>
#include <chrono>
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

Histogram::Histogram(std::string name, std::string desc, double lo,
                     double hi, std::size_t buckets)
    : _name(std::move(name)), _desc(std::move(desc)), _lo(lo), _hi(hi),
      _width((hi - lo) / static_cast<double>(buckets == 0 ? 1 : buckets)),
      _buckets(buckets == 0 ? 1 : buckets)
{
    // Infinity sentinels make the extremum CAS loops initialization
    // free; minSeen()/maxSeen() report 0 while the count is 0.
    _min.store(std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
    _max.store(-std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
}

void
Histogram::sample(double v)
{
    if (!enabled())
        return;
    if (v < _lo) {
        _underflow.fetch_add(1, std::memory_order_relaxed);
    } else if (v >= _hi) {
        _overflow.fetch_add(1, std::memory_order_relaxed);
    } else {
        const auto index = static_cast<std::size_t>((v - _lo) / _width);
        _buckets[std::min(index, _buckets.size() - 1)].fetch_add(
            1, std::memory_order_relaxed);
    }
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
    double cumulative =
        static_cast<double>(_underflow.load(std::memory_order_relaxed));
    double result;
    if (rank <= cumulative) {
        // The requested mass sits below the tracked range.
        result = minSeen();
    } else {
        result = maxSeen();  // falls through when mass is in overflow
        for (std::size_t i = 0; i < _buckets.size(); ++i) {
            const double in_bucket = static_cast<double>(
                _buckets[i].load(std::memory_order_relaxed));
            if (in_bucket > 0.0 && rank <= cumulative + in_bucket) {
                result = bucketLo(i) +
                         _width * (rank - cumulative) / in_bucket;
                break;
            }
            cumulative += in_bucket;
        }
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
    _underflow.store(0, std::memory_order_relaxed);
    _overflow.store(0, std::memory_order_relaxed);
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
StatsRegistry::histogram(const std::string& name, const std::string& desc,
                         double lo, double hi, std::size_t buckets)
{
    std::lock_guard<std::mutex> lock(_mutex);
    for (const std::unique_ptr<Histogram>& h : _histograms) {
        if (h->name() == name)
            return *h;
    }
    _histograms.emplace_back(new Histogram(name, desc, lo, hi, buckets));
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
        // Cumulative le buckets; the underflow bucket folds into the
        // first edge, the overflow bucket only into +Inf. +Inf and
        // _count come from the same running sum, so a sample landing
        // mid-render cannot make them disagree.
        std::uint64_t cumulative = h->underflow();
        for (std::size_t i = 0; i < h->numBuckets(); ++i) {
            cumulative += h->bucketCount(i);
            out += metric + "_bucket{le=\"" +
                   prometheusDouble(h->bucketLo(i + 1)) + "\"} " +
                   std::to_string(cumulative) + "\n";
        }
        cumulative += h->overflow();
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
