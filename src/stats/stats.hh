/**
 * @file
 * Run-wide statistics in the gem5 idiom: a process-wide registry of
 * named counters, gauges and log-linear histograms, plus a scoped
 * timer that feeds histograms.
 *
 * Design constraints, in order:
 *
 *  1. **Zero cost when disabled.** Everything funnels through one
 *     relaxed atomic `enabled` flag; a disabled counter bump is a load
 *     and a predicted branch, and ScopedTimer never reads the clock.
 *     The engine's hot paths stay benchmark-neutral with stats off.
 *  2. **Lock-free when enabled.** Counters and histogram buckets are
 *     relaxed atomics, so evaluation workers record samples
 *     concurrently without serializing on a mutex (the registry mutex
 *     guards only name lookup, which callers do once and cache).
 *  3. **Stable references.** counter()/gauge()/histogram() return
 *     references that live as long as the process, so hot paths hold
 *     the pointer instead of re-hashing the name.
 *
 * The registry has one rendering, Prometheus text exposition
 * (renderPrometheusMetrics): the live `/metrics` endpoint serves it and
 * the end of a recorded run seals it as `metrics.prom`. exposedValue()
 * is the one reader of that text (`gest report`, `gest top`).
 */

#ifndef GEST_STATS_STATS_HH
#define GEST_STATS_STATS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gest {
namespace stats {

namespace detail {
/** The one global switch; read inline on every hot-path bump. */
extern std::atomic<bool> enabledFlag;
} // namespace detail

/** Globally enable or disable all recording (default: disabled). */
void setEnabled(bool on);

/** @return whether stats recording is currently on. */
inline bool
enabled()
{
    return detail::enabledFlag.load(std::memory_order_relaxed);
}

/** Monotonic microseconds since an arbitrary process-wide epoch. */
double nowUs();

/**
 * Refresh the process self-observation gauges:
 * `process.uptime_seconds` (time since the stats clock's epoch, i.e.
 * effectively process start) and `process.rss_bytes` (resident set
 * size from /proc/self/statm; 0 where that file does not exist).
 * Called at scrape time by the /metrics endpoint and before the
 * end-of-run stats dump — the values are sampled, not maintained, so
 * nothing ticks on the hot path.
 */
void updateProcessGauges();

/** A monotonically increasing event count. */
class Counter
{
  public:
    /** Add @p n when stats are enabled. */
    void
    inc(std::uint64_t n = 1)
    {
        if (enabled())
            _value.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

    const std::string& name() const { return _name; }
    const std::string& desc() const { return _desc; }

  private:
    friend class StatsRegistry;
    Counter(std::string name, std::string desc)
        : _name(std::move(name)), _desc(std::move(desc))
    {}
    void reset() { _value.store(0, std::memory_order_relaxed); }

    std::string _name;
    std::string _desc;
    std::atomic<std::uint64_t> _value{0};
};

/** A point-in-time value (last write wins). */
class Gauge
{
  public:
    void
    set(double v)
    {
        if (enabled())
            _value.store(v, std::memory_order_relaxed);
    }

    void
    add(double v)
    {
        if (enabled())
            _value.fetch_add(v, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

    const std::string& name() const { return _name; }
    const std::string& desc() const { return _desc; }

  private:
    friend class StatsRegistry;
    Gauge(std::string name, std::string desc)
        : _name(std::move(name)), _desc(std::move(desc))
    {}
    void reset() { _value.store(0.0, std::memory_order_relaxed); }

    std::string _name;
    std::string _desc;
    std::atomic<double> _value{0.0};
};

/**
 * A histogram over one log-linear layout shared by every instance:
 * kSubBuckets equal buckets per power of two over [2^kMinExp,
 * 2^kMaxExp), each at most 1/kSubBuckets of its lower edge wide, plus
 * one bucket below that range (zero, negatives) and one above. Edges
 * have four significant bits, so they print and parse back exactly.
 * Tracks count, sum, min and max in relaxed atomics; sample() is safe
 * from any thread.
 */
class Histogram
{
  public:
    static constexpr int kSubBuckets = 8;
    static constexpr int kMinExp = -10;
    static constexpr int kMaxExp = 40;
    static constexpr std::size_t kBuckets =
        (kMaxExp - kMinExp) * kSubBuckets + 2;

    /** The bucket @p v falls in. */
    static std::size_t bucketIndex(double v);

    /**
     * Inclusive lower edge of bucket @p i, exclusive upper edge of
     * bucket i - 1; edge(0) is -inf and edge(kBuckets) is +inf.
     */
    static double edge(std::size_t i);

    /** Record @p v when stats are enabled. */
    void sample(double v);

    std::uint64_t
    count() const
    {
        return _count.load(std::memory_order_relaxed);
    }

    double sum() const { return _sum.load(std::memory_order_relaxed); }

    /** Smallest sample seen; 0 when empty. */
    double minSeen() const;

    /** Largest sample seen; 0 when empty. */
    double maxSeen() const;

    /**
     * Quantile @p q in [0, 1] estimated from the bucket counts by
     * linear interpolation within the covering bucket, narrowed to the
     * observed [minSeen, maxSeen] range; 0 when empty. It shares a
     * bucket with the exact order statistic, so inside the layout's
     * range the two differ by at most 1/kSubBuckets relative. Behind
     * the exposition's `_quantile` series.
     */
    double quantile(double q) const;

    /** Count in bucket @p i. */
    std::uint64_t
    bucketCount(std::size_t i) const
    {
        return _buckets[i].load(std::memory_order_relaxed);
    }

    const std::string& name() const { return _name; }
    const std::string& desc() const { return _desc; }

  private:
    friend class StatsRegistry;
    Histogram(std::string name, std::string desc)
        : _name(std::move(name)), _desc(std::move(desc))
    {}
    void reset();

    std::string _name;
    std::string _desc;
    std::array<std::atomic<std::uint64_t>, kBuckets> _buckets{};
    std::atomic<std::uint64_t> _count{0};
    std::atomic<double> _sum{0.0};
    // Infinity sentinels make the extremum CAS loops initialization
    // free; minSeen()/maxSeen() report 0 while the count is 0.
    std::atomic<double> _min{std::numeric_limits<double>::infinity()};
    std::atomic<double> _max{-std::numeric_limits<double>::infinity()};
};

/**
 * The process-wide registry. Lookup by name creates on first use and
 * returns the same object thereafter; objects are never destroyed, so
 * references stay valid for the process lifetime.
 */
class StatsRegistry
{
  public:
    static StatsRegistry& instance();

    /** Find or create a counter. The description of the creator wins. */
    Counter& counter(const std::string& name,
                     const std::string& desc = "");

    /** Find or create a gauge. */
    Gauge& gauge(const std::string& name, const std::string& desc = "");

    /** Find or create a histogram. */
    Histogram& histogram(const std::string& name, const std::string& desc);

    /** Zero every value; names survive. */
    void resetValues();

    /** Sorted names of all registered stats (tests, report). */
    std::vector<std::string> names() const;

    /**
     * Pointers to every registered stat of one kind, in registration
     * order. The objects live for the process, so the pointers never
     * dangle; values read off them are as fresh as their relaxed
     * atomics. Used by renderPrometheusMetrics().
     */
    std::vector<const Counter*> counterList() const;
    std::vector<const Gauge*> gaugeList() const;
    std::vector<const Histogram*> histogramList() const;

  private:
    StatsRegistry() = default;

    mutable std::mutex _mutex;
    std::vector<std::unique_ptr<Counter>> _counters;
    std::vector<std::unique_ptr<Gauge>> _gauges;
    std::vector<std::unique_ptr<Histogram>> _histograms;
};

/**
 * Render every registered stat as Prometheus text exposition format
 * (version 0.0.4): counters and gauges one sample each, histograms as
 * native Prometheus histograms (a cumulative `le` line per occupied
 * bucket, at its upper edge, then `+Inf`, `_sum`, `_count`) plus a
 * p50/p95/p99 `_quantile` gauge series from Histogram::quantile.
 * Metric names come from prometheusName(); values print in the
 * shortest form that parses back to the same double, so a reader
 * recovers every value exactly. This one text is both the
 * /metrics body and the sealed `metrics.prom` run artifact.
 */
std::string renderPrometheusMetrics();

/**
 * Stat name -> Prometheus metric name: `gest_` plus the stat name with
 * every character outside [a-zA-Z0-9] mapped to '_'. Counters carry a
 * further `_total` suffix, histograms `_bucket`/`_sum`/`_count`.
 */
std::string prometheusName(const std::string& name);

/**
 * Value of the first unlabelled `<metric> <number>` sample line of a
 * Prometheus exposition, or @p fallback when no such line exists.
 */
double exposedValue(const std::string& exposition,
                    const std::string& metric, double fallback);

/**
 * Times a scope and feeds the elapsed microseconds into a histogram on
 * destruction. Does not read the clock when stats are disabled (or
 * when constructed with a null histogram).
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Histogram* hist) : _hist(hist)
    {
        if (_hist && enabled()) {
            _running = true;
            _start = nowUs();
        }
    }

    ~ScopedTimer() { stop(); }

    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

    /**
     * Record now instead of at scope exit; @return the elapsed
     * microseconds (0 if the timer never started).
     */
    double
    stop()
    {
        if (!_running)
            return 0.0;
        _running = false;
        const double elapsed = nowUs() - _start;
        _hist->sample(elapsed);
        return elapsed;
    }

  private:
    Histogram* _hist;
    double _start = 0.0;
    bool _running = false;
};

} // namespace stats
} // namespace gest

#endif // GEST_STATS_STATS_HH
