"""Order statistics over the benchmark's own raw samples.

No fixed buckets: quantiles are read from the sorted samples, so values
of any magnitude come back exactly (the program's histograms clip at
their preset range and cannot be trusted for this).
"""

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)

# A tail percentile is reported only with at least this many samples
# beyond it.
TAIL_MIN_BEYOND = 10


def quantile(samples, q):
    """The q-quantile (0 <= q <= 1), linear between closest ranks."""
    if not samples:
        raise ValueError("quantile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def tail(samples):
    """(percentile, value, samples beyond it) for the highest candidate
    percentile with at least TAIL_MIN_BEYOND samples strictly above its
    value; the median when too few samples reach that."""
    for pct in TAIL_PERCENTILES:
        value = quantile(samples, pct / 100.0)
        beyond = sum(1 for s in samples if s > value)
        if beyond >= TAIL_MIN_BEYOND:
            break
    return pct, value, beyond
