"""Summary statistics for the benchmark's timings."""

import statistics

TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float, int]:
    """The p90, or the highest percentile that still has ``TAIL_BEYOND``
    samples beyond it when that is higher.

    Returns (value, percentile, samples beyond it).  From 100 samples on,
    this is the sample at sorted index n - 11, the 100 (n - 10) / n
    percentile.  Below 100 samples that percentile would fall under the
    p90 (under the median below 21 samples, with no such sample at all
    below 11), so the p90 interpolated between neighbours is returned; it
    meets the rule at 100 samples.
    """
    xs = sorted(samples)
    n = len(xs)
    if n >= 10 * TAIL_BEYOND:
        return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    if n == 1:
        return xs[0], 90.0, 0
    value = statistics.quantiles(xs, n=10, method="inclusive")[-1]
    return value, 90.0, sum(x > value for x in xs)


def spread(values) -> float:
    """Distance between the first and third quartile over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
