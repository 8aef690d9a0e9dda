"""Summary statistics for perfbench samples.

Timings are reported as a median with its quartiles, plus the highest
percentile that still has at least ten samples beyond it, with the
sample count.
"""

import math
import statistics

TAIL_SAMPLES = 10


def median(values):
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def tail_percentile(values):
    """The highest whole percentile p with at least TAIL_SAMPLES samples
    above its nearest-rank value, as (p, value); None when the sample is
    too small (fewer than TAIL_SAMPLES + 1 values)."""
    n = len(values)
    if n <= TAIL_SAMPLES:
        return None
    ordered = sorted(values)
    # Nearest rank of percentile p is ceil(p/100 * n); the samples beyond
    # it number n - rank, which must stay >= TAIL_SAMPLES.
    best = None
    for p in range(1, 100):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_SAMPLES:
            best = (p, ordered[rank - 1])
    return best


def describe(values):
    """Human-readable 'median m (q1 a, q3 b), pNN x, n=k' line fragment."""
    tail = tail_percentile(values)
    text = f"median {median(values):.6g}"
    if len(values) >= 2:
        q1, _, q3 = quartiles(values)
        text += f" (q1 {q1:.6g}, q3 {q3:.6g})"
    if tail is not None:
        text += f", p{tail[0]} {tail[1]:.6g}"
    return text + f", n={len(values)}"
