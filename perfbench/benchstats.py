"""Statistics and host fingerprints for the perfbench results.

Everything run.py and compare.py compute from raw samples lives here, so
the unit tests in test_benchstats.py cover the numbers the benchmark
reports.
"""

import math
import statistics

MIN_BEYOND = 10  # samples that must lie beyond a reported tail percentile


def p50(samples):
    """Median of the samples."""
    if not samples:
        raise ValueError("p50 of no samples")
    return statistics.median(samples)


def nearest_rank(n, q):
    """1-based rank of the nearest-rank q-th percentile of n samples
    (rounded first so 99.9% of 10000 is rank 9990, not 9991)."""
    return math.ceil(round(q / 100.0 * n, 9))


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-th percentile of n."""
    return n - nearest_rank(n, q)


def tail_percentile(samples, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-th percentile, refused unless at least `min_beyond`
    samples lie beyond it: a tail figure resting on fewer is noise."""
    n = len(samples)
    if not 0.0 < q < 100.0:
        raise ValueError("percentile must be in (0, 100), got %r" % (q,))
    if n == 0 or samples_beyond(n, q) < min_beyond:
        raise ValueError("p%g needs %d samples beyond it; %d samples give %d"
                         % (q, min_beyond, n,
                            samples_beyond(n, q) if n else 0))
    return sorted(samples)[nearest_rank(n, q) - 1]


def highest_tail(n, candidates=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0),
                 min_beyond=MIN_BEYOND):
    """The highest candidate percentile that n samples support, or None."""
    for q in candidates:
        if samples_beyond(n, q) >= min_beyond:
            return q
    return None


def failure_ratio(failed, attempted):
    """Share of attempted operations that failed."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed=%r outside [0, attempted=%r]"
                         % (failed, attempted))
    return failed / attempted


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# Keys that must match before two result sets may be compared. A figure
# measured on another host, compiler or thread setting says nothing about
# the code.
FINGERPRINT_KEYS = ("nproc", "cpu_model", "isa_flags", "compiler",
                    "cxx_flags", "build_type", "dctrain_threads",
                    "ranks_x_gpus")


def fingerprint_mismatches(a, b):
    """Keys whose values differ between fingerprints a and b (a key
    missing from either side counts as a difference)."""
    return [k for k in FINGERPRINT_KEYS if a.get(k) != b.get(k)]


class HostMismatch(Exception):
    """Two result sets come from different hosts or builds."""


def require_same_host(a, b):
    diff = fingerprint_mismatches(a, b)
    if diff:
        raise HostMismatch("; ".join("%s: %r vs %r" % (k, a.get(k), b.get(k))
                                     for k in diff))
