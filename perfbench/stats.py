"""Statistics the benchmark reports: percentiles, failure shares and the
self time of nested spans. Pure functions, tested in test_stats.py."""

import math

# Percentiles a timing may be reported at, lowest first.
LADDER = (50.0, 90.0, 99.0)

# A percentile is only reported when at least this many samples lie
# beyond it; with fewer, the value is one or two outliers, not a tail.
MIN_BEYOND = 10


def rank(n, p):
    """Nearest-rank index (0-based) of the p-th percentile of n samples."""
    if n < 1:
        raise ValueError("no samples")
    return min(n - 1, max(0, math.ceil(p * n / 100.0) - 1))


def percentile(sorted_values, p):
    return sorted_values[rank(len(sorted_values), p)]


def tail_percentile(n, ladder=LADDER):
    """Highest percentile of the ladder with at least MIN_BEYOND of n
    samples beyond it, or None when even the lowest has fewer."""
    best = None
    for p in ladder:
        if n - 1 - rank(n, p) >= MIN_BEYOND:
            best = p
    return best


def failed_share(attempted, ok):
    """Failed over attempted operations. Everything attempted that did
    not end in a checked, correct result counts as failed: busy and
    error replies, mismatched outputs and replies that never came."""
    if attempted < 1:
        raise ValueError("nothing attempted")
    if not 0 <= ok <= attempted:
        raise ValueError("ok count outside [0, attempted]")
    return (attempted - ok) / attempted


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its children cover (overlapping children counted
    once). spans maps id -> (parent, start, end); returns id -> time."""
    children = {}
    for sid, (parent, _, _) in spans.items():
        if parent in spans:
            children.setdefault(parent, []).append(sid)
    out = {}
    for sid, (_, start, end) in spans.items():
        covered = 0
        reach = start
        for c in sorted(children.get(sid, ()), key=lambda c: spans[c][1]):
            lo = max(spans[c][1], reach)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sid] = (end - start) - covered
    return out

