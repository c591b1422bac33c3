"""Pure helpers of the repository benchmark: the percentile rule, span
self times and metric-name validation. test_pbmetrics.py covers them."""

import re
from collections import defaultdict
from typing import NamedTuple

# A percentile is emitted only when at least this many samples lie
# beyond it; with fewer, it would only restate the largest samples.
MIN_BEYOND = 10

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_name(name):
    """Metric and workload names: [A-Za-z0-9_.-], leading letter or digit,
    at most 64 characters."""
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and _UNIT.fullmatch(unit) is not None


def nearest_rank(count, pct):
    """1-based nearest rank of the pct-th percentile (pct an integer)."""
    return max(1, -(-pct * count // 100))


def percentile(samples, pct):
    """Nearest-rank pct-th percentile of `samples`, or None when fewer
    than MIN_BEYOND samples lie beyond it."""
    count = len(samples)
    if count == 0:
        return None
    rank = nearest_rank(count, pct)
    if count - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def fastest(costs):
    """The smallest per-pass cost. Contention from other tenants of the
    host only ever slows a pass, in bursts of a few seconds; the fastest
    pass measures the program, the slower ones its neighbours."""
    return min(costs)


def window_percentiles(samples, pct, window):
    """The pct-th percentile of each run of consecutive samples, split
    into as many windows of at least `window` samples as fit. Empty when
    none fits or a window may not emit the percentile."""
    windows = len(samples) // window
    if windows == 0:
        return []
    size = len(samples) // windows
    values = [percentile(samples[i * size:(i + 1) * size], pct) for i in range(windows)]
    return [] if any(value is None for value in values) else values


class Span(NamedTuple):
    id: int
    parent: int
    trial: int
    name: str
    start: int  # ns
    end: int  # ns
    count: int

    @property
    def duration(self):
        return self.end - self.start


def read_spans(path):
    """Parses the span dump the benchmark binary writes
    (`id parent trial name start_ns end_ns count` per line)."""
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 7:
                raise ValueError(f"malformed span line: {line!r}")
            ident, parent, trial, name, start, end, count = fields
            spans.append(Span(int(ident), int(parent), int(trial), name, int(start),
                              int(end), int(count)))
    return spans


def union_length(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0
    run_lo = run_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if run_hi is None or start > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = start, end
        else:
            run_hi = max(run_hi, end)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans):
    """Span id -> self time (ns): its duration minus the union of its
    children. Children may overlap each other (parallel renders), so
    their durations are not simply subtracted."""
    children = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    return {span.id: span.duration - union_length(children.get(span.id, ()), span.start,
                                                  span.end)
            for span in spans}
