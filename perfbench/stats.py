"""Pure helpers of the benchmark: percentiles, the tail rule, quartile
spread, and Prometheus text parsing.  Standard library only, so the
orchestrator can use them without importing the program.
"""

from __future__ import annotations

import re
import statistics

#: Percentiles the tail rule may pick, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: The tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def rank(pct: float, n: int) -> int:
    """1-based nearest rank of percentile ``pct`` among ``n`` samples, in
    exact integer arithmetic (tenths of a percent)."""
    return max(1, -(-round(pct * 10) * n // 1000))


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least :data:`TAIL_BEYOND` of ``n``
    samples beyond its nearest rank, or None when ``n`` is too small."""
    best = None
    for pct in TAIL_LADDER:
        if n - rank(pct, n) >= TAIL_BEYOND:
            best = pct
    return best


def tail(values, guaranteed: int | None = None) -> tuple[float, float, int, int]:
    """The tail latency of ``values`` as ``(pct, value, n, beyond)``.

    The percentile is chosen by the tail rule for ``guaranteed`` samples
    (default: ``len(values)``).  A run that always yields at least
    ``guaranteed`` samples therefore reports the same percentile whatever
    its speed, so a faster program is never judged on a higher one.
    """
    ordered = sorted(values)
    pct = tail_percentile(guaranteed if guaranteed is not None else len(ordered))
    if pct is None:
        raise ValueError(
            f"{len(ordered)} samples leave fewer than {TAIL_BEYOND} beyond p50"
        )
    at = rank(pct, len(ordered))
    return pct, ordered[at - 1], len(ordered), len(ordered) - at


def quartile_spread(values) -> float:
    """Inter-quartile distance over the median, the steadiness measure of
    a metric over runs (quartiles by ``statistics.quantiles(values, n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")
_LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> dict[tuple, float]:
    """Samples of a Prometheus text exposition, keyed by
    ``(name, ((label, value), ...))`` with labels sorted."""
    samples: dict[tuple, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"malformed metrics line: {line!r}")
        name, labels, value = match.groups()
        pairs = tuple(sorted(_LABEL.findall(labels or "")))
        samples[(name, pairs)] = float(value)
    return samples


def metric_delta(before: dict, after: dict, name: str, **labels) -> float:
    """Increase of one sample between two :func:`parse_prometheus` scrapes
    (a sample absent from a scrape counts as 0)."""
    key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
    return after.get(key, 0.0) - before.get(key, 0.0)
