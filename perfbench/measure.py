"""Small statistics and trace-analysis helpers shared by the benchmark."""

from __future__ import annotations

import statistics


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation; 0.0 when
    there are no values."""
    data = sorted(values)
    if not data:
        return 0.0
    if len(data) == 1:
        return float(data[0])
    pos = (len(data) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(data) - 1)
    return float(data[low] + (data[high] - data[low]) * (pos - low))


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    data = list(values)
    if len(data) < 2:
        only = float(data[0]) if data else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(data, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(records: list[dict]) -> dict[str, dict]:
    """Per span name: count, total duration and total self time (seconds).

    A span's self time is its duration minus the part of its interval
    covered by its child spans (children found by ``parent_id``)."""
    children: dict[str, list[tuple[float, float]]] = {}
    for row in records:
        if row.get("parent_id"):
            children.setdefault(row["parent_id"], []).append(
                (row["ts"], row["ts"] + row["dur"]))
    table: dict[str, dict] = {}
    for row in records:
        start, end = row["ts"], row["ts"] + row["dur"]
        clipped = [(max(s, start), min(e, end))
                   for s, e in children.get(row["span_id"], ())
                   if min(e, end) > max(s, start)]
        slot = table.setdefault(row["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        slot["count"] += 1
        slot["total_s"] += row["dur"]
        slot["self_s"] += max(0.0, row["dur"] - union_length(clipped))
    return table
