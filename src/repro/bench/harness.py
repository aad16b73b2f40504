"""Plain-text table/series rendering for benchmark output.

The benchmarks print the same rows/series the paper's evaluation would:
a machine-greppable, human-readable fixed-width format.

When the ``REPRO_BENCH_RECORD`` environment variable names a file, every
table/series rendered (and any explicit :func:`record` call) is also
appended there as one JSON line — ``benchmarks/report.py`` aggregates
those lines, together with pytest-benchmark's host-time medians, into
``BENCH.json``.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Sequence


def record(kind: str, title: str, **payload) -> None:
    """Append one machine-readable benchmark record (JSONL) to the file
    named by ``REPRO_BENCH_RECORD``; no-op when the variable is unset."""
    path = os.environ.get("REPRO_BENCH_RECORD")
    if not path:
        return
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"kind": kind, "title": title, **payload},
                            default=str) + "\n")


def percentile(values: list[int], q: float) -> int:
    """Nearest-rank ``q``-quantile (0..1) of ``values``; 0 when empty —
    the SLO percentiles the soak and DLM reports publish."""
    if not values:
        return 0
    ordered = sorted(values)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return int(ordered[index])


def fmt_ns(ns: float) -> str:
    """Render nanoseconds with an adaptive unit."""
    if ns >= 1e9:
        return f"{ns / 1e9:.2f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.2f}us"
    return f"{ns:.0f}ns"


def fmt_bool(value: bool) -> str:
    """Render a pass/fail cell."""
    return "yes" if value else "NO"


def print_table(title: str, headers: Sequence[str],
                rows: Iterable[Sequence[object]],
                out=None) -> str:
    """Render a fixed-width table; returns (and optionally prints) it."""
    str_rows = [[_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
    parts = [f"== {title} ==", line(headers), sep]
    parts += [line(r) for r in str_rows]
    text = "\n".join(parts)
    print(text, file=out)
    record("table", title, headers=list(headers), rows=str_rows)
    return text


def print_series(title: str, xlabel: str,
                 series: dict[str, list[tuple[float, float]]],
                 ylabel: str = "value", out=None) -> str:
    """Render one or more (x, y) series as a merged table keyed on x —
    the textual form of a figure."""
    record("series", title, xlabel=xlabel, ylabel=ylabel,
           series={name: [[x, y] for x, y in points]
                   for name, points in series.items()})
    xs = sorted({x for points in series.values() for x, _ in points})
    by_name = {name: dict(points) for name, points in series.items()}
    headers = [xlabel] + list(series.keys())
    rows = []
    for x in xs:
        row: list[object] = [x]
        for name in series:
            y = by_name[name].get(x)
            row.append("" if y is None else f"{y:.2f}")
        rows.append(row)
    return print_table(f"{title} [{ylabel}]", headers, rows, out=out)


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return fmt_bool(value)
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
