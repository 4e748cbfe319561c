"""In-memory spans around the benchmark's calls into branchrep, and their summary.

A span is ``[name, start, end, parent, op]``: times from ``time.perf_counter``,
``parent`` the index of the enclosing span (None for an op's root span) and
``op`` the id of the op it belongs to. Spans are only recorded while the
tracer is enabled; a disabled tracer calls straight through, so the untraced
run pays one Python call per wrapped call and nothing else.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import time
from typing import Callable, Iterable

OP = "op"


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self.last = ""  # name of the latest call, to blame a failure on its module

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)``; when enabled, record it as span ``name``."""
        self.last = name
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one op; every call made inside it becomes its descendant."""
        if not self.enabled:
            yield
            return
        self._op = op_id
        span = self._open(OP)
        try:
            yield
        finally:
            self._close(span)
            self._op = None


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its direct children cover.

    Calls run on one thread, so children nest inside their parent and never
    overlap each other: the covered part is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


def summarize(spans: list[list], calls: Iterable[str], modules: Iterable[str]) -> dict[str, float]:
    """Per call and per module: median self time per op, share of op time, call count.

    A call's ``_s`` value is the median, over the ops that made the call, of
    the self time it spent in that op. ``share`` divides its total self time
    by the total duration of all op spans. The benchmark's own work inside an
    op (writing input files, building weights) is the op span's self time,
    reported as ``bench``.
    """
    selfs = self_times(spans)
    op_total = sum(s[2] - s[1] for s in spans if s[0] == OP)
    per_op: dict[str, dict[int, float]] = {}
    counts: dict[str, int] = {}

    def add(key: str, op: int, t: float) -> None:
        per_op.setdefault(key, {})
        per_op[key][op] = per_op[key].get(op, 0.0) + t
        counts[key] = counts.get(key, 0) + 1

    for span, t in zip(spans, selfs):
        name, op = span[0], span[4]
        if name == OP:
            add("bench", op, t)
            continue
        add(name, op, t)
        add(name.split(".", 1)[0], op, t)

    out: dict[str, float] = {}
    for key in [*calls, *modules]:
        sep = "." if key in modules else ""
        times = per_op.get(key, {})
        total = sum(times.values())
        out[f"{key}{sep}{'self_s' if sep else '_s'}"] = (
            statistics.median(times.values()) if times else 0.0
        )
        out[f"{key}.share"] = total / op_total if op_total else 0.0
        out[f"{key}.calls"] = counts.get(key, 0)
    bench = per_op.get("bench", {})
    out["bench.share"] = sum(bench.values()) / op_total if op_total else 0.0
    return out


def loglog_slope(points: Iterable[tuple[str, float, float]]) -> float:
    """Steepest per-family log-log slope of median time against size.

    ``points`` are (family, size, seconds) per op. Times are reduced to one
    median per (family, size); a family needs two sizes to give a slope.
    Reporting the steepest family keeps a quadratic family visible next to
    linear ones. Returns 0.0 when no family has two sizes.
    """
    grouped: dict[str, dict[float, list[float]]] = {}
    for family, size, t in points:
        grouped.setdefault(family, {}).setdefault(size, []).append(t)
    slopes = []
    for sizes in grouped.values():
        xs, ys = [], []
        for size, ts in sorted(sizes.items()):
            m = statistics.median(ts)
            if size > 0 and m > 0:
                xs.append(math.log(size))
                ys.append(math.log(m))
        if len(xs) >= 2:
            mx, my = statistics.fmean(xs), statistics.fmean(ys)
            sxx = sum((x - mx) ** 2 for x in xs)
            slopes.append(sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx)
    return max(slopes) if slopes else 0.0
