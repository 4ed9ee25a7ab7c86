"""Zero-dependency metrics + tracing for the inference stack.

Contract: every hot and failure path in the pipeline reports *what it
did* — batch sizes, dedup/cache hit rates, per-phase wall/CPU time,
vote margins, failure counts — into one process-global
:class:`MetricsRegistry`, cheaply enough that instrumentation stays on
in production (< 5% overhead on the engine hot paths; enforced by
``benchmarks/bench_speed.py``).

Three metric kinds plus spans, all thread-safe:

* :class:`Counter` — monotonically increasing int/float total
  (``registry.inc("engine.cache_hits", 3)``);
* :class:`Gauge` — last-written value (``registry.set_gauge``);
* :class:`Histogram` — fixed bucket boundaries chosen at creation;
  ``observe(v)`` bins the value and tracks count/sum/min/max.  Default
  boundary sets are provided for durations (:data:`TIME_BUCKETS`),
  batch sizes (:data:`SIZE_BUCKETS`) and vote margins
  (:data:`MARGIN_BUCKETS`);
* :func:`MetricsRegistry.span` — a nestable context manager recording
  wall-clock *and* CPU time per dotted call path.  Nested spans are
  recorded under ``"parent/child"`` names, so one aggregated dump reads
  like a flame graph: ``infer_binary/extract/locate``.  Times are
  inclusive of children.

The process-global registry is reachable through :func:`get_registry`,
with module-level conveniences (:func:`inc`, :func:`observe`,
:func:`span`, :func:`snapshot`) that no-op in nanoseconds when metrics
are disabled via :func:`set_enabled` (the global kill switch; the CLI's
``--no-metrics``), which the pipeline also checks before doing any
metrics-only work.  ``snapshot()`` returns a JSON-ready dict; ``render_text``
renders the same data as an aligned table for terminals.

See ``docs/OPERATIONS.md`` for the operator-facing story (what each
emitted metric means and how to read a dump).
"""

from __future__ import annotations

import json
import threading
import time
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from contextlib import contextmanager

#: Default histogram boundaries for durations, in seconds (log-spaced).
TIME_BUCKETS: tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0,
)

#: Default histogram boundaries for batch/window counts (powers of two).
SIZE_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)

#: Default histogram boundaries for vote margins (summed clipped
#: confidence gap between the winning and runner-up leaf type).
MARGIN_BUCKETS: tuple[float, ...] = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


class Counter:
    """A thread-safe monotonically increasing total (int or float)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A thread-safe last-written value."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value


class Histogram:
    """Fixed-boundary histogram: ``counts[i]`` holds values ``<= boundaries[i]``,
    with one overflow bucket at the end; also tracks count/sum/min/max."""

    __slots__ = ("name", "boundaries", "counts", "count", "sum", "min", "max", "_lock")

    def __init__(self, name: str, boundaries: Sequence[float] = TIME_BUCKETS) -> None:
        if not boundaries or list(boundaries) != sorted(boundaries):
            raise ValueError("histogram boundaries must be a non-empty sorted sequence")
        self.name = name
        self.boundaries = tuple(float(b) for b in boundaries)
        self.counts = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_right(self.boundaries, value)
        # bisect_right puts a value equal to a boundary in the *next*
        # bucket; pull exact boundary hits back so counts[i] really means
        # "<= boundaries[i]".
        if index and self.boundaries[index - 1] == value:
            index -= 1
        with self._lock:
            self.counts[index] += 1
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def observe_many(self, values: Sequence[float]) -> None:
        """Bin a whole batch under one lock acquisition.

        The per-value cost is one C-level ``bisect`` plus a list
        increment, which is what keeps per-variable vote metrics inside
        the <5% instrumentation budget on large batches.
        """
        if hasattr(values, "tolist"):  # numpy array without importing numpy
            values = values.tolist()
        if not values:
            return
        boundaries = self.boundaries
        with self._lock:
            counts = self.counts
            for value in values:
                value = float(value)
                index = bisect_right(boundaries, value)
                if index and boundaries[index - 1] == value:
                    index -= 1
                counts[index] += 1
            self.count += len(values)
            self.sum += sum(values)
            low, high = min(values), max(values)
            if low < self.min:
                self.min = low
            if high > self.max:
                self.max = high

    def quantile(self, q: float) -> float | None:
        """Estimate the ``q``-quantile (0..1) from the bucket counts.

        Linear interpolation inside the containing bucket, clamped to
        the observed min/max so a coarse bucketing cannot report a
        quantile outside the data.  ``None`` when nothing was observed.
        This is what ``/healthz`` and the serve benchmark use for
        p50/p99 latency without keeping raw samples.
        """
        return quantile_from_dict(self.to_dict(), q)

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "boundaries": list(self.boundaries),
                "counts": list(self.counts),
                "count": self.count,
                "sum": self.sum,
                "min": self.min if self.count else None,
                "max": self.max if self.count else None,
                "mean": self.sum / self.count if self.count else None,
            }


class SpanStat:
    """Aggregated timings for one span path (inclusive of children)."""

    __slots__ = ("name", "count", "wall_s", "cpu_s", "min_s", "max_s", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0
        self._lock = threading.Lock()

    def record(self, wall_s: float, cpu_s: float) -> None:
        with self._lock:
            self.count += 1
            self.wall_s += wall_s
            self.cpu_s += cpu_s
            if wall_s < self.min_s:
                self.min_s = wall_s
            if wall_s > self.max_s:
                self.max_s = wall_s

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "count": self.count,
                "wall_s": self.wall_s,
                "cpu_s": self.cpu_s,
                "min_s": self.min_s if self.count else None,
                "max_s": self.max_s if self.count else None,
            }


class MetricsRegistry:
    """Thread-safe named metric store with JSON/text renderers.

    Metrics are created lazily on first use; creation takes the registry
    lock, increments take only the metric's own lock.  ``enabled=False``
    turns every module-level helper into a near-free no-op (the flag is
    checked before any allocation happens).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._spans: dict[str, SpanStat] = {}
        self._span_stack = threading.local()

    # -- creation / lookup -------------------------------------------------------

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            with self._lock:
                metric = self._counters.setdefault(name, Counter(name))
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            with self._lock:
                metric = self._gauges.setdefault(name, Gauge(name))
        return metric

    def histogram(self, name: str, boundaries: Sequence[float] = TIME_BUCKETS) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            with self._lock:
                metric = self._histograms.setdefault(name, Histogram(name, boundaries))
        return metric

    # -- recording ---------------------------------------------------------------

    def inc(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.gauge(name).set(value)

    def observe(self, name: str, value: float,
                boundaries: Sequence[float] = TIME_BUCKETS) -> None:
        if self.enabled:
            self.histogram(name, boundaries).observe(value)

    def observe_many(self, name: str, values: Sequence[float],
                     boundaries: Sequence[float] = TIME_BUCKETS) -> None:
        if self.enabled:
            self.histogram(name, boundaries).observe_many(values)

    def _span_path(self, name: str) -> str:
        stack = getattr(self._span_stack, "stack", None)
        if stack is None:
            stack = self._span_stack.stack = []
        return "/".join(stack + [name]) if stack else name

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a block under ``name`` (nested spans get ``parent/child``)."""
        if not self.enabled:
            yield
            return
        path = self._span_path(name)
        stack = self._span_stack.stack
        stack.append(name)
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            yield
        finally:
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            stack.pop()
            stat = self._spans.get(path)
            if stat is None:
                with self._lock:
                    stat = self._spans.setdefault(path, SpanStat(path))
            stat.record(wall, cpu)

    # -- lifecycle ---------------------------------------------------------------

    def reset(self) -> None:
        """Drop every recorded metric (names included)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._spans.clear()

    # -- rendering ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready dump of everything recorded so far."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            spans = dict(self._spans)
        return {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "gauges": {name: g.value for name, g in sorted(gauges.items())},
            "histograms": {name: h.to_dict() for name, h in sorted(histograms.items())},
            "spans": {name: s.to_dict() for name, s in sorted(spans.items())},
        }

    def render_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def render_text(self) -> str:
        """The snapshot as an aligned, human-readable report."""
        snap = self.snapshot()
        lines: list[str] = []
        if snap["counters"]:
            lines.append("== counters ==")
            width = max(len(name) for name in snap["counters"])
            for name, value in snap["counters"].items():
                lines.append(f"  {name:<{width}}  {value:g}")
        if snap["gauges"]:
            lines.append("== gauges ==")
            width = max(len(name) for name in snap["gauges"])
            for name, value in snap["gauges"].items():
                lines.append(f"  {name:<{width}}  {value:g}")
        if snap["spans"]:
            lines.append("== spans (wall / cpu, inclusive) ==")
            width = max(len(name) for name in snap["spans"])
            for name, stat in snap["spans"].items():
                lines.append(
                    f"  {name:<{width}}  n={stat['count']:<6d} "
                    f"wall={stat['wall_s'] * 1e3:9.2f} ms  "
                    f"cpu={stat['cpu_s'] * 1e3:9.2f} ms")
        if snap["histograms"]:
            lines.append("== histograms ==")
            for name, hist in snap["histograms"].items():
                mean = hist["mean"]
                lines.append(
                    f"  {name}: n={hist['count']} sum={hist['sum']:g}"
                    + (f" mean={mean:g} min={hist['min']:g} max={hist['max']:g}"
                       if hist["count"] else ""))
                if hist["count"]:
                    buckets = [f"<={b:g}:{c}" for b, c in
                               zip(hist["boundaries"], hist["counts"]) if c]
                    if hist["counts"][-1]:
                        buckets.append(f">{hist['boundaries'][-1]:g}:{hist['counts'][-1]}")
                    lines.append("    " + " ".join(buckets))
        return "\n".join(lines) if lines else "(no metrics recorded)"


# -- snapshot merging (multi-worker serving) -----------------------------------
#
# The pre-fork router (repro.serve.router) aggregates one snapshot per
# worker *process* into a single /metricsz view.  Merging operates on
# the JSON-ready dicts produced by MetricsRegistry.snapshot(), not on
# live registries, because worker snapshots arrive over HTTP.


def merge_histogram_dicts(dicts: Sequence[dict]) -> dict:
    """Bucket-wise merge of :meth:`Histogram.to_dict` outputs.

    Histograms with identical boundaries merge exactly (counts added
    per bucket); a histogram whose boundaries disagree with the first
    one still contributes its count/sum/min/max but its bucket counts
    are folded in by re-binning each boundary's tally at the boundary
    value — an upper-bound placement, which keeps quantile estimates
    conservative rather than silently dropping a worker.
    """
    merged: dict | None = None
    for data in dicts:
        if not data:
            continue
        if merged is None:
            merged = {
                "boundaries": list(data["boundaries"]),
                "counts": list(data["counts"]),
                "count": data["count"],
                "sum": data["sum"],
                "min": data["min"],
                "max": data["max"],
            }
            continue
        merged["count"] += data["count"]
        merged["sum"] += data["sum"]
        for key, pick in (("min", min), ("max", max)):
            ours, theirs = merged[key], data[key]
            if theirs is not None:
                merged[key] = pick(ours, theirs) if ours is not None else theirs
        if list(data["boundaries"]) == merged["boundaries"]:
            merged["counts"] = [a + b for a, b in
                                zip(merged["counts"], data["counts"])]
        else:
            boundaries = merged["boundaries"]
            for boundary, tally in zip(data["boundaries"], data["counts"]):
                if not tally:
                    continue
                index = bisect_right(boundaries, boundary)
                if index and boundaries[index - 1] == boundary:
                    index -= 1
                merged["counts"][index] += tally
            merged["counts"][-1] += data["counts"][-1]
    if merged is None:
        return {}
    merged["mean"] = merged["sum"] / merged["count"] if merged["count"] else None
    return merged


def quantile_from_dict(data: dict, q: float) -> float | None:
    """:meth:`Histogram.quantile` over a (possibly merged) histogram dict."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    if not data or not data.get("count"):
        return None
    boundaries = data["boundaries"]
    low = data["min"] if data["min"] is not None else boundaries[0]
    high = data["max"] if data["max"] is not None else boundaries[-1]
    rank = q * data["count"]
    seen = 0
    for index, bucket in enumerate(data["counts"]):
        if not bucket:
            continue
        if seen + bucket >= rank:
            lower = boundaries[index - 1] if index else low
            upper = boundaries[index] if index < len(boundaries) else high
            fraction = (rank - seen) / bucket
            value = lower + (upper - lower) * fraction
            return min(max(value, low), high)
        seen += bucket
    return high


def merge_snapshots(snapshots: Sequence[dict]) -> dict:
    """Merge :meth:`MetricsRegistry.snapshot` dicts across processes.

    Counters and span totals are summed (they are totals), histograms
    are bucket-wise merged via :func:`merge_histogram_dicts`, gauges
    take the max (a "worst across workers" read for depth/generation
    style values).  Snapshots missing a section are tolerated.
    """
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    histogram_parts: dict[str, list[dict]] = {}
    spans: dict[str, dict] = {}
    for snap in snapshots:
        if not isinstance(snap, dict):
            continue
        for name, value in (snap.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in (snap.get("gauges") or {}).items():
            gauges[name] = max(gauges[name], value) if name in gauges else value
        for name, data in (snap.get("histograms") or {}).items():
            histogram_parts.setdefault(name, []).append(data)
        for name, data in (snap.get("spans") or {}).items():
            if name not in spans:
                spans[name] = {"count": 0, "wall_s": 0.0, "cpu_s": 0.0,
                               "min_s": None, "max_s": None}
            out = spans[name]
            out["count"] += data.get("count", 0)
            out["wall_s"] += data.get("wall_s", 0.0)
            out["cpu_s"] += data.get("cpu_s", 0.0)
            for key, pick in (("min_s", min), ("max_s", max)):
                theirs = data.get(key)
                if theirs is not None:
                    out[key] = (pick(out[key], theirs)
                                if out[key] is not None else theirs)
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": {name: merge_histogram_dicts(parts)
                       for name, parts in sorted(histogram_parts.items())},
        "spans": dict(sorted(spans.items())),
    }


#: The process-global registry every pipeline module records into.
_REGISTRY = MetricsRegistry(enabled=True)


def get_registry() -> MetricsRegistry:
    """The process-global :class:`MetricsRegistry`."""
    return _REGISTRY


def set_enabled(enabled: bool) -> None:
    """Globally enable/disable recording (the kill switch)."""
    _REGISTRY.enabled = enabled


def is_enabled() -> bool:
    return _REGISTRY.enabled


def inc(name: str, amount: float = 1) -> None:
    _REGISTRY.inc(name, amount)


def set_gauge(name: str, value: float) -> None:
    _REGISTRY.set_gauge(name, value)


def observe(name: str, value: float, boundaries: Sequence[float] = TIME_BUCKETS) -> None:
    _REGISTRY.observe(name, value, boundaries)


def span(name: str):
    """Module-level convenience for ``get_registry().span(name)``."""
    return _REGISTRY.span(name)


def snapshot() -> dict:
    return _REGISTRY.snapshot()


def reset() -> None:
    _REGISTRY.reset()
