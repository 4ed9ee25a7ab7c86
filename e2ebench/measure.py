"""Measurement helpers: percentiles, peak RSS, the output check, tracing.

Tracing lives here, in the benchmark, never in ``src/``: a
:class:`Tracer` wraps the public functions of each layer for the
duration of a traced pass and restores them afterwards, recording a
span per call.  A span's *self* time is its duration minus the time its
child spans cover, so nested layers (``encode`` inside a traced
``leaf_proba``, say) are not counted twice.
"""

from __future__ import annotations

import functools
import os
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

#: A reference vote whose top-two score margin is at most this may be
#: matched by either finalist (summation-order noise, not a wrong answer).
MARGIN_TOLERANCE = 1e-6


# -- statistics ----------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def p95(values) -> float:
    """95th percentile (inclusive method); needs >= 200 samples to have
    ten beyond it, which the workloads size their runs for."""
    if len(values) < 2:
        return float(values[0]) if values else float("nan")
    return float(statistics.quantiles(values, n=100, method="inclusive")[94])


def clock() -> float:
    """The clock every timed operation reads: CPU seconds of this process
    and of the child processes it has waited for (gcc at set-up).

    The host is a virtual machine whose CPUs the hypervisor lends to other
    guests (``steal`` in ``/proc/stat``): over a batch run steal swung from
    1% to 23% of CPU time within minutes and moved wall-clock job times by
    70%, while this process's CPU time moved by 20% and tracked
    :class:`HostSpeed` to within 3%.  CPU time leaves stolen time out.  It
    also leaves out time blocked on I/O (~2% of a batch job, mostly
    ``fsync``) and does not credit parallelism: both workloads run one
    thread, BLAS pinned to one, so their CPU time is their busy time.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class HostSpeed:
    """A calibration probe that tracks how fast the host is right now.

    The box is shared: its speed drifts by a fifth or more over seconds
    to minutes, which moves every wall-clock figure alike.  The probe is a
    fixed ~0.5 ms mix of numpy gathers/GEMM and Python tuple/dict work,
    owned by the benchmark and independent of the program.  Workloads run
    it between operations (never inside a timed one); :meth:`factor` is
    the median probe time over ``NOMINAL_S``.  Measured over 4 s windows
    of offline inference, the probe tracked throughput with correlation
    0.96.  Between runs, though, its time swings further than the
    program's: in the host's fast phases the probe ran 1.46-1.63 times
    faster where offline throughput rose 1.26-1.35 times, about the square
    root.  Times are divided by :meth:`scale`, ``factor ** SENSITIVITY``,
    and rates multiplied, so metrics read as on a host where the probe
    takes ``NOMINAL_S``.  Each probe runs its
    work twice and times the second run, so what the program left in the
    caches does not leak into the factor.  The second run is timed in
    CPU time, like the operations it scales (see :func:`clock`): timed on
    the wall, the probe also sped up when steal fell, which the program's
    CPU time does not, and scaling overcorrected.
    """

    NOMINAL_S = 0.5e-3
    #: How program time moves with the probe's, as an exponent (see above).
    SENSITIVITY = 0.5

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = rng.standard_normal((128, 288)).astype(np.float32)
        self._weights = rng.standard_normal((288, 96)).astype(np.float32)
        self._rows = rng.integers(0, 128, 512)
        self._words = [f"mov%r{i % 13},{i % 97}" for i in range(200)]
        self.samples: list[float] = []

    def _work(self) -> None:
        hidden = self._table[self._rows] @ self._weights
        np.maximum(hidden, 0.0, out=hidden)
        counts: dict = {}
        for word in self._words:
            parts = tuple(word.split(","))
            counts[parts] = counts.get(parts, 0) + len(parts[0])

    def probe(self) -> float:
        """Sample the host once; returns the :func:`clock` seconds the probe
        took in all, for timings that must leave it out."""
        used = clock()
        self._work()
        timed = time.process_time()
        self._work()
        self.samples.append(time.process_time() - timed)
        return clock() - used

    def burst(self, count: int = 100) -> None:
        for _ in range(count):
            self.probe()

    def factor(self) -> float:
        return median(self.samples) / self.NOMINAL_S

    def scale(self) -> float:
        return self.factor() ** self.SENSITIVITY


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- the output check ---------------------------------------------------------


def vote_summary(prediction) -> tuple[str, int, float]:
    """(type, n_vucs, top-two margin) of one VariablePrediction."""
    scores = np.asarray(prediction.scores)
    top2 = np.sort(scores)[-2:]
    margin = float(top2[1] - top2[0]) if len(top2) == 2 else float("inf")
    return str(prediction.predicted), int(prediction.n_vucs), margin


def reference_votes(cati, pairs_per_item: list[list]) -> list[dict]:
    """Naive float64 reference votes, one ``{vid: (type, n, margin)}`` per item.

    Leaf rows come from :meth:`Cati.predict_vuc_proba` (the naive path),
    computed once per distinct window of the whole input set, and are
    voted per item with the same :func:`predictions_from_probs` that
    :meth:`Cati.predict_variables` uses.
    """
    from repro.core.pipeline import predictions_from_probs

    row_of: dict = {}
    for pairs in pairs_per_item:
        for _vid, tokens in pairs:
            row_of.setdefault(tokens, len(row_of))
    windows = list(row_of)
    chunks = [cati.predict_vuc_proba(windows[start:start + 2048])
              for start in range(0, len(windows), 2048)]
    probs = np.concatenate(chunks) if chunks else np.zeros((0, 19))
    out = []
    for pairs in pairs_per_item:
        rows = probs[[row_of[tokens] for _vid, tokens in pairs]]
        predictions = predictions_from_probs(
            rows, [vid for vid, _tokens in pairs],
            cati.config.confidence_threshold)
        out.append({p.variable_id: vote_summary(p) for p in predictions})
    return out


def mismatches(observed: list[tuple[str, str, int]], reference: dict) -> int:
    """Variables whose (type, n_vucs) disagree with the reference.

    ``observed`` is ``(variable_id, type, n_vucs)`` per prediction.  A
    type mismatch is forgiven only where the reference's top-two margin
    is <= MARGIN_TOLERANCE; a missing or extra variable always counts.
    """
    bad = 0
    seen = set()
    for variable_id, type_name, n_vucs in observed:
        seen.add(variable_id)
        expected = reference.get(variable_id)
        if expected is None or expected[1] != n_vucs:
            bad += 1
        elif expected[0] != type_name and expected[2] > MARGIN_TOLERANCE:
            bad += 1
    return bad + len(set(reference) - seen)


def accuracy_counts(observed: list[tuple[str, str, int]],
                    truth: dict[str, str]) -> tuple[int, int]:
    """(correct, total) variables against DWARF truth."""
    hits = sum(truth.get(vid) == type_name for vid, type_name, _n in observed)
    return hits, len(observed)


# -- tracing -------------------------------------------------------------------


class Tracer:
    """Spans around calls into the program's layers, with self time.

    Single-threaded by design: traced passes run in one thread.  The
    patch methods rebind a public function wherever a ``repro`` module
    holds it (``from x import f`` copies the binding), so the program's
    own call sites go through the span; :meth:`restore` undoes all of it.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._children: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        self._children.append(0.0)
        began = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - began
            child = self._children.pop()
            self.total_s[name] += elapsed
            self.self_s[name] += elapsed - child
            self.calls[name] += 1
            if self._children:
                self._children[-1] += elapsed

    def _timed(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _counted(self, fn, name: str):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _rebind(self, module, attr: str, replacement) -> None:
        original = getattr(module, attr)
        for candidate in list(sys.modules.values()):
            name = getattr(candidate, "__name__", "") or ""
            if (name == "repro" or name.startswith("repro.")) and \
                    getattr(candidate, attr, None) is original:
                setattr(candidate, attr, replacement)
                self._undo.append((candidate, attr, original))

    def time_function(self, module, attr: str, name: str) -> None:
        self._rebind(module, attr, self._timed(getattr(module, attr), name))

    def count_function(self, module, attr: str, name: str) -> None:
        self._rebind(module, attr, self._counted(getattr(module, attr), name))

    def time_method(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self._timed(original.__func__, name))
        else:
            replacement = self._timed(original, name)
        setattr(cls, attr, replacement)
        self._undo.append((cls, attr, original))

    def restore(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)


def span_seconds(before: dict, after: dict, leaf: str) -> float:
    """Wall seconds of every registry span path ending in ``leaf``, as a delta."""
    def total(snapshot: dict) -> float:
        return sum(stat["wall_s"] for path, stat in snapshot.get("spans", {}).items()
                   if path.rsplit("/", 1)[-1] == leaf)
    return total(after) - total(before)


def counter_delta(before: dict, after: dict, name: str) -> float:
    return after["counters"].get(name, 0) - before["counters"].get(name, 0)


def engine_metrics(before: dict, after: dict, per: float) -> dict:
    """Engine figures from two metrics snapshots (in-process or ``/metricsz``).

    Cascade span seconds are scaled by ``per`` (1 / binaries or requests);
    the ratios come from the engine's own counters.
    """
    unique = counter_delta(before, after, "engine.unique_windows")
    positions = counter_delta(before, after, "engine.ctx_positions")
    metrics = {
        "engine.ctx_dedup_ratio": (counter_delta(before, after, "engine.ctx_unique")
                                   / max(positions, 1), "ratio"),
        "engine.window_hit_ratio": ((counter_delta(before, after, "engine.cache_hits")
                                     + counter_delta(before, after, "engine.store_hits"))
                                    / max(unique, 1), "ratio"),
    }
    for leaf in ("embed", "conv1", "conv2", "heads"):
        metrics[f"engine.cascade.{leaf}_s"] = (
            span_seconds(before, after, f"cascade.{leaf}") * per, "s")
    return metrics


def add_layers(outcome: dict, layers: dict) -> None:
    """Fold per-layer figures measured by another workload's phase into a
    traced run's outcome, so every traced run reports every layer."""
    outcome["metrics"].update(layers["metrics"])
    outcome["attempted"] += layers.get("attempted", 0)
    outcome["failed"] += layers.get("failed", 0)


def stamp(seed: int, workload: str, counts: dict) -> dict:
    """Provenance for a result: commit, cores, interpreter and numpy."""
    return {
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "seed": seed,
        "workload": workload,
        "counts": counts,
    }


def git_sha(root: str = ".") -> str:
    """The checkout's commit read from ``.git``, or ``unknown`` without one.

    Reads the files directly instead of running git, so nothing outside
    the checkout is consulted.
    """
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"
