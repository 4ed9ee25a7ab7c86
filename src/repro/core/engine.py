"""Batched, dedup-aware inference engine for the deployment hot paths.

The naive pipeline pays for every VUC window in full: per-window Python
encoding, six float64 CNN forwards over every row, and one forward per
occluded variant.  The paper's *same-type clustering phenomenon* (§VI,
Table V) means real corpora are heavily redundant — the same generalized
instructions and short instruction contexts recur across windows,
variables and binaries — so most of that work recomputes identical
numbers.  The engine exploits that redundancy at every level:

* **window dedup + content cache** — byte-identical generalized VUCs
  (hashed at token-id level) are classified once per call, and an LRU
  cache of leaf rows carries hits across calls and across binaries;
* **context dedup through the convolutional trunk** — a conv output
  position depends only on its receptive field, so conv1 runs once per
  *unique 3-instruction context* (typically 7-15x fewer rows than
  positions), max-pooling once per unique position pair, and conv2 once
  per unique pooled context, before the dense head runs per window;
* **stacked float32 kernels** — all six stage CNNs read the same input,
  so conv1 is one fused kernel across stages and the sibling stage
  heads (conv2, dense1, the class-padded dense2) run as single batched
  GEMMs (``np.matmul`` over ``[S, N, K] @ [S, K, M]``) instead of six
  sequential matmuls (float64 storage is kept for training; inference
  agrees with the naive path to ~1e-7);
* **arena-fused execution** — every cascade intermediate lives in a
  per-engine :class:`_KernelArena` of named, grow-on-demand float32
  buffers (thread-local, sized by the ``CatiConfig.max_batch`` chunk
  and reused across ``_stage_probs_chunk`` calls), with
  ``np.matmul(..., out=)`` / ``np.take(..., out=)`` / in-place
  activations eliminating per-call allocation churn;
* **chunking** — dense passes proceed in ``CatiConfig.max_batch`` window
  chunks so arbitrarily large corpora run in bounded memory;
* **occlusion at the id level** — all L+1 occluded variants of a window
  batch are materialized as one small int tensor (BLANK row ids
  overwrite one position each) and pushed through the same deduplicated
  path, which automatically reuses every context the BLANK did not touch.

Models whose layer stack deviates from the canonical CATI CNN (e.g. the
window-0 ablation, which has no pooling) fall back to a generic batched
float32 forward; unknown layer types fall back to the naive float64
model.  Equivalence of every fast path with the naive one is enforced by
``tests/test_engine.py``.

Contract: the engine is a pure accelerator — for any trained model it
returns bitwise-deterministic results that agree with the naive
reference to ≤1e-6, never mutates the model, degrades per function
under ``on_error="skip"`` (everything dropped is enumerated in the
result's :attr:`InferenceResult.failures`), and reports what it did
into the global metrics registry when ``CatiConfig.metrics_enabled``:
``engine.windows`` / ``engine.unique_windows`` / ``engine.cache_hits`` /
``engine.cache_misses`` counters (plus ``engine.store_hits`` when a
durable window store is attached — see :meth:`InferenceEngine.attach_window_store`),
``engine.batch_size`` and
``engine.chunk_seconds`` histograms (the latter gives per-chunk p50/p99
latency), per-stage cascade spans (``cascade.embed`` /
``cascade.conv1`` / ``cascade.conv2`` / ``cascade.heads``) and
per-phase spans under ``infer_binary`` (extract → encode → classify →
vote → posterior; every entry point scores through
:meth:`InferenceEngine.score`).  A cumulative metrics snapshot rides along on
:attr:`InferenceResult.metrics`.  See ``docs/OPERATIONS.md``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.codegen.binary import Binary
from repro.core import observability
from repro.core.classifier import MultiStageClassifier, compose_leaves
from repro.core.config import CatiConfig
from repro.core.errors import FailureReport, check_on_error, handle_failure
from repro.core.observability import SIZE_BUCKETS, TIME_BUCKETS
from repro.core.types import ALL_TYPES, Stage
from repro.embedding.encoder import VucEncoder
from repro.nn.losses import softmax
from repro.nn.model import layer_kind
from repro.vuc.dataflow import VariableExtent
from repro.vuc.generalize import BLANK_TOKENS, Tokens
from repro.vuc.stream import VucStream, extract_vuc_stream


@dataclass
class EngineStats:
    """Dedup observability counters (cumulative until ``reset``)."""

    windows: int = 0          # windows submitted to leaf_proba
    unique_windows: int = 0   # distinct windows per call, summed
    cache_hits: int = 0       # distinct windows answered from the LRU cache
    store_hits: int = 0       # distinct windows answered from the durable store
    ctx_positions: int = 0    # conv1 positions submitted to the cascade
    ctx_unique: int = 0       # unique 3-instruction contexts actually convolved

    def reset(self) -> None:
        self.windows = self.unique_windows = self.cache_hits = 0
        self.store_hits = 0
        self.ctx_positions = self.ctx_unique = 0


@dataclass
class BatchedOcclusion:
    """Eq. (5) for a whole batch of VUCs."""

    epsilons: np.ndarray           # [N, L]
    predicted_indices: np.ndarray  # [N] leaf class probed per window
    base_confidences: np.ndarray   # [N]


class Analysis:
    """One stream's scored windows; its vote and layouts are computed on first use.

    :meth:`InferenceEngine.score` returns one per stream.  ``predictions``
    (eqs. 3-4, in the ``vote`` span) and ``layouts`` (the posterior
    stage over ``stream.sites``, in the ``posterior`` span) are each
    computed once, from the scoring engine's config, under a lock: an
    analysis session's cached Analysis serves concurrent tool calls.
    """

    __slots__ = ("stream", "probs", "_engine", "_lock", "_predictions", "_layouts")

    def __init__(self, engine: "InferenceEngine", stream: VucStream,
                 probs: np.ndarray) -> None:
        self.stream = stream
        #: [len(stream), 19] leaf confidences, row-aligned with the stream.
        self.probs = probs
        self._engine = engine
        self._lock = threading.Lock()
        self._predictions: list | None = None
        self._layouts: list | None = None

    # Both stages import their function at call time, so the end-to-end
    # benchmark's traced pass, which patches the module attribute, sees every call.

    @property
    def predictions(self) -> list:
        """One :class:`~repro.core.pipeline.VariablePrediction` per variable."""
        with self._lock:
            if self._predictions is None:
                from repro.core.pipeline import predictions_from_probs

                engine = self._engine
                with engine._span("vote"):
                    self._predictions = predictions_from_probs(
                        self.probs, self.stream.variable_ids,
                        engine.config.confidence_threshold,
                        metrics=engine._metrics_on(),
                        vote_detail=engine.config.metrics_vote_detail)
            return self._predictions

    @property
    def layouts(self) -> list:
        """Recovered struct layouts; the stream must carry access sites."""
        predictions = self.predictions
        with self._lock:
            if self._layouts is None:
                from repro.posterior import recover_layouts

                engine = self._engine
                with engine._span("posterior"):
                    self._layouts = recover_layouts(
                        predictions, self.probs, self.stream.variable_ids,
                        self.stream.sites,
                        threshold=engine.config.confidence_threshold,
                        min_accesses=engine.config.posterior_min_accesses)
            return self._layouts


class InferenceResult(list):
    """Predictions for one binary plus the run's failure report.

    A plain ``list`` subclass so every existing call site (iteration,
    indexing, ``==`` against a list of predictions) keeps working; the
    skip-and-record policy attaches what was dropped as
    :attr:`failures`.
    """

    __slots__ = ("failures", "metrics", "layouts")

    def __init__(self, predictions=(), failures: FailureReport | None = None,
                 metrics: dict | None = None, layouts: list | None = None) -> None:
        super().__init__(predictions)
        self.failures = failures if failures is not None else FailureReport()
        #: Cumulative process-metrics snapshot taken when the run ended
        #: (None when metrics are disabled); see repro.core.observability.
        self.metrics = metrics
        #: Recovered struct layouts (repro.posterior.StructLayout); None
        #: when the posterior stage did not run, [] when it ran and found
        #: no recoverable objects.
        self.layouts = layouts


# -- compiled stage programs ----------------------------------------------------

#: The canonical CATI stage CNN (§V-A) as an op-kind sequence; when every
#: stage matches it, the cascade (context-dedup) path applies.
_CANONICAL_KINDS = (
    "conv", "relu", "pool", "conv", "relu", "pool",
    "flatten", "dense", "relu", "noop", "dense",
)
_CONV2_INDEX = 3
_DENSE1_INDEX = 7


def _compile_ops(model) -> list[tuple] | None:
    """float32 mirror program of a Sequential; None if a layer is unknown."""
    ops: list[tuple] = []
    for layer in model.layers:
        kind = layer_kind(layer)
        if kind == "conv":
            ops.append(("conv", layer.weight.astype(np.float32),
                        layer.bias.astype(np.float32), layer.kernel_size))
        elif kind == "dense":
            ops.append(("dense", layer.weight.astype(np.float32),
                        layer.bias.astype(np.float32)))
        elif kind == "pool":
            ops.append(("pool", layer.pool))
        elif kind in ("relu", "flatten", "noop"):
            ops.append((kind,))
        else:
            return None
    return ops


def _im2col(x: np.ndarray, kernel: int) -> np.ndarray:
    pad = kernel // 2
    padded = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (kernel, x.shape[2]), axis=(1, 2)
    )
    return windows.reshape(x.shape[0], x.shape[1], kernel * x.shape[2])


def _run_ops(ops: list[tuple], x: np.ndarray) -> np.ndarray:
    """Generic batched float32 inference over a compiled program."""
    for op in ops:
        kind = op[0]
        if kind == "conv":
            _, weight, bias, kernel = op
            cols = _im2col(x, kernel)
            batch, length, flat = cols.shape
            x = (cols.reshape(batch * length, flat) @ weight).reshape(batch, length, -1) + bias
        elif kind == "relu":
            x = np.maximum(x, 0.0)
        elif kind == "pool":
            pool = op[1]
            batch, length, channels = x.shape
            out_len = length // pool
            x = x[:, :out_len * pool].reshape(batch, out_len, pool, channels).max(axis=2)
        elif kind == "flatten":
            x = x.reshape(len(x), -1)
        elif kind == "dense":
            _, weight, bias = op
            x = x @ weight + bias
    return x


# -- dedup primitives ------------------------------------------------------------


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(unique [U, K], inverse [N]) for an int [N, K] array.

    When the value range allows, rows are packed bijectively into int64
    scalars (sorting scalars is several times faster than the void-view
    lexicographic sort); otherwise falls back to byte-view hashing.
    """
    rows = np.ascontiguousarray(rows)
    n, k = rows.shape
    if n:
        lo = int(rows.min())
        span = int(rows.max()) - lo + 1
        if k * np.log2(max(span, 2)) < 62:
            keys = rows[:, 0].astype(np.int64) - lo
            for j in range(1, k):
                keys = keys * span + (rows[:, j] - lo)
            # Hand-rolled unique: plain (unstable) quicksort beats
            # np.unique's stable mergesort, and equal keys mean equal
            # rows, so any duplicate may represent its group.
            order = np.argsort(keys)
            sorted_keys = keys[order]
            is_first = np.empty(n, dtype=bool)
            is_first[0] = True
            np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=is_first[1:])
            group_of_sorted = np.cumsum(is_first) - 1
            inverse = np.empty(n, dtype=np.int64)
            inverse[order] = group_of_sorted
            return rows[order[is_first]], inverse
    view = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(view, return_index=True, return_inverse=True)
    return rows[first], inverse


def _neighbor_rows(positions: np.ndarray) -> np.ndarray:
    """[B, L] position ids → [B, L, 3] (prev, self, next), -1 at the edges.

    -1 marks the conv's zero 'same'-padding, which contributes a zero row.
    """
    padded = np.pad(positions, ((0, 0), (1, 1)), constant_values=-1)
    return np.stack([padded[:, :-2], padded[:, 1:-1], padded[:, 2:]], axis=2)


# -- arena + compiled cascade kernels --------------------------------------------


class _KernelArena:
    """Named, grow-on-demand scratch buffers for the fused cascade.

    Every cascade intermediate (conv activations, pooled rows, the flat
    head input, logits) is a prefix view of a named 1-D buffer, so a
    steady stream of same-shaped chunks allocates nothing after the
    first: ``np.matmul(..., out=)`` and in-place activations write into
    the same memory every call.  Buffers grow geometrically when a
    larger chunk arrives and are never shrunk (peak size is bounded by
    ``CatiConfig.max_batch``).  One arena per thread (see
    ``InferenceEngine._arena``) — views handed out are only valid until
    the same thread's next chunk.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...],
             dtype=np.float32) -> np.ndarray:
        """A C-contiguous [shape] view of the named buffer (uninitialized)."""
        size = 1
        for extent in shape:
            size *= int(extent)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size or buffer.dtype != dtype:
            capacity = size if buffer is None else max(size, (buffer.size * 3) // 2)
            buffer = np.empty(capacity, dtype=dtype)
            self._buffers[name] = buffer
        return buffer[:size].reshape(shape)

    @property
    def nbytes(self) -> int:
        return sum(buffer.nbytes for buffer in self._buffers.values())


@dataclass
class _CascadeKernels:
    """Float32 weight tensors of the fused cascade, laid out for speed.

    ``w1`` stacks every stage's conv1 kernel side by side so one GEMM
    over the unique contexts computes all stages' conv1 at once (in the
    same tap-sequential accumulation order as the float64 reference —
    reordering the summation costs ~2e-6 of leaf drift, past the 1e-6
    equivalence gate); the conv2 / dense operands are stacked
    stage-major for batched ``np.matmul``; the output heads are
    zero-padded to the widest stage (``class_counts`` slices the
    padding back off).
    """

    w1: np.ndarray            # [3*dim, S*C1]
    bias1: np.ndarray         # [S*C1]
    w2: np.ndarray            # [S, 3*C1, C2]
    b2: np.ndarray            # [S, 1, C2]
    wfc: np.ndarray           # [S, out2*C2, F]
    bfc: np.ndarray           # [S, 1, F]
    wout: np.ndarray          # [S, F, C_max] (class-padded)
    bout: np.ndarray          # [S, 1, C_max]
    class_counts: tuple[int, ...]
    c1: int
    c2: int
    fc: int


# -- the engine ------------------------------------------------------------------


class InferenceEngine:
    """Deduplicated, chunked, float32 inference over a trained CATI."""

    def __init__(self, classifier: MultiStageClassifier, encoder: VucEncoder,
                 config: CatiConfig) -> None:
        self.classifier = classifier
        self.encoder = encoder
        self.config = config
        self.stats = EngineStats()
        # The leaf-row cache is shared across threads when the engine
        # sits behind repro.serve: handler threads and the batching
        # scheduler may race clear_cache/refresh against lookups, so
        # every cache access holds this lock (one acquisition per
        # leaf_proba_ids call, not per window).
        self._cache_lock = threading.Lock()
        self._cache: OrderedDict[bytes, np.ndarray] = OrderedDict()
        #: Optional durable window cache (repro.batch.cache.WindowCacheStore):
        #: consulted between the in-memory LRU and the dense compute, and fed
        #: every freshly computed leaf row.  None = LRU only.
        self.window_store = None
        self._stage_order: list[Stage] = []
        self._ops: list[list[tuple] | None] | None = None
        self._cascade = False
        self._kernels: _CascadeKernels | None = None
        # Scratch arenas are thread-local: serve handler threads may run
        # chunks concurrently and must not share buffers.
        self._arena_store = threading.local()

    # -- observability -----------------------------------------------------------

    def _metrics_on(self) -> bool:
        """Instrumentation gate: the config knob AND the global switch."""
        return self.config.metrics_enabled and observability.is_enabled()

    def _span(self, name: str):
        """A registry span when metrics are on, else a free no-op."""
        if self.config.metrics_enabled:
            return observability.get_registry().span(name)
        return nullcontext()

    # -- kernel compilation ------------------------------------------------------

    def _require_ops(self) -> None:
        if self._ops is not None:
            return
        self._stage_order = list(self.classifier.stages)
        if not self._stage_order:
            raise RuntimeError("classifier has no trained stages")
        self._ops = [_compile_ops(self.classifier.stages[stage].model)
                     for stage in self._stage_order]
        self._cascade = self._cascade_applicable()
        if self._cascade:
            self._kernels = self._compile_cascade_kernels()

    def _compile_cascade_kernels(self) -> _CascadeKernels:
        assert self._ops is not None
        ops = self._ops
        w1 = np.ascontiguousarray(
            np.concatenate([o[0][1] for o in ops], axis=1))        # type: ignore[index]
        sc1 = w1.shape[1]
        bias1 = np.concatenate([o[0][2] for o in ops])             # type: ignore[index]
        w2 = np.ascontiguousarray(np.stack([o[_CONV2_INDEX][1] for o in ops]))  # type: ignore[index]
        b2 = np.ascontiguousarray(np.stack([o[_CONV2_INDEX][2] for o in ops])[:, None, :])  # type: ignore[index]
        wfc = np.ascontiguousarray(np.stack([o[_DENSE1_INDEX][1] for o in ops]))  # type: ignore[index]
        bfc = np.ascontiguousarray(np.stack([o[_DENSE1_INDEX][2] for o in ops])[:, None, :])  # type: ignore[index]
        wout64, bout64, counts = self.classifier.padded_output_heads()
        return _CascadeKernels(
            w1=w1, bias1=bias1, w2=w2, b2=b2, wfc=wfc, bfc=bfc,
            wout=np.ascontiguousarray(wout64.astype(np.float32)),
            bout=np.ascontiguousarray(bout64.astype(np.float32)),
            class_counts=counts,
            c1=sc1 // len(ops), c2=w2.shape[2], fc=wfc.shape[2],
        )

    def _cascade_applicable(self) -> bool:
        assert self._ops is not None
        for ops in self._ops:
            if ops is None or tuple(op[0] for op in ops) != _CANONICAL_KINDS:
                return False
            if ops[0][3] != 3 or ops[_CONV2_INDEX][3] != 3:
                return False
            if ops[2][1] != 2 or ops[5][1] != 2:
                return False
        first = self._ops[0][0][1].shape
        return all(ops[0][1].shape == first for ops in self._ops)  # type: ignore[union-attr]

    def warm_start(self) -> None:
        """Compile the float32 kernels now instead of on the first batch.

        ``Cati.load(..., warm_start=True)`` calls this right after a
        bundle load so a freshly deserialized model serves its first
        request at steady-state latency (the stacked conv mirrors and
        cascade applicability check are built from the just-restored
        weights).
        """
        with self._span("engine.warm_start"):
            self._require_ops()

    def refresh(self) -> None:
        """Drop compiled kernels and cached rows (call after retraining)."""
        self._ops = None
        self._kernels = None
        self._cascade = False
        self._arena_store = threading.local()
        self.window_store = None
        self.clear_cache()

    def _arena(self) -> _KernelArena:
        arena = getattr(self._arena_store, "arena", None)
        if arena is None:
            arena = self._arena_store.arena = _KernelArena()
        return arena

    @property
    def arena_nbytes(self) -> int:
        """Bytes held by the calling thread's scratch arena."""
        return self._arena().nbytes

    # -- caching -----------------------------------------------------------------

    def clear_cache(self) -> None:
        with self._cache_lock:
            self._cache.clear()

    def attach_window_store(self, store) -> None:
        """Back the dedup cache with a durable ``WindowCacheStore``.

        The store is consulted for windows the in-memory LRU misses and
        receives every freshly computed leaf row; rows served from it
        are bit-identical to what the cascade once produced (the store
        verifies each record's checksum and treats damage as a miss).
        Pass ``None`` to detach.  The caller owns the store's lifecycle
        (``flush``/``close``) and must only attach a store namespaced to
        this engine's model (see ``ModelBundle.content_key``).
        """
        self.window_store = store

    def _cache_put_many(self, pairs: list[tuple[bytes, np.ndarray]]) -> None:
        limit = self.config.dedup_cache_size
        if limit <= 0 or not pairs:
            return
        with self._cache_lock:
            for key, row in pairs:
                self._cache[key] = row
            while len(self._cache) > limit:
                self._cache.popitem(last=False)

    # -- classify + vote ---------------------------------------------------------

    def leaf_proba(self, windows: Sequence[Sequence[Tokens]]) -> np.ndarray:
        """[N, 19] leaf confidences, deduplicated and chunked."""
        with self._span("encode"):
            ids = self.encoder.encode_ids(windows, length=self.config.vuc_length)
        with self._span("classify"):
            return self.leaf_proba_ids(ids)

    def leaf_proba_ids(self, ids: np.ndarray) -> np.ndarray:
        """Leaf confidences from a pre-tokenized [N, L, 3] id tensor."""
        n = len(ids)
        if n == 0:
            return np.zeros((0, len(ALL_TYPES)))
        self.stats.windows += n
        registry = observability.get_registry()
        record = self._metrics_on()
        if record:
            registry.inc("engine.windows", n)
            registry.observe("engine.batch_size", n, SIZE_BUCKETS)
        flat = ids.reshape(n, -1)
        index_of: dict[bytes, int] = {}
        owner_row: list[int] = []
        assign = np.empty(n, dtype=np.int64)
        for i in range(n):
            key = flat[i].tobytes()
            j = index_of.get(key)
            if j is None:
                j = len(owner_row)
                index_of[key] = j
                owner_row.append(i)
            assign[i] = j
        unique = len(owner_row)
        self.stats.unique_windows += unique
        probs = np.empty((unique, len(ALL_TYPES)))
        todo: list[int] = []
        keys = list(index_of)
        if self.config.dedup_cache_size > 0:
            with self._cache_lock:
                for j, key in enumerate(keys):
                    row = self._cache.get(key)
                    if row is None:
                        todo.append(j)
                    else:
                        self._cache.move_to_end(key)
                        probs[j] = row
                        self.stats.cache_hits += 1
        else:
            todo = list(range(unique))
        lru_hits = unique - len(todo)
        if todo and self.window_store is not None:
            # Consult the durable store for what the LRU missed; hits are
            # promoted into the LRU so repeat windows stay memory-fast.
            found = self.window_store.get_many([keys[j] for j in todo])
            if found:
                still: list[int] = []
                promote: list[tuple[bytes, np.ndarray]] = []
                for j in todo:
                    row = found.get(keys[j])
                    if row is None:
                        still.append(j)
                    else:
                        probs[j] = row
                        promote.append((keys[j], row))
                self.stats.store_hits += len(todo) - len(still)
                if record:
                    registry.inc("engine.store_hits", len(todo) - len(still))
                todo = still
                self._cache_put_many(promote)
        if record:
            registry.inc("engine.unique_windows", unique)
            registry.inc("engine.cache_hits", lru_hits)
            registry.inc("engine.cache_misses", len(todo))
        if todo:
            fresh = self._leaf_proba_dense(ids[np.asarray([owner_row[j] for j in todo])])
            for t, j in enumerate(todo):
                probs[j] = fresh[t]
            self._cache_put_many([(keys[j], fresh[t].copy())
                                  for t, j in enumerate(todo)])
            if self.window_store is not None:
                self.window_store.put_many([(keys[j], fresh[t])
                                            for t, j in enumerate(todo)])
        return probs[assign]

    def _leaf_proba_dense(self, ids: np.ndarray) -> np.ndarray:
        chunks = []
        record = self._metrics_on()
        registry = observability.get_registry() if record else None
        for start in range(0, len(ids), self.config.max_batch):
            began = time.perf_counter() if record else 0.0
            stage_probs = self._stage_probs_chunk(ids[start:start + self.config.max_batch])
            chunks.append(compose_leaves(stage_probs))
            if registry is not None:
                registry.observe("engine.chunk_seconds",
                                 time.perf_counter() - began, TIME_BUCKETS)
        return np.concatenate(chunks)

    def _stage_probs_chunk(self, ids: np.ndarray) -> dict[Stage, np.ndarray]:
        self._require_ops()
        logits = self._cascade_logits(ids) if self._cascade else self._generic_logits(ids)
        return {stage: softmax(out.astype(np.float64))
                for stage, out in zip(self._stage_order, logits)}

    def _embed_rows(self, instr_u: np.ndarray) -> np.ndarray:
        """[U, 3] id-triples → [U, instruction_dim] float32 embeddings."""
        vectors = self.encoder.embedding.vectors[instr_u.reshape(-1)].astype(
            np.float32, copy=False)
        return vectors.reshape(len(instr_u), -1)

    def _embed_ids(self, ids: np.ndarray) -> np.ndarray:
        n, length, _ = ids.shape
        return self._embed_rows(ids.reshape(n * length, 3)).reshape(
            n, length, self.encoder.instruction_dim)

    def _generic_logits(self, ids: np.ndarray) -> list[np.ndarray]:
        assert self._ops is not None
        with self._span("generic_forward"):
            x = self._embed_ids(ids)
            out = []
            for stage, ops in zip(self._stage_order, self._ops):
                if ops is None:
                    out.append(self.classifier.stages[stage].model.forward(x, training=False))
                else:
                    out.append(_run_ops(ops, x))
            return out

    def _cascade_logits(self, ids: np.ndarray) -> list[np.ndarray]:
        """Context-deduplicated trunk + stacked batched heads (module doc).

        Every intermediate is an arena view; the returned per-stage
        logit slices are only valid until this thread's next chunk —
        ``_stage_probs_chunk`` copies them out via the float64 softmax.
        """
        kernels = self._kernels
        assert kernels is not None
        arena = self._arena()
        batch, length, _ = ids.shape
        n_stages = len(self._stage_order)
        c1, c2 = kernels.c1, kernels.c2
        sc1 = n_stages * c1

        with self._span("cascade.embed"):
            # Level 0: unique instructions → their embeddings, computed
            # once, into a zero-padded arena row table for the conv1
            # gather.
            instr_u, pos = _unique_rows(ids.reshape(batch * length, 3))
            pos = pos.reshape(batch, length)
            dim = self.encoder.instruction_dim
            emb_ext = arena.take("emb", (len(instr_u) + 1, dim))
            emb_ext[:len(instr_u)] = self._embed_rows(instr_u)
            emb_ext[len(instr_u)] = 0.0

        with self._span("cascade.conv1"):
            # Level 1: conv1 over unique 3-instruction contexts, every
            # stage in ONE GEMM over the whole deduped batch (position
            # -1, the conv's 'same' padding, redirects to the zero row).
            # Gathers use plain fancy indexing: np.take(out=) goes
            # through a slower buffered path (measured ~2.7x).
            ctx1_u, pos_c1 = _unique_rows(_neighbor_rows(pos).reshape(batch * length, 3))
            pos_c1 = pos_c1.reshape(batch, length)
            self.stats.ctx_positions += batch * length
            self.stats.ctx_unique += len(ctx1_u)
            if self._metrics_on():
                registry = observability.get_registry()
                registry.inc("engine.ctx_positions", batch * length)
                registry.inc("engine.ctx_unique", len(ctx1_u))
            u1 = len(ctx1_u)
            safe1 = np.where(ctx1_u < 0, len(instr_u), ctx1_u).ravel()
            x1 = emb_ext[safe1]
            hidden1 = arena.take("hidden1", (u1, sc1))
            # Bias + ReLU are postponed past pool1: rounding is
            # monotone, so fl(a+c) <= fl(b+c) whenever a <= b, making
            # max-then-bias-then-relu bit-identical to the reference
            # order while touching u_p1 rows instead of u1.
            np.matmul(x1.reshape(u1, 3 * dim), kernels.w1, out=hidden1)

            # Pool 1 over unique position pairs, then one stage-major
            # transpose so conv2's context gathers are contiguous per
            # stage (the extra row u_p1 is conv2's zero 'same' padding,
            # which bias must not touch).
            out1 = length // 2
            pairs1 = np.stack([pos_c1[:, 0:out1 * 2:2], pos_c1[:, 1:out1 * 2:2]], axis=2)
            pairs1_u, pos_p1 = _unique_rows(pairs1.reshape(batch * out1, 2))
            pos_p1 = pos_p1.reshape(batch, out1)
            u_p1 = len(pairs1_u)
            pooled1 = np.maximum(hidden1[pairs1_u[:, 0]], hidden1[pairs1_u[:, 1]])
            pooled1_t = arena.take("pooled1_t", (n_stages, u_p1 + 1, c1))
            pooled1_t[:, :u_p1] = pooled1.reshape(u_p1, n_stages, c1).transpose(1, 0, 2)
            pooled1_t[:, u_p1] = 0.0
            body1 = pooled1_t[:, :u_p1]
            body1 += kernels.bias1.reshape(n_stages, 1, c1)
            np.maximum(body1, 0.0, out=body1)

        with self._span("cascade.conv2"):
            # Level 2: conv2 over unique pooled contexts.  The GEMM is
            # still one batched [S, U, K] @ [S, K, M] contraction, but
            # its operand is assembled stage by stage with small
            # ephemeral gathers — a single [S, U*3, C1] slab gather
            # blows the cache on this memory-bound path (measured).
            ctx2_u, pos_c2 = _unique_rows(_neighbor_rows(pos_p1).reshape(batch * out1, 3))
            pos_c2 = pos_c2.reshape(batch, out1)
            u2 = len(ctx2_u)
            safe2 = np.where(ctx2_u < 0, u_p1, ctx2_u).ravel()
            out2 = out1 // 2
            # Pool 2 over unique position pairs (it pays again at this
            # depth once the gathers are fancy-indexed), flattening
            # straight into the [S, B*out2, C2] head layout.
            pairs2 = np.stack([pos_c2[:, 0:out2 * 2:2], pos_c2[:, 1:out2 * 2:2]], axis=2)
            pairs2_u, pos_p2 = _unique_rows(pairs2.reshape(batch * out2, 2))
            flat_index = pos_p2
            hidden2 = arena.take("hidden2", (u2, c2))
            flat = arena.take("flat", (n_stages, batch * out2, c2))
            for s in range(n_stages):
                x2 = pooled1_t[s][safe2]
                np.matmul(x2.reshape(u2, 3 * c1), kernels.w2[s], out=hidden2)
                pooled2 = np.maximum(hidden2[pairs2_u[:, 0]],
                                     hidden2[pairs2_u[:, 1]])
                pooled2 += kernels.b2[s]
                np.maximum(pooled2, 0.0, out=pooled2)
                flat[s] = pooled2[flat_index]

        with self._span("cascade.heads"):
            # Sibling stage heads share input shapes: dense1 and the
            # class-padded dense2 run as stacked batched GEMMs.
            z = arena.take("z", (n_stages, batch, kernels.fc))
            np.matmul(flat.reshape(n_stages, batch, out2 * c2), kernels.wfc, out=z)
            z += kernels.bfc
            np.maximum(z, 0.0, out=z)
            raw = arena.take("logits", (n_stages, batch, kernels.wout.shape[2]))
            np.matmul(z, kernels.wout, out=raw)
            raw += kernels.bout
            return [raw[s, :, :count]
                    for s, count in enumerate(kernels.class_counts)]

    # -- variable-level prediction -----------------------------------------------

    def score(self, streams: Sequence[VucStream],
              ids: Sequence[np.ndarray | None] | None = None) -> list[Analysis]:
        """Classify every window of ``streams`` in one engine call.

        Returns one :class:`Analysis` per stream.  ``ids`` optionally
        gives, per stream, the id tensor its caller already encoded
        under this engine; a None entry (or no ``ids``) is encoded here
        through :meth:`~repro.embedding.encoder.VucEncoder.encode_stream`.
        """
        parts = list(ids) if ids is not None else [None] * len(streams)
        if len(parts) != len(streams):
            raise ValueError(f"{len(parts)} id tensors for {len(streams)} streams")
        if not streams:
            return []
        if any(part is None for part in parts):
            with self._span("encode"):
                parts = [self.encoder.encode_stream(stream) if part is None else part
                         for stream, part in zip(streams, parts)]
        sizes = [len(stream) for stream in streams]
        if [len(part) for part in parts] != sizes:
            raise ValueError("every id tensor needs one row per window of its stream")
        with self._span("classify"):
            probs = self.leaf_proba_ids(parts[0] if len(parts) == 1
                                        else np.concatenate(parts))
        rows = np.split(probs, np.cumsum(sizes)[:-1])
        return [Analysis(self, stream, part) for stream, part in zip(streams, rows)]

    def infer_binary(self, stripped: Binary,
                     extents_by_function: list[list[VariableExtent]],
                     on_error: str = "raise",
                     failures: FailureReport | None = None,
                     structs: bool = False) -> InferenceResult:
        """Engine-path whole-binary inference (Fig. 3e-f).

        Extraction builds one token stream per binary
        (:func:`~repro.vuc.stream.extract_vuc_stream`), which
        :meth:`score` encodes once and classifies in one call.

        With ``on_error="skip"``, extraction is fault-isolated per
        function: damaged functions are recorded into the result's
        :attr:`~InferenceResult.failures` report (and into ``failures``
        when given) while every healthy function's variables are still
        predicted.  With ``"raise"`` (default) the first failure raises
        a typed :class:`~repro.core.errors.CatiError` subclass.

        ``structs`` turns on the posterior struct-recovery stage:
        per-variable predictions are computed identically from the same
        leaf posteriors, and recovered layouts are attached as
        :attr:`InferenceResult.layouts`.
        """
        check_on_error(on_error)
        report = FailureReport()
        predictions: list = []
        layouts: list | None = [] if structs else None
        with self._span("infer_binary"):
            with self._span("extract"):
                stream = extract_vuc_stream(
                    stripped, extents_by_function, self.config.window,
                    on_error=on_error, failures=report,
                    metrics=self.config.metrics_enabled, sites=structs)
            if len(stream):
                try:
                    analysis = self.score([stream])[0]
                    predictions = analysis.predictions
                    if structs:
                        layouts = analysis.layouts
                except Exception as exc:
                    handle_failure(exc, on_error=on_error, failures=report,
                                   stage="classify", binary=stripped.name)
        if failures is not None:
            failures.extend(report)
        metrics = observability.snapshot() if self._metrics_on() else None
        return InferenceResult(predictions, failures=report, metrics=metrics,
                               layouts=layouts)

    # -- occlusion -----------------------------------------------------------------

    def occlusion_epsilons_many(self, ids: np.ndarray) -> BatchedOcclusion:
        """Eq. (5) over an encoded [N, L, 3] window batch.

        Builds all L+1 variants per window at the token-id level (the
        BLANK triple overwrites one row each) so unmodified contexts are
        shared with the base window by the dedup cascade instead of
        being re-encoded and re-convolved L times.
        """
        n, length, _ = ids.shape
        epsilons = np.empty((n, length))
        predicted = np.empty(n, dtype=np.int64)
        base_conf = np.empty(n)
        if n == 0:
            return BatchedOcclusion(epsilons, predicted, base_conf)
        if self._metrics_on():
            observability.inc("engine.occlusion.windows", n)
        blank = self.encoder.embedding.vocab.encode(list(BLANK_TOKENS)).astype(ids.dtype)
        group = max(1, self.config.max_batch // (length + 1))
        rows = np.arange(length)
        with self._span("occlusion"):
            for start in range(0, n, group):
                sub = ids[start:start + group]
                g = len(sub)
                variants = np.repeat(sub[:, None], length + 1, axis=1)  # [G, 1+L, L, 3]
                variants[:, rows + 1, rows, :] = blank
                probs = self.leaf_proba_ids(
                    variants.reshape(g * (length + 1), length, 3)
                ).reshape(g, length + 1, -1)
                base = probs[:, 0]
                pred = base.argmax(axis=1)
                conf = base[np.arange(g), pred]
                occluded = np.take_along_axis(probs[:, 1:], pred[:, None, None], axis=2)[:, :, 0]
                epsilons[start:start + g] = occluded / np.maximum(conf, 1e-12)[:, None]
                predicted[start:start + g] = pred
                base_conf[start:start + g] = conf
        return BatchedOcclusion(epsilons, predicted, base_conf)

