"""The resident model: verified load, hot swap, optional mtime watcher.

One :class:`ModelHost` owns the :class:`~repro.core.pipeline.Cati`
(and its :class:`~repro.core.engine.InferenceEngine`) the daemon serves
from. Reload — triggered by ``POST /v1/reload`` or the ``--watch``
poller — happens entirely off the request path:

1. ``ModelBundle.open`` + ``verify()`` checksum every payload first;
2. ``resolve_config(<current>)`` checks the structural fields, so a
   bundle trained with a different ``window``/``fc_width``/... fails
   with :class:`~repro.core.errors.ConfigMismatchError` instead of
   loading garbage weights;
3. ``Cati.load(dir)`` rebuilds the model with the bundle's own saved
   config (its voting threshold included), the same model a fresh
   daemon, a respawned worker or an offline load of that bundle gets;
   ``warm_start`` compiles the new engine's kernels;
4. only then is the engine swapped, under a lock, with a generation
   bump.

A rejected reload (corrupt payload, schema drift, config mismatch)
raises before step 4, so the previous model keeps serving untouched.
Batches already running against the old engine finish on it — the old
object stays alive as long as any batch holds a reference.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from repro.core import observability
from repro.core.artifacts import ModelBundle
from repro.core.config import CatiConfig
from repro.core.errors import ArtifactError
from repro.core.pipeline import Cati


def bundle_mtime(model_dir: Path) -> float:
    """Newest mtime under a bundle dir (manifest or any payload).

    Dot-prefixed entries are skipped: they are never part of a bundle,
    so a ``.shared/`` mirror an earlier version wrote there (never read
    now; it may be deleted) does not look like a new bundle to the
    ``--watch`` poller.
    """
    try:
        paths = [model_dir]
        paths += [p for p in model_dir.rglob("*")
                  if not any(part.startswith(".") for part in
                             p.relative_to(model_dir).parts)]
        return max(p.stat().st_mtime for p in paths)
    except OSError:
        return 0.0


class ModelHost:
    """Thread-safe owner of the served model with hot-reload support.

    The first load and every reload go through ``Cati.load``, the
    checksum-verified path offline inference uses, so a served model is
    exactly the offline one; the host writes nothing into the bundle
    directory.
    """

    def __init__(self, model_dir: str | Path, *,
                 initial_generation: int = 1) -> None:
        self._model_dir = Path(model_dir)
        self._lock = threading.Lock()
        self._watcher: threading.Thread | None = None
        self._watch_stop = threading.Event()
        with observability.span("serve.load"):
            cati = Cati.load(str(self._model_dir), warm_start=True)
        # ``initial_generation`` lets a respawned pre-fork worker join
        # at the router's current fence generation instead of restarting
        # its process-local counter at 1.
        self._install(cati, generation=initial_generation)

    def _install(self, cati: Cati, generation: int) -> None:
        engine = cati.engine  # build outside any request's critical path
        with self._lock:
            self._cati = cati
            self._engine = engine
            self._generation = generation
            self._loaded_at = time.time()
            self._mtime = bundle_mtime(self._model_dir)
        observability.set_gauge("serve.model_generation", generation)

    # -- accessors ---------------------------------------------------------------

    @property
    def config(self) -> CatiConfig:
        with self._lock:
            return self._cati.config

    @property
    def generation(self) -> int:
        with self._lock:
            return self._generation

    @property
    def model_dir(self) -> Path:
        return self._model_dir

    def acquire(self):
        """A consistent ``(cati, engine, generation)`` snapshot.

        Callers keep the returned objects for the whole batch; a reload
        meanwhile swaps the host's references but never mutates these.
        """
        with self._lock:
            return self._cati, self._engine, self._generation

    def model_info(self) -> dict:
        """The model block surfaced in /healthz and infer responses."""
        with self._lock:
            cati, generation, loaded_at = self._cati, self._generation, self._loaded_at
        provenance = dict(cati.provenance or {})
        embedding = cati.embedding
        return {
            "bundle": str(self._model_dir),
            "generation": generation,
            "loaded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                       time.gmtime(loaded_at)),
            "repro_version": provenance.get("repro_version"),
            "vocab_size": len(embedding.vocab) if embedding is not None else 0,
            "provenance": provenance,
        }

    # -- reload ------------------------------------------------------------------

    def reload(self, model_dir: str | Path | None = None) -> dict:
        """Verify + load + warm a bundle, then atomically swap it in.

        Raises :class:`~repro.core.errors.ArtifactError` (integrity,
        schema, config-mismatch) without touching the serving model.
        Returns the new :meth:`model_info`.
        """
        target = Path(model_dir) if model_dir is not None else self._model_dir
        try:
            with observability.span("serve.reload"):
                bundle = ModelBundle.open(target)
                bundle.verify()
                bundle.resolve_config(self.config)
                cati = Cati.load(str(target), warm_start=True)
        except ArtifactError:
            observability.inc("serve.reload.rejected")
            raise
        with self._lock:
            generation = self._generation + 1
        self._model_dir = target
        self._install(cati, generation=generation)
        observability.inc("serve.reload.ok")
        return self.model_info()

    # -- --watch poller ----------------------------------------------------------

    def start_watching(self, interval_s: float = 2.0) -> None:
        """Poll the bundle dir's mtimes; reload when they change."""
        if self._watcher is not None:
            return
        self._watch_stop.clear()
        self._watcher = threading.Thread(
            target=self._watch_loop, args=(interval_s,),
            name="serve-watch", daemon=True)
        self._watcher.start()

    def stop_watching(self) -> None:
        if self._watcher is None:
            return
        self._watch_stop.set()
        self._watcher.join(timeout=5.0)
        self._watcher = None

    def _watch_loop(self, interval_s: float) -> None:
        while not self._watch_stop.wait(interval_s):
            current = bundle_mtime(self._model_dir)
            with self._lock:
                changed = current > self._mtime
            if not changed:
                continue
            try:
                info = self.reload()
                print(f"[serve] watch: reloaded generation "
                      f"{info['generation']} from {self._model_dir}")
            except ArtifactError as error:
                # A half-written or corrupt bundle: keep serving the old
                # model and keep polling — a later write may complete it.
                with self._lock:
                    self._mtime = current
                print(f"[serve] watch: reload rejected: {error}")
