"""The resident model: verified load and hot swap.

One :class:`ModelHost` owns the :class:`~repro.core.pipeline.Cati`
(and its :class:`~repro.core.engine.InferenceEngine`) the daemon serves
from. Reload — triggered by ``POST /v1/reload`` — happens entirely off
the request path:

1. ``ModelBundle.open`` + ``resolve_config(<current>)`` check the
   structural fields, so a bundle trained with a different
   ``window``/``fc_width``/... fails with
   :class:`~repro.core.errors.ConfigMismatchError` instead of loading
   garbage weights;
2. ``Cati.load(dir)`` checksums every payload before it trusts its
   arrays, then rebuilds the model with the bundle's own saved config
   (its voting threshold included), the same model a fresh daemon, a
   respawned worker or an offline load of that bundle gets;
   ``warm_start`` compiles the new engine's kernels;
3. only then is the engine swapped, under a lock, with a generation
   bump.

A rejected reload (corrupt payload, schema drift, config mismatch)
raises before step 3, so the previous model keeps serving untouched.
Callers read the served engine from :attr:`ModelHost.engine`; a batch
that read the old engine finishes on it — the old object stays alive as
long as any batch holds a reference.  Nothing outside the host holds
state tied to an engine except the :class:`~repro.core.engine.Analysis`
it returned, which names it, so a session keeps its cached Analysis only
while that engine is still the host's.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from repro.core import observability
from repro.core.artifacts import ModelBundle
from repro.core.config import CatiConfig
from repro.core.engine import InferenceEngine
from repro.core.errors import ArtifactError
from repro.core.pipeline import Cati


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

    @property
    def engine(self) -> InferenceEngine:
        """The served engine.

        Callers keep the returned engine for the whole batch; a reload
        meanwhile swaps the host's reference but never mutates it.
        """
        with self._lock:
            return self._engine

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
        """Check + load + warm a bundle, then atomically swap it in.

        Raises :class:`~repro.core.errors.ArtifactError` (integrity,
        schema, config-mismatch) without touching the serving model.
        Returns the new :meth:`model_info`.
        """
        target = Path(model_dir) if model_dir is not None else self._model_dir
        try:
            with observability.span("serve.reload"):
                # Structure before checksums: Cati.load builds the
                # classifier from the bundle's config, so a drifted
                # bundle would fail there as a shape error, not a 409.
                ModelBundle.open(target).resolve_config(self.config)
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
