"""Versioned, integrity-checked model bundles — the on-disk format.

A *bundle* is a directory owned by :class:`ModelBundle`:

::

    <bundle>/
    ├── manifest.json        schema version, CatiConfig snapshot, vocab
    │                        size, per-file SHA-256 + tensor shapes,
    │                        train provenance
    ├── word2vec.npz         embedding state (Word2Vec.get_state)
    └── stages/
        ├── Stage1.npz       one Sequential.get_state per stage CNN
        ├── Stage2-1.npz
        └── ...

Design contract:

* **Atomic writes** — :meth:`ModelBundle.save` stages everything in a
  hidden temp directory next to the target and swaps it into place with
  ``os.rename``/``os.replace``; a crash mid-save leaves either the old
  bundle or nothing, never a half-written directory that
  :meth:`ModelBundle.open` accepts (the manifest is written last, so a
  torn temp dir is not even a bundle).
* **Checksum-verified loads** — every payload's SHA-256 is checked
  against the manifest before its arrays are deserialized; a flipped
  byte raises :class:`~repro.core.errors.BundleIntegrityError`.  There
  is one load path (:meth:`ModelBundle._load_arrays`), shared by
  offline ``Cati.load`` and every serving process.
* **Read-only after save** — nothing but :meth:`ModelBundle.save`
  writes into a bundle directory.  A ``.shared/`` directory left by an
  earlier version (an uncompressed mirror it memory-mapped) is never
  read and may be deleted.
* **The saved config wins** — ``manifest.json`` freezes the full
  :class:`~repro.core.config.CatiConfig` at save time and
  :meth:`resolve_config` restores it on load.  A caller-supplied config
  whose *structural* fields (the ones that determine tensor shapes:
  ``window``, ``token_dim``, ``conv_channels``, ``fc_width``) disagree
  raises :class:`~repro.core.errors.ConfigMismatchError` naming each
  mismatched field; non-structural knobs (runtime/training) stay the
  caller's.
* **Lazy payloads** — :meth:`open` reads only the manifest; arrays load
  on demand in :meth:`load_embedding` / :meth:`load_classifier_state`.
* **Old manifests load** — config fields this code retired are dropped
  by :meth:`CatiConfig.from_dict <repro.core.config.CatiConfig.from_dict>`
  (see :data:`~repro.core.config.RETIRED_FIELDS`); any other unknown
  field fails the load.  A directory without a manifest is not a model.

The CLI front end is ``python -m repro model inspect``; see
docs/OPERATIONS.md §6.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import uuid
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core import fsutil, observability
from repro.core.config import CatiConfig
from repro.core.errors import (
    ArtifactError,
    BundleIntegrityError,
    BundleSchemaError,
    ConfigMismatchError,
)

if TYPE_CHECKING:
    from repro.core.classifier import MultiStageClassifier
    from repro.embedding.word2vec import Word2Vec

#: Bumped on any manifest/layout change a reader cannot transparently handle.
SCHEMA_VERSION = 1

#: Manifest discriminator, so a random directory with a manifest.json is
#: not mistaken for a model bundle.
BUNDLE_FORMAT = "cati-model-bundle"

MANIFEST_NAME = "manifest.json"
EMBEDDING_FILE = "word2vec.npz"
STAGES_DIR = "stages"

#: CatiConfig fields that determine tensor shapes / inference semantics.
#: These must match the manifest on load; everything else is the
#: caller's business (timeouts, metrics, training knobs, ...).
STRUCTURAL_FIELDS = ("window", "token_dim", "conv_channels", "fc_width")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _npz_shapes(arrays: dict[str, np.ndarray]) -> dict[str, list[int]]:
    return {key: list(np.asarray(value).shape) for key, value in arrays.items()}


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _repro_version() -> str:
    import repro

    return repro.__version__


class ModelBundle:
    """One versioned model artifact directory (see module docstring).

    Payloads load only through :meth:`load_embedding` and
    :meth:`load_classifier_state`, which checksum-verify each file
    first: the single daemon, every router worker, every respawn and
    every reload load exactly what offline ``Cati.load`` does.
    """

    def __init__(self, directory: str | Path, manifest: dict) -> None:
        self.directory = Path(directory)
        self.manifest = manifest

    # -- probing -----------------------------------------------------------------

    @classmethod
    def is_bundle(cls, directory: str | Path) -> bool:
        """A manifest.json is present (validity is :meth:`open`'s job)."""
        return (Path(directory) / MANIFEST_NAME).is_file()

    # -- opening / verification ---------------------------------------------------

    @classmethod
    def open(cls, directory: str | Path) -> "ModelBundle":
        """Read and validate the manifest; payloads stay on disk (lazy).

        Raises :class:`BundleSchemaError` for a missing/unparseable
        manifest, a foreign format, or a schema version this code does
        not speak — the callers that treat a bundle as a cache
        (``experiments.common.get_context``) retrain on exactly these.
        """
        directory = Path(directory)
        path = directory / MANIFEST_NAME
        if not path.is_file():
            raise BundleSchemaError(
                f"no {MANIFEST_NAME} in {directory}",
                path=str(directory), stage="artifacts")
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise BundleSchemaError(
                f"unreadable manifest: {error}",
                path=str(directory), stage="artifacts") from error
        if not isinstance(manifest, dict) or manifest.get("format") != BUNDLE_FORMAT:
            raise BundleSchemaError(
                f"manifest is not a {BUNDLE_FORMAT} manifest",
                path=str(directory), stage="artifacts")
        version = manifest.get("schema_version")
        if version != SCHEMA_VERSION:
            raise BundleSchemaError(
                f"bundle schema version {version!r} is not supported "
                f"(this code reads version {SCHEMA_VERSION})",
                path=str(directory), stage="artifacts")
        for key in ("config", "files", "vocab_size"):
            if key not in manifest:
                raise BundleSchemaError(
                    f"manifest lacks required field {key!r}",
                    path=str(directory), stage="artifacts")
        return cls(directory, manifest)

    def problems(self) -> list[str]:
        """Every integrity discrepancy, human-readable (empty = intact)."""
        out: list[str] = []
        with observability.span("bundle.verify"):
            for name, entry in sorted(self.manifest["files"].items()):
                path = self.directory / name
                if not path.is_file():
                    out.append(f"{name}: payload file is missing")
                    continue
                size = path.stat().st_size
                if size != entry["bytes"]:
                    out.append(f"{name}: {size} bytes on disk, "
                               f"manifest says {entry['bytes']}")
                digest = _sha256(path)
                if digest != entry["sha256"]:
                    out.append(f"{name}: SHA-256 {digest[:12]}... does not match "
                               f"manifest {entry['sha256'][:12]}...")
        return out

    def verify(self) -> None:
        """Raise :class:`BundleIntegrityError` unless every checksum holds."""
        problems = self.problems()
        if problems:
            raise BundleIntegrityError(
                "bundle failed verification: " + "; ".join(problems),
                path=str(self.directory), stage="artifacts")

    def content_key(self) -> str:
        """SHA-256 fingerprint of the bundle's payload contents.

        Derived from the manifest's per-file checksums (not mtimes or
        paths), so it is stable across re-opens and directory copies and
        changes exactly when the model's weights/vocab change.  This is
        what keys the durable window cache (:mod:`repro.batch.cache`)
        and the batch job's model-drift check: a retrained or
        hot-reloaded bundle gets a new key, invalidating stale cached
        rows and checkpoints cleanly.
        """
        digest = hashlib.sha256()
        for name, entry in sorted(self.manifest["files"].items()):
            digest.update(name.encode("utf-8"))
            digest.update(b"\0")
            digest.update(str(entry["sha256"]).encode("utf-8"))
            digest.update(b"\0")
        return digest.hexdigest()

    def _verified_payload(self, name: str) -> Path:
        entry = self.manifest["files"].get(name)
        if entry is None:
            raise BundleIntegrityError(
                f"manifest does not list payload {name!r}",
                path=str(self.directory), stage="artifacts")
        path = self.directory / name
        if not path.is_file():
            raise BundleIntegrityError(
                f"payload {name!r} is missing",
                path=str(self.directory), stage="artifacts")
        digest = _sha256(path)
        if digest != entry["sha256"]:
            raise BundleIntegrityError(
                f"payload {name!r} failed its checksum "
                f"({digest[:12]}... != {entry['sha256'][:12]}...); "
                "the file was modified after the bundle was written",
                path=str(self.directory), stage="artifacts")
        return path

    def _load_arrays(self, name: str) -> dict[str, np.ndarray]:
        path = self._verified_payload(name)
        try:
            with np.load(path, allow_pickle=True) as data:
                arrays = dict(data)
        except Exception as error:
            raise BundleIntegrityError(
                f"payload {name!r} is not a readable .npz: {error}",
                path=str(self.directory), stage="artifacts") from error
        expected = self.manifest["files"][name].get("tensors", {})
        for key, shape in expected.items():
            if key not in arrays:
                raise BundleIntegrityError(
                    f"payload {name!r} lacks tensor {key!r}",
                    path=str(self.directory), stage="artifacts")
            actual = list(np.asarray(arrays[key]).shape)
            if actual != list(shape):
                raise BundleIntegrityError(
                    f"payload {name!r} tensor {key!r} has shape {actual}, "
                    f"manifest says {list(shape)}",
                    path=str(self.directory), stage="artifacts")
        return arrays

    # -- config ------------------------------------------------------------------

    def saved_config(self) -> CatiConfig:
        """The full CatiConfig frozen into the manifest at save time."""
        try:
            return CatiConfig.from_dict(self.manifest["config"])
        except (TypeError, ValueError) as error:
            raise BundleSchemaError(
                f"manifest config does not deserialize: {error}",
                path=str(self.directory), stage="artifacts") from error

    def resolve_config(self, config: CatiConfig | None) -> CatiConfig:
        """The config a load must run with.

        ``None`` restores the saved config verbatim.  An explicit config
        is checked field-by-field over :data:`STRUCTURAL_FIELDS`; any
        disagreement raises :class:`ConfigMismatchError` naming the
        fields, because loading saved weights into differently-shaped
        models produces garbage, not an error, downstream.
        """
        saved = self.saved_config()
        if config is None:
            return saved
        mismatches = {}
        for name in STRUCTURAL_FIELDS:
            ours, theirs = getattr(saved, name), getattr(config, name)
            if tuple(np.atleast_1d(ours)) != tuple(np.atleast_1d(theirs)):
                mismatches[name] = (ours, theirs)
        if mismatches:
            detail = ", ".join(f"{name} (saved {saved_value!r}, given {given!r})"
                               for name, (saved_value, given) in mismatches.items())
            raise ConfigMismatchError(
                f"config conflicts with the saved bundle: {detail}",
                mismatches=mismatches, path=str(self.directory),
                stage="artifacts")
        return config

    # -- payload loading -----------------------------------------------------------

    def load_embedding(self) -> "Word2Vec":
        """Checksum-verify and deserialize the Word2Vec state."""
        from repro.embedding.word2vec import Word2Vec

        with observability.span("bundle.load"):
            state = self._load_arrays(EMBEDDING_FILE)
            try:
                embedding = Word2Vec.from_state(state)
            except ValueError as error:
                raise BundleIntegrityError(
                    f"embedding state rejected: {error}",
                    path=str(self.directory), stage="artifacts") from error
        if len(embedding.vocab) != self.manifest["vocab_size"]:
            raise BundleIntegrityError(
                f"embedding has {len(embedding.vocab)} tokens, "
                f"manifest says {self.manifest['vocab_size']}",
                path=str(self.directory), stage="artifacts")
        return embedding

    def load_classifier_state(self) -> dict[str, dict[str, np.ndarray]]:
        """Checksum-verify and deserialize every stage's weight dict."""
        from repro.core.types import STAGE_SPECS

        with observability.span("bundle.load"):
            return {stage.value: self._load_arrays(f"{STAGES_DIR}/{stage.value}.npz")
                    for stage in STAGE_SPECS}

    # -- saving ------------------------------------------------------------------

    @classmethod
    def save(cls, directory: str | Path, *, config: CatiConfig,
             embedding: "Word2Vec", classifier: "MultiStageClassifier",
             provenance: dict | None = None) -> "ModelBundle":
        """Write a complete bundle atomically (temp dir + rename swap).

        Overwrites an existing bundle at ``directory`` only once the
        replacement is fully on disk.
        """
        directory = Path(directory)
        parent = directory.resolve().parent
        parent.mkdir(parents=True, exist_ok=True)
        staging = parent / f".{directory.name}.tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        with observability.span("bundle.save"):
            try:
                (staging / STAGES_DIR).mkdir(parents=True)
                payloads: dict[str, dict[str, np.ndarray]] = {
                    EMBEDDING_FILE: embedding.get_state(),
                }
                for stage_name, state in classifier.get_state().items():
                    payloads[f"{STAGES_DIR}/{stage_name}.npz"] = state
                files: dict[str, dict] = {}
                for name, arrays in payloads.items():
                    path = staging / name
                    np.savez_compressed(path, **arrays)
                    files[name] = {
                        "sha256": _sha256(path),
                        "bytes": path.stat().st_size,
                        "tensors": _npz_shapes(arrays),
                    }
                stamped = dict(provenance or {})
                # Which code version wrote the bundle; surfaced by
                # `model inspect` and the serving daemon's /healthz.
                stamped.setdefault("repro_version", _repro_version())
                manifest = {
                    "format": BUNDLE_FORMAT,
                    "schema_version": SCHEMA_VERSION,
                    "created_at": _utc_now(),
                    "config": config.to_dict(),
                    "vocab_size": len(embedding.vocab),
                    "files": files,
                    "provenance": stamped,
                }
                # The manifest lands last: an interrupted save leaves a
                # temp dir that is not even recognizable as a bundle.
                (staging / MANIFEST_NAME).write_text(
                    json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
                cls._swap_into_place(staging, directory)
            except ArtifactError:
                shutil.rmtree(staging, ignore_errors=True)
                raise
            except Exception as error:
                shutil.rmtree(staging, ignore_errors=True)
                raise ArtifactError(
                    f"bundle save failed: {error}",
                    path=str(directory), stage="artifacts") from error
        observability.inc("bundle.saves")
        return cls(directory, manifest)

    @staticmethod
    def _swap_into_place(staging: Path, directory: Path) -> None:
        """Atomically promote ``staging`` to ``directory``.

        Delegates to :func:`repro.core.fsutil.atomic_replace_dir`, the
        shared rename-aside swap (with directory-entry fsync) every
        persistence path uses.
        """
        fsutil.atomic_replace_dir(staging, directory)

    # -- reporting -----------------------------------------------------------------

    def describe(self) -> str:
        """Human-readable manifest summary for ``model inspect``."""
        manifest = self.manifest
        provenance = manifest.get("provenance") or {}
        lines = [
            f"bundle:         {self.directory}",
            f"format:         {manifest['format']} "
            f"(schema v{manifest['schema_version']})",
            f"created:        {manifest.get('created_at', '?')} "
            f"by repro {provenance.get('repro_version', '?')}",
            f"vocab size:     {manifest['vocab_size']}",
        ]
        config = manifest["config"]
        structural = ", ".join(f"{name}={config.get(name)!r}"
                               for name in STRUCTURAL_FIELDS)
        lines.append(f"config:         {structural}")
        if provenance:
            detail = ", ".join(f"{key}={value}"
                               for key, value in sorted(provenance.items()))
            lines.append(f"provenance:     {detail}")
        lines.append("files:")
        for name, entry in sorted(manifest["files"].items()):
            shapes = ", ".join(
                f"{key}{tuple(shape)}"
                for key, shape in sorted(entry.get("tensors", {}).items()))
            lines.append(f"  {name:24s} {entry['bytes']:>9d} B  "
                         f"sha256 {entry['sha256'][:12]}...  [{shapes}]")
        return "\n".join(lines)


def provenance_from_training(n_vucs: int, vocab_size: int) -> dict:
    """The standard provenance dict ``Cati.train`` stamps onto bundles."""
    return {
        "trained_at": _utc_now(),
        "n_train_vucs": int(n_vucs),
        "vocab_size": int(vocab_size),
        "repro_version": _repro_version(),
    }


__all__ = [
    "BUNDLE_FORMAT",
    "EMBEDDING_FILE",
    "MANIFEST_NAME",
    "SCHEMA_VERSION",
    "STAGES_DIR",
    "STRUCTURAL_FIELDS",
    "ModelBundle",
    "provenance_from_training",
]
