"""Batch job specs: what to analyze, how to shard it, how to fail.

A *job spec* is the durable, declarative half of a batch run: the corpus
manifest, the sharding, and the failure policy.  Everything else (the
resolved config snapshot, the model identity, checkpoint state) is
recorded by :class:`~repro.batch.job.BatchJobStore` when the job is
created, so a resume can re-derive the exact same work from disk alone.

Corpus manifests are JSON — either ``{"items": [...]}`` or a bare list —
with two item kinds:

``{"kind": "demo", "seed": 7, "compiler": "gcc", "opt_level": 1}``
    Compile one deterministic demo program (the serve daemon's demo
    path): requires a compiler on PATH, used by tests and benchmarks.

``{"kind": "file", "path": "job-001.json"}``
    A pre-disassembled binary in the serve wire format (``binary`` +
    ``extents`` keys, see :mod:`repro.serve.protocol`); relative paths
    resolve against the manifest's own directory.

Canonical hashing: :func:`canonical_json` + :func:`sha256_hex` define
the one serialization used for every integrity digest in the batch
subsystem (shard input hashes, checkpoint self-checksums, config
snapshots), so "same bytes" always means "same digest".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path

from repro.core.errors import BatchError

#: Valid per-shard failure policies (mirrors handle_failure's contract).
ON_ERROR_POLICIES = ("raise", "skip")


def canonical_json(obj) -> str:
    """The one canonical JSON form digests are computed over."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return sha256(data).hexdigest()


@dataclass(frozen=True)
class ManifestItem:
    """One corpus entry: a binary-to-analyze and how to obtain it."""

    kind: str                 # "demo" | "file"
    name: str                 # display / failure-report label
    seed: int = 0             # demo: codegen seed
    compiler: str = "gcc"     # demo: toolchain
    opt_level: int = 1        # demo: -O level
    path: str = ""            # file: wire-format JSON (manifest-relative)

    def to_dict(self) -> dict:
        if self.kind == "demo":
            return {"kind": "demo", "name": self.name, "seed": self.seed,
                    "compiler": self.compiler, "opt_level": self.opt_level}
        return {"kind": "file", "name": self.name, "path": self.path}

    @classmethod
    def from_dict(cls, data: object, *, base_dir: Path | None = None) -> "ManifestItem":
        if not isinstance(data, dict):
            raise BatchError(f"manifest item must be an object, got {data!r}",
                             stage="batch")
        kind = data.get("kind")
        try:
            if kind == "demo":
                seed = int(data.get("seed", 0))
                return cls(kind="demo",
                           name=str(data.get("name") or f"demo-{seed}"),
                           seed=seed,
                           compiler=str(data.get("compiler", "gcc")),
                           opt_level=int(data.get("opt_level", 1)))
            if kind == "file":
                raw = data.get("path")
                if not raw:
                    raise BatchError("manifest 'file' item needs a 'path'",
                                     stage="batch")
                path = Path(str(raw))
                if base_dir is not None and not path.is_absolute():
                    path = base_dir / path
                return cls(kind="file",
                           name=str(data.get("name") or path.stem),
                           path=str(path))
        except (TypeError, ValueError) as error:
            raise BatchError(f"bad manifest item {data!r}: {error}",
                             stage="batch") from error
        raise BatchError(
            f"manifest item kind must be 'demo' or 'file', got {kind!r}",
            stage="batch")

    def load(self):
        """Materialize ``(stripped Binary, extents_by_function)``.

        Wrapped by the runner's per-shard error handling; raises the
        pipeline's own typed errors (ToolchainError for a missing
        compiler, BatchError for a bad wire file).
        """
        if self.kind == "demo":
            from repro.codegen.compilers import compiler_by_name
            from repro.codegen.strip import strip
            from repro.experiments.speed import extents_from_debug

            compiler = compiler_by_name(self.compiler)
            binary = compiler.compile_fresh(
                seed=self.seed, name=self.name, opt_level=self.opt_level)
            return strip(binary), extents_from_debug(binary)
        from repro.serve.protocol import binary_from_wire, extents_from_wire

        try:
            body = json.loads(Path(self.path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            raise BatchError(
                f"manifest item {self.name!r}: cannot read wire file "
                f"{self.path}: {error}", stage="batch") from error
        if not isinstance(body, dict) or "binary" not in body:
            raise BatchError(
                f"manifest item {self.name!r}: {self.path} is not a wire-"
                "format job (expected an object with a 'binary' key)",
                stage="batch")
        stripped = binary_from_wire(body["binary"])
        extents = extents_from_wire(body.get("extents") or [])
        if len(extents) != len(stripped.functions):
            raise BatchError(
                f"manifest item {self.name!r}: {len(extents)} extents "
                f"entries for {len(stripped.functions)} functions",
                stage="batch")
        return stripped, extents


@dataclass(frozen=True)
class JobSpec:
    """The declarative half of a batch job (persisted into ``job.json``)."""

    items: tuple[ManifestItem, ...] = field(default=())
    shard_size: int = 4
    on_error: str = "skip"
    max_retries: int = 1      # re-tries per shard before quarantine
    structs: bool = False     # run the posterior struct-recovery stage

    def __post_init__(self) -> None:
        if self.on_error not in ON_ERROR_POLICIES:
            raise BatchError(
                f"on_error must be one of {ON_ERROR_POLICIES}, "
                f"got {self.on_error!r}", stage="batch")
        if self.shard_size < 1:
            raise BatchError("shard_size must be >= 1", stage="batch")
        if self.max_retries < 0:
            raise BatchError("max_retries must be >= 0", stage="batch")
        if not self.items:
            raise BatchError("job has no manifest items", stage="batch")

    def to_dict(self) -> dict:
        return {
            "items": [item.to_dict() for item in self.items],
            "shard_size": self.shard_size,
            "on_error": self.on_error,
            "max_retries": self.max_retries,
            "structs": self.structs,
        }

    @classmethod
    def from_dict(cls, data: object) -> "JobSpec":
        """Build a spec from ``job.json``; unknown keys are ignored, so a
        job written with the retired ``backoff``/``jitter``/``seed``
        retry settings still resumes."""
        if not isinstance(data, dict):
            raise BatchError(f"job spec must be an object, got {data!r}",
                             stage="batch")
        try:
            return cls(
                items=tuple(ManifestItem.from_dict(item)
                            for item in data.get("items", [])),
                shard_size=int(data.get("shard_size", 4)),
                on_error=str(data.get("on_error", "skip")),
                max_retries=int(data.get("max_retries", 1)),
                structs=bool(data.get("structs", False)),
            )
        except (TypeError, ValueError) as error:
            raise BatchError(f"bad job spec: {error}",
                             stage="batch") from error

    def shards(self) -> list[tuple[ManifestItem, ...]]:
        """The job's work units, in deterministic manifest order."""
        return [self.items[i:i + self.shard_size]
                for i in range(0, len(self.items), self.shard_size)]

    def shard_inputs_sha256(self, shard_index: int, model_key: str) -> str:
        """Integrity digest binding a shard's inputs to a model.

        Covers the shard's item dicts *and* the model bundle's content
        key, so either a manifest edit or a retrained model invalidates
        the shard's checkpoint automatically.
        """
        shard = self.shards()[shard_index]
        body = {"items": [item.to_dict() for item in shard],
                "model_key": model_key}
        return sha256_hex(canonical_json(body))


def load_manifest(path: str | Path) -> tuple[ManifestItem, ...]:
    """Parse a corpus manifest file into validated items."""
    path = Path(path)
    try:
        body = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise BatchError(f"cannot read manifest {path}: {error}",
                         stage="batch") from error
    items = body.get("items") if isinstance(body, dict) else body
    if not isinstance(items, list):
        raise BatchError(
            f"manifest {path} must be a list or an object with 'items'",
            stage="batch")
    return tuple(ManifestItem.from_dict(item, base_dir=path.parent)
                 for item in items)


def demo_corpus(count: int, *, compiler: str = "gcc", opt_level: int = 1,
                base_seed: int = 100) -> tuple[ManifestItem, ...]:
    """``count`` deterministic demo items (tests, benchmarks)."""
    if count < 1:
        raise BatchError("demo corpus needs count >= 1", stage="batch")
    return tuple(
        ManifestItem(kind="demo", name=f"demo-{base_seed + i}",
                     seed=base_seed + i, compiler=compiler,
                     opt_level=opt_level)
        for i in range(count))
