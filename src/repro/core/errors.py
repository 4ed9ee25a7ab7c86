"""Structured error taxonomy + machine-readable failure reporting.

Everything the pipeline can throw at a caller derives from
:class:`CatiError`, which carries *where* the failure happened
(binary / function / stage) alongside the message:

::

    CatiError
    ├── ToolchainError   external tool missing, crashed, or timed out
    ├── DecodeError      malformed ELF bytes / undecodable instructions
    │   └── repro.elf.parser.ElfParseError
    │   └── repro.disasm.decoder.DecodeError
    ├── DwarfError       malformed or truncated debug information
    │   └── repro.dwarf.native.NativeDwarfError
    │   └── repro.dwarf.decode.DwarfDecodeError
    ├── InferenceError   extraction / voting failures
    ├── ArtifactError    model-bundle persistence failures
    │   ├── BundleSchemaError     missing/malformed manifest, unknown schema
    │   ├── BundleIntegrityError  checksum/shape mismatch, missing payload
    │   └── ConfigMismatchError   caller config conflicts with the saved one
    ├── BatchError       batch-job failures (repro.batch): bad spec or
    │                    manifest, unresumable job dir, exhausted shard
    └── ServeError       inference-service failures (repro.serve)
        ├── RequestError          malformed/undecodable request payload
        ├── QueueFullError        admission control rejected the request
        ├── DeadlineExceededError request deadline elapsed before completion
        ├── ServerClosedError     the daemon is draining or stopped
        └── SessionGoneError      unknown/expired/evicted analysis session

The concrete subclasses double-inherit ``ValueError`` so existing
``except ValueError`` call sites (and tests) keep working.

The skip-and-record side of the house lives here too:
:func:`check_on_error` validates the ``on_error="raise"|"skip"`` policy
knob, :class:`FailureReport` accumulates :class:`FailureRecord` entries
(counts + exemplar tracebacks, serializable via ``to_dict``), and
:func:`handle_failure` implements the policy at every degradation point.

Contract: every degradation point in the pipeline funnels through
:func:`handle_failure` with an explicit ``stage`` name; with
``on_error="raise"`` the exception always leaves as a :class:`CatiError`
subclass with its failure site attached, and with ``"skip"`` a
:class:`FailureRecord` is always produced (and counted into the global
metrics registry as ``failures.total`` / ``failures.stage.<stage>`` /
``failures.kind.<kind>``) so no skip is ever silent.  See
``docs/OPERATIONS.md`` for how to read a report.
"""

from __future__ import annotations

import traceback as _traceback
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core import observability

ON_ERROR_VALUES = ("raise", "skip")


def check_on_error(on_error: str) -> str:
    """Validate the skip-policy knob; returns it for chaining."""
    if on_error not in ON_ERROR_VALUES:
        raise ValueError(
            f"on_error must be one of {ON_ERROR_VALUES}, got {on_error!r}")
    return on_error


class CatiError(Exception):
    """Root of the pipeline error taxonomy.

    Carries the failure site: which binary, which function, and which
    pipeline stage (``"toolchain"``, ``"elf"``, ``"decode"``,
    ``"dwarf"``, ``"extract"``, ``"classify"``, ...).
    """

    def __init__(self, message: str, *, binary: str | None = None,
                 function: str | None = None, stage: str | None = None) -> None:
        super().__init__(message)
        self.message = message
        self.binary = binary
        self.function = function
        self.stage = stage

    def context(self) -> dict[str, str]:
        """The non-empty failure-site fields as a dict."""
        pairs = (("binary", self.binary), ("function", self.function),
                 ("stage", self.stage))
        return {key: value for key, value in pairs if value is not None}

    def with_context(self, *, binary: str | None = None,
                     function: str | None = None,
                     stage: str | None = None) -> "CatiError":
        """Fill in missing failure-site fields (never overwrites)."""
        self.binary = self.binary if self.binary is not None else binary
        self.function = self.function if self.function is not None else function
        self.stage = self.stage if self.stage is not None else stage
        return self

    def __str__(self) -> str:
        context = self.context()
        if not context:
            return self.message
        where = ", ".join(f"{key}={value}" for key, value in context.items())
        return f"{self.message} [{where}]"


class ToolchainError(CatiError):
    """An external tool is missing, crashed, or timed out.

    ``missing`` is the skip-friendly flag: tests can catch a
    ToolchainError and ``pytest.skip`` when the tool simply is not
    installed, while treating crashes/timeouts as real failures.
    """

    def __init__(self, message: str, *, tool: str | None = None,
                 returncode: int | None = None, stderr: str = "",
                 missing: bool = False, missing_tools: tuple[str, ...] = (),
                 **kwargs) -> None:
        super().__init__(message, **kwargs)
        self.tool = tool
        self.returncode = returncode
        self.stderr = stderr
        self.missing = missing
        self.missing_tools = tuple(missing_tools)


class DecodeError(CatiError, ValueError):
    """Malformed ELF bytes or undecodable machine code."""


class DwarfError(CatiError, ValueError):
    """Malformed, truncated, or unsupported debug information."""


class InferenceError(CatiError, ValueError):
    """Extraction or voting failure during inference."""


class ArtifactError(CatiError):
    """A model bundle is missing, malformed, or failed verification.

    ``path`` is the bundle directory (or file) the failure is about;
    it also rides along in :meth:`CatiError.context` output.
    """

    def __init__(self, message: str, *, path: str | None = None, **kwargs) -> None:
        super().__init__(message, **kwargs)
        self.path = path

    def context(self) -> dict[str, str]:
        out = super().context()
        if self.path is not None:
            out["path"] = self.path
        return out


class BundleSchemaError(ArtifactError):
    """The manifest is missing, unparseable, or a foreign/stale schema."""


class BundleIntegrityError(ArtifactError):
    """A payload file is missing, tampered with, or mis-shaped."""


class ConfigMismatchError(ArtifactError):
    """The caller's config conflicts with the bundle's saved config.

    ``mismatches`` maps each conflicting field name to its
    ``(saved, given)`` value pair.
    """

    def __init__(self, message: str, *, mismatches: dict[str, tuple] | None = None,
                 **kwargs) -> None:
        super().__init__(message, **kwargs)
        self.mismatches = dict(mismatches or {})


class BatchError(CatiError, ValueError):
    """A batch job is malformed, unresumable, or exhausted its retries.

    ``job_dir`` is the job directory the failure is about and ``shard``
    the shard index (when shard-scoped); both ride along in
    :meth:`CatiError.context` output.
    """

    def __init__(self, message: str, *, job_dir: str | None = None,
                 shard: int | None = None, **kwargs) -> None:
        super().__init__(message, **kwargs)
        self.job_dir = job_dir
        self.shard = shard

    def context(self) -> dict[str, str]:
        out = super().context()
        if self.job_dir is not None:
            out["job_dir"] = self.job_dir
        if self.shard is not None:
            out["shard"] = str(self.shard)
        return out


class ServeError(CatiError):
    """The inference service could not complete a request.

    ``status`` is the HTTP status code the daemon maps the failure to,
    so the error → response translation lives with the taxonomy instead
    of being scattered over handler code.
    """

    status: int = 500

    def __init__(self, message: str, *, status: int | None = None, **kwargs) -> None:
        super().__init__(message, **kwargs)
        if status is not None:
            self.status = status


class RequestError(ServeError, ValueError):
    """The request payload is malformed or names an unknown job kind."""

    status = 400


class QueueFullError(ServeError):
    """Admission control rejected the request (queue at capacity).

    ``retry_after_s`` is the server's backoff hint, surfaced to clients
    as the ``Retry-After`` response header.
    """

    status = 503

    def __init__(self, message: str, *, retry_after_s: float = 1.0, **kwargs) -> None:
        super().__init__(message, **kwargs)
        self.retry_after_s = max(float(retry_after_s), 0.0)


class DeadlineExceededError(ServeError):
    """The per-request deadline elapsed before the work completed."""

    status = 504


class ServerClosedError(ServeError):
    """The daemon is draining (SIGTERM) or already stopped."""

    status = 503


class SessionGoneError(ServeError):
    """The referenced analysis session does not exist on this server.

    Covers every way a session id can stop resolving — TTL expiry, LRU
    eviction, an explicit close, a worker crash/respawn that emptied the
    store, or an id that never existed.  410 (Gone) by design: the
    condition is *retriable by re-opening*, and clients
    (:class:`repro.serve.client.SessionHandle`, ``repro repl``) treat it
    exactly that way.
    """

    status = 410


#: Which taxonomy class wraps a foreign exception raised at each stage.
_STAGE_WRAPPERS: dict[str, type[CatiError]] = {
    "toolchain": ToolchainError,
    "lower": ToolchainError,
    "elf": DecodeError,
    "decode": DecodeError,
    "dwarf": DwarfError,
    "artifacts": ArtifactError,
    "serve": ServeError,
    "batch": BatchError,
}


def as_cati_error(exc: BaseException, *, stage: str,
                  binary: str | None = None,
                  function: str | None = None) -> CatiError:
    """Coerce any exception into the taxonomy with failure-site context.

    A CatiError passes through (missing context filled in); anything
    else is wrapped by the stage's taxonomy class with ``__cause__``
    preserved.
    """
    if isinstance(exc, CatiError):
        return exc.with_context(binary=binary, function=function, stage=stage)
    wrapper = _STAGE_WRAPPERS.get(stage, InferenceError)
    wrapped = wrapper(f"{type(exc).__name__}: {exc}", binary=binary,
                      function=function, stage=stage)
    wrapped.__cause__ = exc
    return wrapped


# -- failure reporting --------------------------------------------------------


@dataclass(frozen=True)
class FailureRecord:
    """One recorded (skipped) failure."""

    stage: str
    kind: str            # exception class name
    message: str
    binary: str | None = None
    function: str | None = None
    traceback: str = ""

    def to_dict(self) -> dict:
        """Full JSON-ready form (traceback included) — the checkpoint
        serialization; :meth:`from_dict` is the exact inverse."""
        return {
            "stage": self.stage,
            "kind": self.kind,
            "message": self.message,
            "binary": self.binary,
            "function": self.function,
            "traceback": self.traceback,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FailureRecord":
        """Rebuild a record from :meth:`to_dict` output.

        Does *not* re-count the failure into the metrics registry — the
        record was counted when it was first created; deserializing a
        checkpoint must not inflate failure totals.
        """
        return cls(
            stage=str(data.get("stage", "?")),
            kind=str(data.get("kind", "?")),
            message=str(data.get("message", "")),
            binary=data.get("binary"),
            function=data.get("function"),
            traceback=str(data.get("traceback", "")),
        )

    @classmethod
    def from_exception(cls, exc: BaseException, *, stage: str,
                       binary: str | None = None,
                       function: str | None = None) -> "FailureRecord":
        if isinstance(exc, CatiError):
            binary = binary if binary is not None else exc.binary
            function = function if function is not None else exc.function
        registry = observability.get_registry()
        if registry.enabled:
            registry.inc("failures.total")
            registry.inc(f"failures.stage.{stage}")
            registry.inc(f"failures.kind.{type(exc).__name__}")
        return cls(
            stage=stage,
            kind=type(exc).__name__,
            message=str(exc),
            binary=binary,
            function=function,
            traceback="".join(_traceback.format_exception(exc)),
        )


@dataclass
class FailureReport:
    """Machine-readable account of everything a run skipped.

    Accumulates :class:`FailureRecord` entries and summarizes them as
    per-stage / per-kind counts plus one exemplar traceback per kind.
    """

    records: list[FailureRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __bool__(self) -> bool:
        return bool(self.records)

    def __iter__(self):
        return iter(self.records)

    def record(self, exc: BaseException, *, stage: str,
               binary: str | None = None,
               function: str | None = None) -> FailureRecord:
        entry = FailureRecord.from_exception(
            exc, stage=stage, binary=binary, function=function)
        self.records.append(entry)
        return entry

    def extend(self, other: "FailureReport") -> None:
        self.records.extend(other.records)

    @classmethod
    def from_records(cls, records: "Iterable[dict]") -> "FailureReport":
        """Rebuild a report from a list of :meth:`FailureRecord.to_dict`
        dicts (the checkpoint serialization)."""
        return cls(records=[FailureRecord.from_dict(r) for r in records])

    def records_to_dicts(self) -> list[dict]:
        """Every record in full (:meth:`FailureRecord.to_dict`) form."""
        return [record.to_dict() for record in self.records]

    def by_stage(self) -> dict[str, int]:
        return dict(Counter(r.stage for r in self.records))

    def by_kind(self) -> dict[str, int]:
        return dict(Counter(r.kind for r in self.records))

    def exemplars(self) -> dict[str, str]:
        """One exemplar traceback per failure kind (first occurrence)."""
        out: dict[str, str] = {}
        for record in self.records:
            out.setdefault(record.kind, record.traceback)
        return out

    def to_dict(self) -> dict:
        """JSON-ready summary: totals, per-stage/kind counts, records."""
        return {
            "total": len(self.records),
            "by_stage": self.by_stage(),
            "by_kind": self.by_kind(),
            "records": [
                {"stage": r.stage, "kind": r.kind, "message": r.message,
                 "binary": r.binary, "function": r.function}
                for r in self.records
            ],
            "exemplars": self.exemplars(),
        }

    def summary(self) -> str:
        if not self.records:
            return "no failures"
        stages = ", ".join(f"{stage}:{count}"
                           for stage, count in sorted(self.by_stage().items()))
        return f"{len(self.records)} failure(s) ({stages})"


def handle_failure(exc: BaseException, *, on_error: str,
                   failures: FailureReport | None, stage: str,
                   binary: str | None = None,
                   function: str | None = None) -> FailureRecord | None:
    """Apply the skip policy at one degradation point.

    ``on_error="raise"`` re-raises the exception coerced into the
    taxonomy (with failure-site context attached); ``"skip"`` records it
    into ``failures`` (when given) and returns the record so the caller
    can continue with partial results.
    """
    check_on_error(on_error)
    if on_error == "raise":
        observability.inc("failures.raised")
        error = as_cati_error(exc, stage=stage, binary=binary, function=function)
        if error is exc:
            raise error
        raise error from exc
    if failures is not None:
        return failures.record(exc, stage=stage, binary=binary, function=function)
    return FailureRecord.from_exception(
        exc, stage=stage, binary=binary, function=function)
