"""Hardened external-tool runner.

One malformed input can make ``objdump`` hang and one loaded CI box can
make ``gcc`` time out transiently; :func:`run_tool` turns both into
either a bounded retry or a typed :class:`~repro.core.errors.ToolchainError`
that captures the tool name, exit code and stderr instead of an opaque
``CalledProcessError``.

Policy:

* a **missing tool** (``FileNotFoundError``) fails immediately with
  ``missing=True`` — retrying cannot install gcc;
* a **timeout or OS-level hiccup** is transient: retried up to
  ``retries`` times with exponential backoff (``backoff * 2**attempt``);
* a **non-zero exit** is deterministic tool behaviour: no retry, the
  captured stderr rides along in the error.

``runner``/``sleep`` are injection points used by the fault harness
(``tests/faultinject.py``) to simulate hangs and flaky tools without
real subprocesses.

Contract: callers get either a :class:`ToolResult` (success, with
stdout/stderr decoded and the attempt count) or a
:class:`~repro.core.errors.ToolchainError` — never a raw
``CalledProcessError`` / ``TimeoutExpired`` / ``FileNotFoundError``.
Every invocation is also accounted into the global metrics registry:
``toolchain.runs`` / ``toolchain.runs.<tool>``, ``toolchain.retries``,
``toolchain.backoff_s`` (total seconds slept), ``toolchain.failures``
(+ ``toolchain.missing`` for absent tools), and a per-tool wall-clock
span ``toolchain.<tool>``.
"""

from __future__ import annotations

import os.path
import shutil
import subprocess
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

from repro.core import observability
from repro.core.errors import ToolchainError

#: Default wall-clock budget per tool invocation (seconds).
DEFAULT_TOOL_TIMEOUT = 60.0

#: Default number of *re*-tries after a transient failure.
DEFAULT_TOOL_RETRIES = 2


@dataclass(frozen=True)
class ToolResult:
    """One successful tool run."""

    tool: str
    argv: tuple[str, ...]
    returncode: int
    stdout: str
    stderr: str
    attempts: int


def retry_delays(backoff: float, retries: int) -> Iterator[float]:
    """The exponential backoff schedule: ``retries`` delays of
    ``backoff * 2**attempt``.

    Shared by :func:`run_tool`, the serve client and ``repro.batch``'s
    shard retry so every retry loop in the system backs off the same way.
    """
    for attempt in range(retries):
        yield backoff * (2 ** attempt)


def which_missing(tools: Sequence[str]) -> tuple[str, ...]:
    """The subset of ``tools`` not found on PATH."""
    return tuple(tool for tool in tools if shutil.which(tool) is None)


def run_tool(
    argv: Sequence[str],
    *,
    timeout: float | None = DEFAULT_TOOL_TIMEOUT,
    retries: int = DEFAULT_TOOL_RETRIES,
    backoff: float = 0.1,
    check: bool = True,
    binary: str | None = None,
    stage: str = "toolchain",
    runner: Callable | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> ToolResult:
    """Run one external tool with timeout, bounded retry, and typed errors.

    Transient failures back off on the :func:`retry_delays` schedule.
    """
    argv = [str(arg) for arg in argv]
    tool = argv[0]
    delays = list(retry_delays(backoff, retries))
    run = runner if runner is not None else subprocess.run
    registry = observability.get_registry()
    tool_label = os.path.basename(tool)
    registry.inc("toolchain.runs")
    registry.inc(f"toolchain.runs.{tool_label}")
    last_transient: Exception | None = None
    attempts = 0
    with registry.span(f"toolchain.{tool_label}"):
        for attempt in range(retries + 1):
            attempts = attempt + 1
            try:
                completed = run(argv, capture_output=True, text=True, timeout=timeout)
            except FileNotFoundError as exc:
                registry.inc("toolchain.failures")
                registry.inc("toolchain.missing")
                raise ToolchainError(
                    f"tool {tool!r} not found on PATH",
                    tool=tool, missing=True, missing_tools=(tool,),
                    binary=binary, stage=stage,
                ) from exc
            except subprocess.TimeoutExpired as exc:
                last_transient = exc
            except OSError as exc:
                last_transient = exc
            else:
                if completed.returncode != 0 and check:
                    registry.inc("toolchain.failures")
                    raise ToolchainError(
                        f"{tool} exited with status {completed.returncode}",
                        tool=tool, returncode=completed.returncode,
                        stderr=_decode(completed.stderr), binary=binary, stage=stage,
                    )
                return ToolResult(
                    tool=tool, argv=tuple(argv), returncode=completed.returncode,
                    stdout=_decode(completed.stdout), stderr=_decode(completed.stderr),
                    attempts=attempts,
                )
            if attempt < retries:
                delay = delays[attempt]
                registry.inc("toolchain.retries")
                registry.inc("toolchain.backoff_s", delay)
                sleep(delay)
    registry.inc("toolchain.failures")
    assert last_transient is not None
    stderr = ""
    if isinstance(last_transient, subprocess.TimeoutExpired):
        stderr = _decode(last_transient.stderr)
        message = (f"{tool} timed out after {timeout}s "
                   f"({attempts} attempt(s))")
    else:
        message = (f"{tool} failed transiently after {attempts} attempt(s): "
                   f"{last_transient}")
    error = ToolchainError(message, tool=tool, stderr=stderr,
                           binary=binary, stage=stage)
    raise error from last_transient


def _decode(stream) -> str:
    if stream is None:
        return ""
    if isinstance(stream, bytes):
        return stream.decode("utf-8", "replace")
    return str(stream)
