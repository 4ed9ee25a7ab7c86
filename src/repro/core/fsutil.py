"""Crash-safe filesystem primitives shared by every persistence path.

Three places used to hand-roll "write a temp file next to the target and
rename it into place": the CLI's ``--metrics-out`` dump, the model
bundle's directory swap, and a batch job's ``job.json`` and
``results.json``.  They now share these helpers, which add the two details the ad-hoc versions
skipped:

* the temp file is **fsynced before the rename**, so a power cut right
  after ``os.replace`` cannot leave a named-but-empty file on
  journaling filesystems that reorder data behind metadata;
* the **parent directory entry is fsynced after the rename**, making the
  rename itself durable, not just the bytes.

Contract: after :func:`atomic_write` / :func:`atomic_replace_dir`
returns, a reader at the target path sees either the complete old
content or the complete new content — never a torn mix — and a crash at
any point leaves at most a stray ``.*.tmp*`` sibling, never a damaged
target.  Temp files are always created in the target's directory so the
final ``os.replace`` is a same-filesystem rename (cross-device renames
raise ``EXDEV`` and are not atomic anyway).
"""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path

__all__ = ["atomic_write", "atomic_replace_dir", "fsync_dir"]


def fsync_dir(path: str | Path) -> None:
    """Best-effort fsync of a directory entry (no-op where unsupported)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(path: str | Path, data: bytes | str, *,
                 encoding: str = "utf-8") -> None:
    """Atomically replace ``path`` with ``data`` (same-dir temp + rename).

    Parent directories are created as needed.  ``str`` data is encoded
    with ``encoding``.
    """
    path = Path(path)
    directory = path.absolute().parent
    directory.mkdir(parents=True, exist_ok=True)
    if isinstance(data, str):
        data = data.encode(encoding)
    fd, temp_name = tempfile.mkstemp(dir=directory,
                                     prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    fsync_dir(directory)


def atomic_replace_dir(staging: str | Path, target: str | Path) -> None:
    """Atomically promote the ``staging`` directory to ``target``.

    ``os.rename`` cannot replace a non-empty directory, so an existing
    target is first renamed aside (to a sibling of ``staging``) and
    removed only after the new directory is in place; a crash between
    the two renames leaves the new content at ``target`` and a stray
    ``*.old`` sibling, never a missing or half-swapped target.
    """
    staging = Path(staging)
    target = Path(target)
    if target.exists():
        doomed = staging.with_name(staging.name + ".old")
        os.rename(target, doomed)
        os.rename(staging, target)
        shutil.rmtree(doomed, ignore_errors=True)
    else:
        os.rename(staging, target)
    fsync_dir(target.absolute().parent)
