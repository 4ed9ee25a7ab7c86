"""Process-wide interning of generalized instruction triples.

The generalization step (§IV-B) collapses binary-specific values into a
small closed vocabulary of token triples — the *same-type clustering
phenomenon* (§VI) means real corpora produce the same few thousand
distinct triples over and over.  Interning gives every distinct triple
one canonical :class:`InternedTokens` object carrying a dense integer
``intern_id``, assigned at parse/disassembly time:

* encoders map ``intern_id → vocabulary id-triple`` through a flat
  array instead of hashing token strings per instruction, so hot
  corpora skip the string memo entirely;
* the serving path's packed decoder (``"mn\\top1\\top2"`` lines) memoizes
  raw lines straight to interned triples, so a request decodes into one
  token stream without building throwaway tuples;
* equality and dict/set membership degrade gracefully: an
  ``InternedTokens`` *is* a tuple, so uninterned triples from tests or
  external callers still compare equal and hash identically.

Ids are **per-process**: a forked worker inherits the parent's table
copy-on-write and both sides keep their ids consistent for everything
interned before the fork; triples interned after the fork get
process-local ids, which is safe because ids never cross process
boundaries (pickling an :class:`InternedTokens` re-interns on load —
see :meth:`InternedTokens.__reduce__`).

Thread-safety: lookups are GIL-atomic dict reads; inserts take the
module lock so an id is assigned exactly once per process.
"""

from __future__ import annotations

import threading

#: Token triple type: (mnemonic, operand1, operand2).
Triple = tuple[str, str, str]


class InternedTokens(tuple):
    """A canonical token triple with a dense per-process ``intern_id``.

    A plain ``tuple`` subclass (tuple subclasses cannot carry nonempty
    ``__slots__``, so the id lives in the instance dict), equal and
    hash-compatible with the uninterned triple.
    """

    intern_id: int

    def __reduce__(self):
        # Re-intern on unpickle so ids stay per-process-consistent when
        # windows cross a process boundary.
        return (intern_tokens, (tuple(self),))


_lock = threading.Lock()
_by_triple: dict[Triple, InternedTokens] = {}
_by_id: list[InternedTokens] = []
#: Packed-line memo ("mn\top1\top2" → interned triple) for the serving
#: wire format; shares the id space with the triple table.
_by_line: dict[str, InternedTokens] = {}


def intern_tokens(triple: tuple) -> InternedTokens:
    """The canonical interned object for a (mnemonic, op1, op2) triple."""
    found = _by_triple.get(triple)
    if found is not None:
        return found
    with _lock:
        found = _by_triple.get(triple)
        if found is None:
            found = InternedTokens(triple)
            found.intern_id = len(_by_id)
            _by_id.append(found)
            _by_triple[tuple(triple)] = found
        return found


def intern_line(line: str) -> InternedTokens:
    """Intern one packed wire line (three tab-separated tokens).

    The line memo makes the serving hot path a single dict hit per
    instruction; only *distinct* lines are ever split into tokens.
    """
    found = _by_line.get(line)
    if found is not None:
        return found
    parts = line.split("\t")
    if len(parts) != 3:
        raise ValueError(
            f"packed instruction must be 3 tab-separated tokens, got {line!r}")
    found = intern_tokens((parts[0], parts[1], parts[2]))
    with _lock:
        _by_line.setdefault(line, found)
    return found


def intern_count() -> int:
    """Distinct triples interned so far in this process."""
    return len(_by_id)


def interned_by_id(intern_id: int) -> InternedTokens:
    """The triple behind a dense id (ids are never recycled)."""
    return _by_id[intern_id]
