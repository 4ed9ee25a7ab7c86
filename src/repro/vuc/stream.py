"""Per-binary token streams: every VUC window as a center offset.

A VUC (§II-A) is a target instruction with ``w`` instructions on either
side, BLANK-padded at function boundaries.  Neighbouring targets'
windows overlap almost entirely, so generalizing each window on its own
touches every instruction about ``2w`` times.  A :class:`VucStream`
instead generalizes each instruction that some window covers exactly
once, into one token stream per binary laid out as::

    BLANK*w | function a | BLANK*w | function b | BLANK*w | ...

A window is then only its center offset ``c``: ``tokens[c-w : c+w+1]``
is the tuple :func:`~repro.vuc.generalize.generalize_window` builds
from :func:`~repro.vuc.context.extract_vuc`, because the ``w`` BLANKs
between functions are exactly its boundary padding.  The encoder maps
the stream to vocabulary ids once and gathers the ``[N, 2w+1, 3]`` id
tensor by index (:meth:`repro.embedding.encoder.VucEncoder.encode_stream`).

Instructions no window covers are never generalized: their slots hold
BLANK and no window reads them.  Rows run function → variable group →
target, the order variable ids, votes and cache keys depend on.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.asm.instruction import FunctionListing, Instruction
from repro.codegen.binary import Binary
from repro.core import observability
from repro.core.errors import FailureReport, handle_failure
from repro.vuc.context import DEFAULT_WINDOW
from repro.vuc.dataflow import AccessSite, VariableExtent, access_site, group_targets
from repro.vuc.generalize import BLANK_TOKENS, Tokens, generalize_instruction
from repro.vuc.locate import locate_targets


class VucStream:
    """One binary's VUC windows as center offsets into one token stream.

    ``centers`` and ``variable_ids`` are row-aligned; so is ``sites``
    when the extraction collected access sites.
    """

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        self.window = window
        self._padding = [BLANK_TOKENS] * window
        self.tokens: list[Tokens] = list(self._padding)
        self.centers: list[int] = []
        self.variable_ids: list[str] = []
        self.sites: list[AccessSite] = []

    def __len__(self) -> int:
        return len(self.centers)

    @classmethod
    def end_to_end(cls, tokens: list[Tokens], variable_ids: list[str],
                   window: int) -> "VucStream":
        """A stream of whole windows laid end to end.

        ``tokens`` holds ``len(variable_ids)`` windows of ``2w + 1``
        slots each, so window ``i`` is centered on slot
        ``i * (2w + 1) + w``.
        """
        stream = cls(window)
        stream.tokens = tokens
        stream.centers = list(range(window, len(tokens), 2 * window + 1))
        stream.variable_ids = variable_ids
        return stream

    def subset(self, rows: Sequence[int]) -> "VucStream":
        """A standalone stream of the windows at ``rows``, in that order.

        It holds only those windows' ``len(rows) * (2w + 1)`` slots, so
        encoding it costs as much as its own windows.  Access sites are
        not carried over.
        """
        tokens, w = self.tokens, self.window
        laid: list[Tokens] = []
        for row in rows:
            center = self.centers[row]
            laid += tokens[center - w:center + w + 1]
        return VucStream.end_to_end(
            laid, [self.variable_ids[row] for row in rows], w)

    def add_function(self, listing: FunctionListing, indices: Sequence[int],
                     variable_ids: Sequence[str]) -> None:
        """Append one function's windows, centered on instruction ``indices``.

        If generalization raises, the stream is left as it was.
        """
        if not indices:
            return
        segment = _generalize_covered(listing.instructions, indices, self.window)
        base = len(self.tokens)
        self.tokens += segment
        self.tokens += self._padding
        self.centers += [base + index for index in indices]
        self.variable_ids += variable_ids

    def windows(self) -> list[tuple[Tokens, ...]]:
        """Every window as its tuple of ``2w + 1`` token triples."""
        tokens, w = self.tokens, self.window
        return [tuple(tokens[center - w:center + w + 1]) for center in self.centers]


def _generalize_covered(instructions: Sequence[Instruction], indices: Sequence[int],
                        window: int) -> list[Tokens]:
    """Generalize each instruction within ``window`` of some index, once."""
    n = len(instructions)
    covered = bytearray(n)
    ones = b"\x01" * (2 * window + 1)
    for index in indices:
        lo, hi = max(index - window, 0), min(index + window + 1, n)
        covered[lo:hi] = ones[:hi - lo]
    return [generalize_instruction(ins) if hit else BLANK_TOKENS
            for ins, hit in zip(instructions, covered)]


def extract_vuc_stream(
    stripped: Binary,
    extents_by_function: list[list[VariableExtent]],
    window: int = DEFAULT_WINDOW,
    on_error: str = "raise",
    failures: FailureReport | None = None,
    sites: bool = False,
) -> VucStream:
    """Inference-side extraction of one binary into a :class:`VucStream`.

    ``extents_by_function`` supplies the given variable locations
    (§VII-B's assumption); inference has no labels.  Variable ids are
    scoped ``"{binary}/{func_index}"``.

    Extraction is fault-isolated per function: with ``on_error="skip"``
    a function that fails to locate, group or generalize (undecodable
    bytes, hostile instructions) is recorded into ``failures`` and adds
    nothing to the stream, while every healthy function still adds its
    windows.

    Per-function ``locate`` and ``generalize`` spans are recorded into
    the global registry, nested under whatever span the caller holds.
    With ``sites``, one :class:`AccessSite` per window is collected into
    :attr:`VucStream.sites` for the posterior struct-recovery stage.
    """
    stream = VucStream(window)
    registry = observability.get_registry()
    for func_index, func in enumerate(stripped.functions):
        extents = extents_by_function[func_index] if func_index < len(extents_by_function) else []
        if not extents:
            continue
        scope = f"{stripped.name}/{func_index}"
        try:
            with registry.span("locate"):
                groups = group_targets(locate_targets(func), extents, scope)
            indices: list[int] = []
            variable_ids: list[str] = []
            func_sites: list[AccessSite] = []
            for group in groups:
                for target in group.targets:
                    indices.append(target.index)
                    variable_ids.append(group.variable_id)
                    if sites:
                        func_sites.append(access_site(target, group.extent, group.variable_id))
            with registry.span("generalize"):
                stream.add_function(func, indices, variable_ids)
        except Exception as exc:
            handle_failure(exc, on_error=on_error, failures=failures,
                           stage="extract", binary=stripped.name,
                           function=getattr(func, "name", scope))
            continue
        stream.sites += func_sites
    return stream
