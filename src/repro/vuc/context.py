"""VUC extraction: the 21-instruction window around a target instruction.

A Variable Usage Context is the target instruction with ``w`` (=10)
instructions before and after it (§II-A).  Windows are clipped at
function boundaries and padded with BLANK pseudo-instructions so every
VUC has the same length — the same BLANK token the paper uses for
operand padding and for occlusion (Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asm.instruction import FunctionListing, Instruction

#: The paper's window size (10 before + 10 after + target = 21).
DEFAULT_WINDOW = 10

#: Sentinel used for padding positions; consumers render it as BLANK.
PAD: Instruction | None = None


@dataclass(frozen=True)
class Vuc:
    """One Variable Usage Context.

    ``window`` always has ``2*w + 1`` entries; ``None`` entries are
    function-boundary padding.  The target instruction sits at index
    ``w``.
    """

    window: tuple[Instruction | None, ...]
    target_index: int           # index of the target within the function
    window_size: int            # w

    @property
    def target(self) -> Instruction:
        ins = self.window[self.window_size]
        assert ins is not None, "target position can never be padding"
        return ins

    def __len__(self) -> int:
        return len(self.window)


def extract_vuc(listing: FunctionListing, index: int, window: int = DEFAULT_WINDOW) -> Vuc:
    """Extract the VUC centered on instruction ``index`` of ``listing``."""
    instructions = listing.instructions
    if not 0 <= index < len(instructions):
        raise IndexError(f"instruction index {index} out of range")
    slots: list[Instruction | None] = []
    for position in range(index - window, index + window + 1):
        if 0 <= position < len(instructions):
            slots.append(instructions[position])
        else:
            slots.append(PAD)
    return Vuc(window=tuple(slots), target_index=index, window_size=window)

