"""Locate variables' *target instructions* in a disassembled function.

The paper's target instructions are memory-access instructions and
dereference instructions (§I) — the instructions that operate exactly one
variable.  Two locator rules reproduce what IDA's stack-frame analysis
plus light def-use tracking give the authors:

1. **Slot access** — any operand of the form ``disp(%rbp)`` /
   ``disp(%rsp)`` (optionally indexed) touches the local whose frame
   extent contains ``disp``.
2. **Dereference** — a memory operand based on a register that was
   recently loaded (``mov``/``lea``) from a stack slot is a dereference
   *of the pointer variable in that slot*.  The tracking is invalidated
   when the register family is overwritten, and ages out after a small
   window, which is exactly the locality real pointer uses exhibit.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.asm.instruction import FunctionListing, Instruction
from repro.asm.mnemonics import is_call
from repro.asm.operands import Mem, Reg
from repro.asm.registers import register_family

#: How many instructions a slot-loaded register stays a valid pointer base.
DEREF_WINDOW = 12

#: Frame-base register families the locator recognises.
FRAME_BASES = ("rbp", "rsp")


class TargetKind(enum.Enum):
    """How the target instruction touches its variable."""

    SLOT = "slot"        # direct frame-slot access
    DEREF = "deref"      # memory access through a slot-loaded pointer


class Target(NamedTuple):
    """One target instruction inside a function listing.

    ``deref_disp`` and ``width`` make the target a full base+offset
    access record for the posterior struct-recovery stage
    (:mod:`repro.posterior`): for DEREF targets ``deref_disp`` is the
    ``disp`` of the ``[reg+disp]`` operand through the pointer base
    (the field offset inside the pointee), for SLOT targets it is 0
    (interior offsets are recovered against the extent instead).
    ``width`` is the access width in bytes, 0 when unknown or when the
    instruction takes an address rather than data (``lea``).

    An immutable record: a named tuple, because a function yields
    thousands of targets and a frozen dataclass costs about three times
    as much to build.
    """

    index: int                  # instruction index within the function
    kind: TargetKind
    base: str                   # frame base register ("rbp"/"rsp")
    offset: int                 # frame displacement identifying the slot
    instruction: Instruction
    deref_disp: int = 0         # [reg+disp] displacement for DEREF targets
    width: int = 0              # access width in bytes (0 = unknown/address)


#: Access width by mnemonic suffix for the GNU-style suffixed forms.
_SUFFIX_WIDTHS = {"b": 1, "w": 2, "l": 4, "q": 8}

#: Widths for mnemonics the suffix rule gets wrong or misses.
_MNEMONIC_WIDTHS = {
    "movss": 4, "movsd": 8, "addss": 4, "addsd": 8,
    "subss": 4, "subsd": 8, "mulss": 4, "mulsd": 8,
    "divss": 4, "divsd": 8, "comiss": 4, "comisd": 8,
    "ucomiss": 4, "ucomisd": 8,
    "movsbl": 1, "movzbl": 1, "movswl": 2, "movzwl": 2,
    "movsbq": 1, "movzbq": 1, "movswq": 2, "movzwq": 2,
    "movslq": 4,
    "lea": 0, "leaq": 0,
}


#: Base mnemonics whose trailing b/w/l/q is a width suffix (``imul`` is not).
_SUFFIXABLE = frozenset(("mov", "add", "sub", "cmp", "and", "or", "xor", "test", "inc", "dec"))


def _access_width(ins: Instruction) -> int:
    """Best-effort memory-access width of an instruction, in bytes."""
    width = _MNEMONIC_WIDTHS.get(ins.mnemonic)
    if width is not None:
        return width
    suffix_width = _SUFFIX_WIDTHS.get(ins.mnemonic[-1])
    if suffix_width is not None and ins.mnemonic[:-1] in _SUFFIXABLE:
        return suffix_width
    # Fall back to the width of a register partner operand.
    for op in ins.operands:
        if isinstance(op, Reg):
            return op.width
    return 0


#: Register families a call clobbers: the SysV caller-saved set.
_CALL_CLOBBERED = ("rax", "rcx", "rdx", "rsi", "rdi", "r8", "r9", "r10", "r11")

#: Mnemonics whose slot operand loads a pointer (or the slot's address)
#: into a 64-bit register, which then becomes a tracked pointer base.
_POINTER_LOADS = ("mov", "movq", "lea")


def locate_targets(listing: FunctionListing) -> list[Target]:
    """Find every target instruction in a function, in listing order.

    Prologue/epilogue stack adjustments (``push``, ``pop``, ``sub
    $N,%rsp``) never carry slot operands in our IR, so no special-casing
    is needed; ``(%rsp)`` bare pushes do not match because they have no
    Mem operand.

    One pass over the listing.  The slot operand is the first ``Mem``
    on a frame base; without one, the first ``Mem`` through a tracked
    pointer register (loaded at most :data:`DEREF_WINDOW` instructions
    earlier) makes a DEREF target.  A write to a register family ends its
    tracking (a call clobbers every caller-saved family), except for the
    family the instruction itself has just loaded from a slot.  While no
    register is tracked, no write needs looking at.
    """
    targets: list[Target] = []
    # family -> (base, offset, index where it was loaded)
    pointer_regs: dict[str, tuple[str, int, int]] = {}

    for index, ins in enumerate(listing.instructions):
        operands = ins.operands
        slot = None
        for op in operands:
            if isinstance(op, Mem) and op.base in FRAME_BASES:
                slot = op
                break
        reloaded = False
        if slot is not None:
            targets.append(Target(index, TargetKind.SLOT, slot.base, slot.disp, ins,
                                  0, _access_width(ins)))
            # A register loaded from the slot (pointer value via mov, or
            # the slot's own address via lea) becomes a tracked pointer.
            dest = operands[-1]
            if ins.mnemonic in _POINTER_LOADS and isinstance(dest, Reg) and dest.width == 8:
                pointer_regs[dest.family] = (slot.base, slot.disp, index)
                reloaded = True
        else:
            # Dereference through a tracked pointer register?
            for op in operands:
                if not isinstance(op, Mem):
                    continue
                base = op.base
                if base is None or base in FRAME_BASES or base == "rip":
                    continue
                tracked = pointer_regs.get(register_family(base))
                if tracked is not None and index - tracked[2] <= DEREF_WINDOW:
                    targets.append(Target(index, TargetKind.DEREF, tracked[0], tracked[1],
                                          ins, op.disp, _access_width(ins)))
                    break

        # Invalidate pointer tracking on overwrites (after use above, so a
        # self-reload `mov slot,%rax` both targets the slot and re-tracks).
        if not pointer_regs:
            continue
        dest = operands[-1] if operands else None
        if isinstance(dest, Reg) and dest.name != "rip":
            if not reloaded:
                try:
                    pointer_regs.pop(register_family(dest.name), None)
                except KeyError:
                    pass
        elif is_call(ins.mnemonic):
            for family in _CALL_CLOBBERED:
                pointer_regs.pop(family, None)
    return targets

