"""Parser for AT&T-syntax x86-64 assembly text.

Accepts both our own canonical rendering (``str(Instruction)``) and the
lines ``objdump -d`` prints, so the synthetic pipeline and the
real-binary frontend share one entry point.  The grammar handled:

    mnemonic
    mnemonic op
    mnemonic op,op
    mnemonic op,op,op          (imul three-operand form)

with operands being ``$imm``, ``%reg``, ``disp(base,index,scale)``,
``symbol@plt`` style labels, bare hex jump targets and
``addr <symbol+off>`` call targets.
"""

from __future__ import annotations

import re

from repro.asm.instruction import Instruction
from repro.asm.operands import Imm, Label, Mem, Operand, Reg
from repro.asm.registers import is_register


class AsmParseError(ValueError):
    """Raised when a line cannot be parsed as an instruction."""


#: Different binutils versions print `call`/`callq`, `ret`/`retq`;
#: normalize to one canonical spelling so vocabulary tokens agree across
#: the synthetic corpus, the objdump frontend and the native decoder.
_NORMALIZED_MNEMONICS = {
    "call": "callq",
    "ret": "retq",
    "jmpq": "jmp",
    "leaveq": "leave",
}

_LABEL_RE = re.compile(r"^(?:\*?)([0-9a-fA-F]+)(?:\s+<([^>]+)>)?$")
_MEM_RE = re.compile(
    r"^(-?0x[0-9a-fA-F]+|-?\d+)?"      # displacement
    r"\(\s*(%[\w().]+)?"               # base
    r"(?:\s*,\s*(%[\w().]+)"           # index
    r"(?:\s*,\s*(\d+))?)?\s*\)$"       # scale
)


def _parse_int(text: str) -> int:
    text = text.strip()
    neg = text.startswith("-")
    if neg:
        text = text[1:]
    value = int(text, 16) if text.lower().startswith("0x") else int(text, 10)
    return -value if neg else value


def _strip_reg(text: str) -> str:
    name = text.lstrip("%").strip()
    if not is_register(name):
        raise AsmParseError(f"unknown register {text!r}")
    return name


def parse_operand(text: str) -> Operand:
    """Parse a single AT&T operand string."""
    text = text.strip()
    if not text:
        raise AsmParseError("empty operand")
    if text.startswith("$"):
        return Imm(_parse_int(text[1:]))
    if text.startswith("%"):
        return Reg(_strip_reg(text))
    if "(" in text:
        match = _MEM_RE.match(text)
        if not match:
            raise AsmParseError(f"bad memory operand {text!r}")
        disp_s, base_s, index_s, scale_s = match.groups()
        return Mem(
            disp=_parse_int(disp_s) if disp_s else 0,
            base=_strip_reg(base_s) if base_s else None,
            index=_strip_reg(index_s) if index_s else None,
            scale=int(scale_s) if scale_s else 1,
        )
    match = _LABEL_RE.match(text)
    if match:
        address, symbol = match.groups()
        return Label(address=int(address, 16), symbol=symbol)
    # Bare displacement with no parens: absolute memory reference.
    try:
        return Mem(disp=_parse_int(text))
    except ValueError:
        raise AsmParseError(f"unparseable operand {text!r}") from None


def _split_operands(text: str) -> list[str]:
    """Split an operand field on commas that are outside parentheses.

    Parts are stripped and empty ones dropped.  A comma splits where the
    parentheses before it balance; after an unmatched ``)`` no comma
    splits until a ``(`` matches it.
    """
    parts: list[str] = []
    pending: str | None = None
    depth = 0
    for piece in text.split(","):
        pending = piece if pending is None else f"{pending},{piece}"
        if "(" in piece or ")" in piece:
            depth += piece.count("(") - piece.count(")")
        if depth == 0:
            part = pending.strip()
            if part:
                parts.append(part)
            pending = None
    if pending is not None and (part := pending.strip()):
        parts.append(part)
    return parts


#: Legacy prefixes objdump prints inline, stripped in this order.
_PREFIXES = ("lock ", "rep ", "repz ", "repnz ", "bnd ", "data16 ")


def parse_instruction(line: str, address: int = 0, *,
                      memo: dict[str, Operand] | None = None) -> Instruction:
    """Parse one instruction line (no address prefix) into the IR.

    ``memo`` maps operand text to its parsed operand.  A caller parsing
    many lines passes one dict, so each distinct operand text is parsed
    once; operands are immutable, so the lines share them safely.
    """
    line = line.strip()
    if not line:
        raise AsmParseError("empty line")
    # Drop objdump annotations like "# 0x..." comments.
    if "#" in line:
        line = line.split("#", 1)[0].strip()
        if not line:
            raise AsmParseError("empty line")
    if line.startswith(_PREFIXES):
        for prefix in _PREFIXES:
            if line.startswith(prefix):
                line = line[len(prefix):].strip()
    fields = line.split(None, 1)
    mnemonic = _NORMALIZED_MNEMONICS.get(fields[0], fields[0])
    if len(fields) == 1:
        return Instruction(mnemonic=mnemonic, address=address)
    operand_text = fields[1].strip()
    if mnemonic in ("call", "callq") or mnemonic.startswith("j"):
        # The whole remainder is a single code target (may contain spaces).
        parts = [operand_text]
    else:
        parts = _split_operands(operand_text)
    if memo is None:
        memo = {}
    operands = []
    for part in parts:
        operand = memo.get(part)
        if operand is None:
            operand = memo[part] = parse_operand(part)
        operands.append(operand)
    return Instruction(mnemonic=mnemonic, operands=tuple(operands), address=address)


_OBJDUMP_LINE_RE = re.compile(r"^\s*([0-9a-fA-F]+):\s*((?:[0-9a-fA-F]{2}\s)+)\s*(.*)$")


def parse_objdump_line(line: str) -> Instruction | None:
    """Parse one ``objdump -d`` body line; return None for non-instruction lines.

    Lines look like::

        40113a:\t48 89 e5             \tmov    %rsp,%rbp
    """
    match = _OBJDUMP_LINE_RE.match(line.replace("\t", " "))
    if not match:
        return None
    address_s, _opcodes, text = match.groups()
    text = text.strip()
    if not text or text.startswith("("):  # data or continuation line
        return None
    try:
        return parse_instruction(text, address=int(address_s, 16))
    except AsmParseError:
        # Unknown/exotic instruction: keep the mnemonic, drop operands, so
        # the window stays aligned with the true instruction stream.
        mnemonic = text.split()[0]
        return Instruction(mnemonic=mnemonic, address=int(address_s, 16))


def parse_listing(text: str) -> list[Instruction]:
    """Parse a block of canonical instruction lines (one per line)."""
    instructions = []
    for index, line in enumerate(text.splitlines()):
        line = line.strip()
        if not line or line.startswith(("#", ";")):
            continue
        instructions.append(parse_instruction(line, address=index))
    return instructions
