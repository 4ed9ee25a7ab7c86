"""Deterministic fault-injection harness for the robustness suite.

Everything here *manufactures* a specific failure the pipeline must
survive, without depending on luck or a real flaky machine:

* :class:`FlakyRunner` — a ``subprocess.run`` stand-in driven by a
  scripted plan of outcomes (timeout / oserror / missing / fail / ok),
  plugged into :func:`repro.core.toolchain.run_tool` via its ``runner``
  seam;
* :func:`minimal_elf` — a hand-assembled ELF64 image (header, section
  table, ``.text``, optional symtab/extra sections) with switchable
  corruptions of the section header table;
* :func:`build_debug_info` / :func:`truncate_second_cu` — hand-crafted
  DWARF v4 ``.debug_info``/``.debug_abbrev`` byte streams, including a
  mid-CU truncation and a CU whose body references an unknown abbrev;
* :class:`PoisonedListing` / :func:`poison_binary` — synthetic-corpus
  functions whose instruction stream raises a decode error the moment
  anything touches it.
"""

from __future__ import annotations

import dataclasses
import struct
import subprocess

from repro.disasm.decoder import DecodeError as DisasmDecodeError

# -- flaky external tools --------------------------------------------------------


class FlakyRunner:
    """A ``subprocess.run`` stand-in that follows a scripted outcome plan.

    Plan entries: ``"timeout"``, ``"oserror"``, ``"missing"``,
    ``"fail"`` (non-zero exit), ``"ok"``.  Once the plan is exhausted
    every further call succeeds.  Calls are recorded for assertions.
    """

    def __init__(self, plan, stdout: str = "", stderr: str = "injected stderr"):
        self.plan = list(plan)
        self.stdout = stdout
        self.stderr = stderr
        self.calls: list[tuple[str, ...]] = []

    def __call__(self, argv, capture_output=True, text=True, timeout=None):
        self.calls.append(tuple(argv))
        outcome = self.plan.pop(0) if self.plan else "ok"
        if outcome == "timeout":
            raise subprocess.TimeoutExpired(argv, timeout if timeout else 0.0)
        if outcome == "oserror":
            raise OSError("injected resource hiccup")
        if outcome == "missing":
            raise FileNotFoundError(argv[0])
        returncode = 1 if outcome == "fail" else 0
        return subprocess.CompletedProcess(
            argv, returncode, stdout=self.stdout, stderr=self.stderr)


def no_sleep(_seconds: float) -> None:
    """Drop-in ``sleep`` that records nothing and waits for nothing."""


class SleepRecorder:
    """``sleep`` stand-in that records the requested backoff delays."""

    def __init__(self):
        self.delays: list[float] = []

    def __call__(self, seconds: float) -> None:
        self.delays.append(seconds)


# -- hand-assembled ELF64 images -------------------------------------------------

TEXT_ADDR = 0x401000

#: 5-byte function that decodes cleanly: push rbp; mov rbp,rsp; ret.
GOOD_CODE = bytes.fromhex("554889e5c3")

#: Bytes no 64-bit decoder accepts (0x06 = push es, invalid in long mode).
BAD_CODE = b"\x06" * 8

_SHDR = "<IIQQQQIIQQ"
_SYM = "<IBBHQQ"


def minimal_elf(text: bytes = b"", symbols=(), extra_sections=(),
                corrupt: str = "none") -> bytes:
    """Hand-assemble a tiny 64-bit little-endian ELF image.

    ``symbols`` are ``(name, value, size)`` GLOBAL FUNC entries bound to
    ``.text`` (give addresses relative to :data:`TEXT_ADDR`).
    ``extra_sections`` are ``(name, data)`` PROGBITS pairs (e.g. the
    ``.debug_*`` sections).  ``corrupt`` switches in one deterministic
    section-header-table defect:

    * ``"none"`` — well-formed image;
    * ``"shnum"`` — ``e_shnum`` claims two entries past the end of the
      file (out-of-bounds header entries);
    * ``"shstrndx"`` — ``e_shstrndx`` points outside the table (section
      names unresolvable);
    * ``"entsize"`` — ``e_shentsize`` is smaller than a real header.
    """
    strtab = b"\x00"
    sym_name_off = {}
    for name, _value, _size in symbols:
        sym_name_off[name] = len(strtab)
        strtab += name.encode() + b"\x00"

    # (name, sh_type, addr, link, entsize, data); table index = position + 1.
    specs = [(".text", 1, TEXT_ADDR, 0, 0, bytes(text))]
    for name, data in extra_sections:
        specs.append((name, 1, 0, 0, 0, bytes(data)))
    if symbols:
        strtab_index = len(specs) + 2  # right after .symtab
        symdata = struct.pack(_SYM, 0, 0, 0, 0, 0, 0)
        for name, value, size in symbols:
            symdata += struct.pack(
                _SYM, sym_name_off[name], 0x12, 0, 1, TEXT_ADDR + value, size)
        specs.append((".symtab", 2, 0, strtab_index, 24, symdata))
        specs.append((".strtab", 3, 0, 0, 0, strtab))

    shstr = b"\x00"
    name_off = {}
    for name in [spec[0] for spec in specs] + [".shstrtab"]:
        name_off[name] = len(shstr)
        shstr += name.encode() + b"\x00"
    specs.append((".shstrtab", 3, 0, 0, 0, shstr))

    offset = 64
    offsets = []
    for spec in specs:
        offsets.append(offset)
        offset += len(spec[-1])
    shoff = offset
    n_sections = len(specs) + 1          # + null entry
    shstrndx = n_sections - 1

    e_shnum = n_sections + 2 if corrupt == "shnum" else n_sections
    e_shstrndx = 0xBEEF if corrupt == "shstrndx" else shstrndx
    e_shentsize = 32 if corrupt == "entsize" else 64

    header = struct.pack(
        "<4sBBBBB7xHHIQQQIHHHHHH",
        b"\x7fELF", 2, 1, 1, 0, 0,       # ELF64, LSB, version, SysV
        2, 0x3E, 1,                      # ET_EXEC, EM_X86_64, EV_CURRENT
        TEXT_ADDR, 0, shoff, 0,
        64, 0, 0,                        # ehsize, phentsize, phnum
        e_shentsize, e_shnum, e_shstrndx,
    )
    table = struct.pack(_SHDR, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    for (name, sh_type, addr, link, entsize, data), data_off in zip(specs, offsets):
        table += struct.pack(_SHDR, name_off[name], sh_type, 0, addr,
                             data_off, len(data), link, 0, 0, entsize)
    return header + b"".join(spec[-1] for spec in specs) + table


# -- hand-crafted DWARF v4 streams -----------------------------------------------

DW_TAG_COMPILE_UNIT = 0x11
DW_TAG_SUBPROGRAM = 0x2E
DW_AT_NAME = 0x03
DW_FORM_STRING = 0x08


def _uleb(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def build_abbrev() -> bytes:
    """Abbrev table: 1 = compile_unit (children), 2 = subprogram (leaf).

    Both carry just ``DW_AT_name`` as an inline string.
    """
    out = bytearray()
    out += _uleb(1) + _uleb(DW_TAG_COMPILE_UNIT) + b"\x01"
    out += _uleb(DW_AT_NAME) + _uleb(DW_FORM_STRING) + b"\x00\x00"
    out += _uleb(2) + _uleb(DW_TAG_SUBPROGRAM) + b"\x00"
    out += _uleb(DW_AT_NAME) + _uleb(DW_FORM_STRING) + b"\x00\x00"
    out += _uleb(0)
    return bytes(out)


def build_cu(cu_name: str, functions=("fn",), bad_abbrev_code: int | None = None) -> bytes:
    """One DWARF v4 compile unit with a root DIE and subprogram children.

    ``bad_abbrev_code`` swaps the first child's abbrev code for one the
    table does not define — a malformed *body* behind a perfectly valid
    header, so the parser can still find the next CU.
    """
    body = bytearray()
    body += _uleb(1) + cu_name.encode() + b"\x00"
    for index, function in enumerate(functions):
        code = bad_abbrev_code if bad_abbrev_code is not None and index == 0 else 2
        body += _uleb(code) + function.encode() + b"\x00"
    body += _uleb(0)                                     # pop the root
    header_rest = struct.pack("<HIB", 4, 0, 8)           # version, abbrev off, addr size
    unit_length = len(header_rest) + len(body)
    return struct.pack("<I", unit_length) + header_rest + bytes(body)


def build_debug_info(n_units: int = 2) -> bytes:
    """A healthy ``.debug_info`` stream of ``n_units`` CUs."""
    return b"".join(build_cu(f"cu{i}", (f"fn{i}a", f"fn{i}b"))
                    for i in range(n_units))


def truncate_second_cu(info: bytes) -> bytes:
    """Chop a 2+-CU stream 12 bytes into the second CU's claimed extent.

    The second header is intact (so the parser *enters* the CU) but the
    unit length now points past end-of-stream.
    """
    first_len = 4 + struct.unpack_from("<I", info, 0)[0]
    assert len(info) > first_len + 12, "need a second CU to truncate"
    return info[:first_len + 12]


def corrupt_unit_length() -> bytes:
    """A ``.debug_info`` stream whose very first unit length is zero."""
    return struct.pack("<I", 0) + b"\xAA" * 16


# -- poisoned synthetic functions ------------------------------------------------


class PoisonedListing:
    """Duck-typed stand-in for a FunctionListing with undecodable bytes.

    Deliberately *not* a FunctionListing subclass: the dataclass field
    would shadow the property.  Touching :attr:`instructions` raises the
    same :class:`~repro.disasm.decoder.DecodeError` real corrupt bytes
    produce.
    """

    def __init__(self, name: str, address: int):
        self.name = name
        self.address = address

    @property
    def instructions(self):
        raise DisasmDecodeError("injected corrupt function bytes")

    def __len__(self) -> int:
        return 0


def poison_binary(stripped, fraction: float = 0.2):
    """Replace ~``fraction`` of a Binary's functions with poisoned listings.

    Deterministic (evenly spaced indices, always at least one).  Returns
    ``(poisoned_copy, poisoned_indices)``; the input is left untouched.
    """
    n = len(stripped.functions)
    count = max(1, round(n * fraction))
    step = max(1, n // count)
    indices = sorted(set(range(0, n, step)))[:count]
    functions = list(stripped.functions)
    for index in indices:
        original = functions[index]
        functions[index] = PoisonedListing(original.name, original.address)
    return dataclasses.replace(stripped, functions=functions), indices

