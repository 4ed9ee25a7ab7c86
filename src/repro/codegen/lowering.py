"""Compile mini-C IR (:mod:`repro.codegen.progen`) to x86-64 assembly.

This is a deliberately faithful model of how GCC and Clang lower locals
at the instruction level:

* every local lives in a stack slot (rbp- or rsp-relative, depending on
  compiler style / optimization level),
* access width follows the type (``movb`` for char/bool, ``movl`` for
  int/enum/unsigned, ``movq`` for long/pointers, ``movss``/``movsd`` for
  float/double, x87 ``fldt``/``fstpt`` for long double),
* sign-ness shows up in extension moves (``movsbl`` vs ``movzbl``) and
  branch conditions (``jle`` vs ``jbe``),
* pointers round-trip through a register and are then dereferenced,
* struct members are stored at interior offsets of the struct's slot,
* the same generalized instruction is emitted for many types
  (``movl $IMM, disp(%rbp)`` for int, unsigned, enum, struct members),
  which is precisely the paper's *uncertain samples* problem.

The lowering also records, per emitted instruction, which variable it is
a *target instruction* of — the generator-side ground truth used to
validate the locator (the evaluation pipeline itself re-derives labels
from the DWARF blob like the paper does).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.asm.instruction import FunctionListing, Instruction, make
from repro.asm.operands import Imm, Label, Mem, Reg
from repro.asm.registers import gp_name
from repro.codegen import ctypes_model as ct
from repro.codegen.ctypes_model import ArrayType, CType, EnumType, PointerType, StructType, TypedefType
from repro.codegen.progen import Access, AccessKind, Filler, FillerKind, FunctionIR, LocalVar
from repro.core.types import TypeName


@dataclass(frozen=True)
class CompilerStyle:
    """Codegen conventions that differ between compilers (§VIII)."""

    name: str
    frame_base: str                      # "rbp" or "rsp"
    scratch_rotation: tuple[str, ...]    # GP families, rotation order
    sse_rotation: tuple[str, ...]
    zero_idiom: str                      # "mov" or "xor"
    uses_endbr: bool
    epilogue: str                        # "leave" or "add_pop"
    redundant_load_prob: float           # O0-style reload after store
    #: Probability that an access is lowered to a *type-blind* pattern
    #: (word-sized copy, address-taking lea, memset head) instead of the
    #: type-directed one.  Real codegen does this constantly — memcpy
    #: moves char buffers in 8-byte words, &x erases x's type at the
    #: instruction level — and it is what makes trace-only inference
    #: (DEBIN/TypeMiner-style) fall behind context (§II-B).
    trace_noise_prob: float = 0.14


def gcc_style(opt_level: int) -> CompilerStyle:
    """GCC conventions: rbp frame at -O0/-O1, rax-first scratch order."""
    return CompilerStyle(
        name="gcc",
        frame_base="rbp" if opt_level <= 1 else "rsp",
        scratch_rotation=("rax", "rdx", "rcx", "rsi", "rdi", "r8"),
        sse_rotation=("xmm0", "xmm1", "xmm2"),
        zero_idiom="mov",
        uses_endbr=True,
        epilogue="leave" if opt_level <= 1 else "add_pop",
        redundant_load_prob=(0.5, 0.25, 0.08, 0.02)[min(opt_level, 3)],
        trace_noise_prob=(0.10, 0.13, 0.17, 0.20)[min(opt_level, 3)],
    )


def clang_style(opt_level: int) -> CompilerStyle:
    """Clang conventions: rsp-relative slots, rcx-first scratch order."""
    return CompilerStyle(
        name="clang",
        frame_base="rsp",
        scratch_rotation=("rcx", "rsi", "r8", "r9", "rdi", "r10", "rax"),
        sse_rotation=("xmm1", "xmm2", "xmm3"),
        zero_idiom="xor",
        uses_endbr=False,
        epilogue="add_pop",
        redundant_load_prob=(0.4, 0.2, 0.05, 0.0)[min(opt_level, 3)],
        trace_noise_prob=(0.10, 0.13, 0.17, 0.20)[min(opt_level, 3)],
    )


@dataclass
class SlotInfo:
    """Frame-slot assignment of one local."""

    var: LocalVar
    offset: int  # literal displacement used in instructions
    size: int


@dataclass(frozen=True, slots=True)
class MemberTruth:
    """Ground truth for one lowered member access.

    Records which struct field an emitted instruction touches: the byte
    offset of the field inside its base object (the struct local, or the
    pointee of a struct pointer) and the field type's leaf label.  This
    is what the posterior struct-recovery stage is evaluated against.
    """

    instruction_index: int
    var_index: int
    member_offset: int
    label: TypeName


@dataclass
class LoweredFunction:
    """A compiled function plus its ground-truth bookkeeping."""

    listing: FunctionListing
    frame_base: str
    slots: dict[int, SlotInfo]                  # var index -> slot
    truth: list[tuple[int, int]] = field(default_factory=list)  # (ins idx, var idx)
    member_truth: list[MemberTruth] = field(default_factory=list)

    def member_truth_by_instruction(self) -> dict[int, MemberTruth]:
        return {record.instruction_index: record for record in self.member_truth}


def _strip_typedefs(ctype: CType) -> CType:
    while isinstance(ctype, TypedefType):
        ctype = ctype.target
    return ctype


def _scalar_width(ctype: CType) -> int:
    """Access width in bytes for a scalar/pointer slot."""
    ctype = _strip_typedefs(ctype)
    if isinstance(ctype, PointerType):
        return 8
    if isinstance(ctype, EnumType):
        return 4
    if isinstance(ctype, ct.BaseType):
        return min(ctype.byte_size, 8) if not ctype.is_float else ctype.byte_size
    return 8


_WIDTH_SUFFIX = {1: "b", 2: "w", 4: "l", 8: "q"}
_EXT_LOAD = {(1, True): "movsbl", (1, False): "movzbl", (2, True): "movswl", (2, False): "movzwl"}

#: Conditional jumps: signed vs unsigned comparisons read differently.
_SIGNED_JCC = ("jle", "jge", "jl", "jg", "jne", "je")
_UNSIGNED_JCC = ("jbe", "jae", "jb", "ja", "jne", "je")

_LIBC_NAMES = (
    "memchr", "memcpy", "memset", "strlen", "strcmp", "strcpy", "malloc",
    "free", "printf", "fprintf", "read", "write", "open", "close", "calloc",
    "realloc", "strchr", "strncmp", "snprintf", "qsort", "getenv", "exit",
)


class FunctionLowerer:
    """Stateful per-function emitter."""

    def __init__(self, func: FunctionIR, style: CompilerStyle,
                 rng: random.Random, base_address: int) -> None:
        self.func = func
        self.style = style
        self.rng = rng
        self.address = base_address
        self.instructions: list[Instruction] = []
        self.truth: list[tuple[int, int]] = []
        self.member_truth: list[MemberTruth] = []
        self.slots = self._layout_frame()
        self._gp_cursor = 0
        self._sse_cursor = 0
        self._member_disp = 0
        self._member_label = TypeName.INT

    # -- frame layout ----------------------------------------------------------

    def _layout_frame(self) -> dict[int, SlotInfo]:
        slots: dict[int, SlotInfo] = {}
        if self.style.frame_base == "rbp":
            cursor = 0
            for var in self.func.locals:
                size = var.ctype.size
                align = var.ctype.align
                cursor = -((-cursor + size + align - 1) // align * align)
                slots[var.index] = SlotInfo(var=var, offset=cursor, size=size)
        else:
            cursor = 8  # leave room for spilled return address area
            for var in self.func.locals:
                size = var.ctype.size
                align = var.ctype.align
                cursor = (cursor + align - 1) // align * align
                slots[var.index] = SlotInfo(var=var, offset=cursor, size=size)
                cursor += size
        return slots

    @property
    def frame_size(self) -> int:
        if not self.slots:
            return 16
        if self.style.frame_base == "rbp":
            low = min(slot.offset for slot in self.slots.values())
            return (-low + 15) // 16 * 16
        high = max(slot.offset + slot.size for slot in self.slots.values())
        return (high + 15) // 16 * 16

    # -- emission helpers --------------------------------------------------------

    def _emit(self, instruction: Instruction, target_var: LocalVar | None = None,
              member: tuple[int, TypeName] | None = None) -> None:
        instruction = Instruction(
            mnemonic=instruction.mnemonic,
            operands=instruction.operands,
            address=self.address,
        )
        self.address += self.rng.randint(2, 7)  # realistic variable encoding size
        if target_var is not None:
            index = len(self.instructions)
            self.truth.append((index, target_var.index))
            if member is not None:
                self.member_truth.append(MemberTruth(
                    instruction_index=index, var_index=target_var.index,
                    member_offset=member[0], label=member[1],
                ))
        self.instructions.append(instruction)

    def _slot(self, var: LocalVar, extra: int = 0) -> Mem:
        info = self.slots[var.index]
        return Mem(disp=info.offset + extra, base=self.style.frame_base)

    def _gp(self, width: int) -> str:
        family = self.style.scratch_rotation[self._gp_cursor % len(self.style.scratch_rotation)]
        self._gp_cursor += 1
        return gp_name(family, width)

    def _sse(self) -> str:
        name = self.style.sse_rotation[self._sse_cursor % len(self.style.sse_rotation)]
        self._sse_cursor += 1
        return name

    def _imm(self, small: bool = False) -> Imm:
        if small:
            return Imm(self.rng.choice((0, 1, 2, 4, 8, 16, 0x1F, 0x40)))
        return Imm(self.rng.choice((0, 1, 2, 8, 0x10, 0x20, 0x40, 0x64, 0x100, 0x400, 0xFF)))

    def _code_addr(self) -> Label:
        return Label(address=self.rng.randrange(0x401000, 0x47F000))

    def _func_addr(self, named: bool) -> Label:
        address = self.rng.randrange(0x401000, 0x47F000)
        if named:
            return Label(address=address, symbol=f"{self.rng.choice(_LIBC_NAMES)}@plt")
        return Label(address=address)

    # -- type-directed primitive sequences ---------------------------------------

    def _load_to_reg(self, var: LocalVar, member: int = 0) -> str:
        """Emit the canonical 'load slot into a register' and return the reg."""
        ctype = _strip_typedefs(var.ctype)
        label = var.label
        if label is TypeName.FLOAT:
            reg = self._sse()
            self._emit(make("movss", self._slot(var), Reg(reg)), var)
            return reg
        if label is TypeName.DOUBLE:
            reg = self._sse()
            self._emit(make("movsd", self._slot(var), Reg(reg)), var)
            return reg
        if label is TypeName.LONG_DOUBLE:
            self._emit(make("fldt", self._slot(var)), var)
            return "st"
        width = _scalar_width(ctype)
        if width < 4:
            signed = isinstance(ctype, ct.BaseType) and ctype.is_signed
            reg = self._gp(4)
            self._emit(make(_EXT_LOAD[(width, signed)], self._slot(var), Reg(reg)), var)
            return reg
        reg = self._gp(width)
        mnemonic = "mov" + _WIDTH_SUFFIX[width] if width == 4 else "mov"
        self._emit(make(mnemonic, self._slot(var), Reg(reg)), var)
        return reg

    def _store_from_reg(self, var: LocalVar, reg: str | None = None) -> None:
        label = var.label
        if label is TypeName.FLOAT:
            reg = reg or self._sse()
            self._emit(make("movss", Reg(reg), self._slot(var)), var)
            return
        if label is TypeName.DOUBLE:
            reg = reg or self._sse()
            self._emit(make("movsd", Reg(reg), self._slot(var)), var)
            return
        if label is TypeName.LONG_DOUBLE:
            self._emit(make("fstpt", self._slot(var)), var)
            return
        width = _scalar_width(var.ctype)
        if reg is None:
            family_reg = self._gp(width)
        else:
            from repro.asm.registers import register_family

            family_reg = gp_name(register_family(reg), width)
        mnemonic = "mov" + _WIDTH_SUFFIX[width] if width < 8 else "mov"
        self._emit(make(mnemonic, Reg(family_reg), self._slot(var)), var)

    def _init_imm(self, var: LocalVar) -> None:
        label = var.label
        if label is TypeName.BOOL:
            self._emit(make("movb", Imm(self.rng.choice((0, 1))), self._slot(var)), var)
            return
        if label is TypeName.FLOAT:
            reg = self._sse()
            self._emit(make("movss", Mem(disp=self.rng.randrange(0x1000, 0x8000), base="rip"), Reg(reg)))
            self._emit(make("movss", Reg(reg), self._slot(var)), var)
            return
        if label is TypeName.DOUBLE:
            reg = self._sse()
            self._emit(make("movsd", Mem(disp=self.rng.randrange(0x1000, 0x8000), base="rip"), Reg(reg)))
            self._emit(make("movsd", Reg(reg), self._slot(var)), var)
            return
        if label is TypeName.LONG_DOUBLE:
            self._emit(make("fldt", Mem(disp=self.rng.randrange(0x1000, 0x8000), base="rip")))
            self._emit(make("fstpt", self._slot(var)), var)
            return
        width = _scalar_width(var.ctype)
        mnemonic = "mov" + _WIDTH_SUFFIX[width]
        self._emit(make(mnemonic, self._imm(), self._slot(var)), var)

    # -- access lowering ---------------------------------------------------------

    def _lower_generic_access(self, access: Access) -> None:
        """Type-blind lowering: the patterns real codegen emits for *any*
        variable regardless of type.

        * ``lea slot, %reg`` — address-of (scanf/memset/memcpy argument),
        * word-sized copies at interior offsets (memcpy chunks) for
          aggregates and 8-byte scalars,
        * ``movq $0, slot`` — zeroing head of a memset,
        * width-matched plain moves that erase signedness for narrow
          scalars (``movb`` instead of ``movsbl``).
        """
        var = access.var
        size = self.slots[var.index].size
        roll = self.rng.random()
        if roll < 0.35:
            self._emit(make("lea", self._slot(var), Reg(self._gp(8))), var)
            return
        if size >= 8:
            if roll < 0.55:
                self._emit(make("movq", Imm(0), self._slot(var)), var)
                return
            extra = (self.rng.randrange(max(size // 8, 1))) * 8
            if roll < 0.78:
                self._emit(make("mov", self._slot(var, extra=extra), Reg(self._gp(8))), var)
            else:
                self._emit(make("mov", Reg(self._gp(8)), self._slot(var, extra=extra)), var)
            return
        width = min(size, 4) if size != 3 else 1
        if width not in _WIDTH_SUFFIX:
            width = 1
        mnemonic = "mov" + _WIDTH_SUFFIX[width]
        reg = gp_name(self.style.scratch_rotation[self._gp_cursor % len(self.style.scratch_rotation)], width)
        self._gp_cursor += 1
        if roll < 0.7:
            self._emit(make(mnemonic, Reg(reg), self._slot(var)), var)
        else:
            self._emit(make(mnemonic, self._slot(var), Reg(reg)), var)

    def lower_access(self, access: Access) -> None:
        if self.rng.random() < self.style.trace_noise_prob:
            self._lower_generic_access(access)
            return
        handler = {
            AccessKind.INIT: self._do_init,
            AccessKind.LOAD: self._do_load,
            AccessKind.STORE: self._do_store,
            AccessKind.ARITH_IMM: self._do_arith_imm,
            AccessKind.ARITH_VAR: self._do_arith_var,
            AccessKind.INCREMENT: self._do_increment,
            AccessKind.COMPARE_BRANCH: self._do_compare_branch,
            AccessKind.CALL_ARG: self._do_call_arg,
            AccessKind.CALL_RESULT: self._do_call_result,
            AccessKind.DEREF_LOAD: self._do_deref_load,
            AccessKind.DEREF_STORE: self._do_deref_store,
            AccessKind.PTR_ADVANCE: self._do_ptr_advance,
            AccessKind.ADDR_OF: self._do_addr_of,
            AccessKind.MEMBER_STORE: self._do_member_store,
            AccessKind.MEMBER_LOAD: self._do_member_load,
            AccessKind.ARRAY_STORE: self._do_array_store,
            AccessKind.ARRAY_LOAD: self._do_array_load,
            AccessKind.BOOL_SET: self._do_bool_set,
            AccessKind.BOOL_TEST: self._do_bool_test,
        }[access.kind]
        handler(access)

    def _do_init(self, access: Access) -> None:
        var = access.var
        ctype = _strip_typedefs(var.ctype)
        if isinstance(ctype, PointerType):
            if self.rng.random() < 0.6:
                self._emit(make("movq", Imm(0), self._slot(var)), var)  # p = NULL
            else:
                reg = self._gp(8)
                self._emit(make("lea", Mem(disp=self.rng.randrange(0x1000, 0x8000), base="rip"), Reg(reg)))
                self._emit(make("mov", Reg(reg), self._slot(var)), var)
            return
        self._init_imm(var)

    def _do_load(self, access: Access) -> None:
        self._load_to_reg(access.var)

    def _do_store(self, access: Access) -> None:
        self._store_from_reg(access.var)

    def _do_arith_imm(self, access: Access) -> None:
        var = access.var
        label = var.label
        if label in (TypeName.FLOAT, TypeName.DOUBLE):
            suffix = "ss" if label is TypeName.FLOAT else "sd"
            reg = self._sse()
            self._emit(make(f"mov{suffix}", self._slot(var), Reg(reg)), var)
            self._emit(make(
                self.rng.choice((f"add{suffix}", f"mul{suffix}", f"sub{suffix}")),
                Mem(disp=self.rng.randrange(0x1000, 0x8000), base="rip"), Reg(reg)))
            self._emit(make(f"mov{suffix}", Reg(reg), self._slot(var)), var)
            return
        if label is TypeName.LONG_DOUBLE:
            self._emit(make("fldt", self._slot(var)), var)
            self._emit(make("fldt", Mem(disp=self.rng.randrange(0x1000, 0x8000), base="rip")))
            self._emit(make(self.rng.choice(("faddp", "fmulp", "fsubrp"))))
            self._emit(make("fstpt", self._slot(var)), var)
            return
        ctype = _strip_typedefs(var.ctype)
        width = _scalar_width(ctype)
        if width < 4:
            # Byte/word RMW goes through a register at every opt level.
            reg = self._load_to_reg(var)
            from repro.asm.registers import register_family

            narrow = gp_name(register_family(reg), width)
            self._emit(make(self.rng.choice(("add", "sub", "and", "or")), self._imm(small=True), Reg(reg)))
            self._emit(make("mov" + _WIDTH_SUFFIX[width], Reg(narrow), self._slot(var)), var)
            return
        unsigned = isinstance(ctype, ct.BaseType) and not ctype.is_signed and not ctype.is_float
        if unsigned:
            ops = ("add", "and", "or", "shr", "xor", "sub")
        else:
            ops = ("add", "sub", "imul", "and", "add", "sub")
        op = self.rng.choice(ops) + _WIDTH_SUFFIX[width]
        if op.startswith("imul"):
            # imul has no memory-destination form: load, multiply, store.
            reg = self._load_to_reg(var)
            self._emit(make("imul", self._imm(small=True), Reg(reg), Reg(reg)))
            self._store_from_reg(var, reg)
            return
        self._emit(make(op, self._imm(small=True), self._slot(var)), var)

    def _do_arith_var(self, access: Access) -> None:
        var, partner = access.var, access.partner
        assert partner is not None
        label = var.label
        if label in (TypeName.FLOAT, TypeName.DOUBLE):
            suffix = "ss" if label is TypeName.FLOAT else "sd"
            reg = self._sse()
            self._emit(make(f"mov{suffix}", self._slot(partner), Reg(reg)), partner)
            self._emit(make(self.rng.choice((f"add{suffix}", f"mul{suffix}")), self._slot(var), Reg(reg)), var)
            self._emit(make(f"mov{suffix}", Reg(reg), self._slot(var)), var)
            return
        if label is TypeName.LONG_DOUBLE:
            self._emit(make("fldt", self._slot(partner)), partner)
            self._emit(make("fldt", self._slot(var)), var)
            self._emit(make("faddp"))
            self._emit(make("fstpt", self._slot(var)), var)
            return
        reg = self._load_to_reg(partner)
        width = _scalar_width(var.ctype)
        from repro.asm.registers import register_family

        sized = gp_name(register_family(reg), width) if width >= 4 else reg
        op = self.rng.choice(("add", "sub", "and", "or", "xor"))
        if width >= 4:
            self._emit(make(op + _WIDTH_SUFFIX[width] if width == 4 else op,
                            Reg(sized), self._slot(var)), var)
        else:
            narrow = gp_name(register_family(reg), width)
            self._emit(make(op + _WIDTH_SUFFIX[width], Reg(narrow), self._slot(var)), var)

    def _do_increment(self, access: Access) -> None:
        var = access.var
        label = var.label
        if label in (TypeName.FLOAT, TypeName.DOUBLE, TypeName.LONG_DOUBLE):
            self._do_arith_imm(access)
            return
        width = _scalar_width(var.ctype)
        if width < 4:
            self._do_arith_imm(access)
            return
        self._emit(make("add" + _WIDTH_SUFFIX[width], Imm(1), self._slot(var)), var)

    def _do_compare_branch(self, access: Access) -> None:
        var = access.var
        ctype = _strip_typedefs(var.ctype)
        label = var.label
        if label is TypeName.BOOL:
            self._emit(make("cmpb", Imm(0), self._slot(var)), var)
            self._emit(make(self.rng.choice(("je", "jne")), self._code_addr()))
            return
        if label in (TypeName.FLOAT, TypeName.DOUBLE):
            suffix = "ss" if label is TypeName.FLOAT else "sd"
            reg = self._sse()
            self._emit(make(f"mov{suffix}", self._slot(var), Reg(reg)), var)
            self._emit(make(f"ucomi{suffix}", Mem(disp=self.rng.randrange(0x1000, 0x8000), base="rip"), Reg(reg)))
            self._emit(make(self.rng.choice(("ja", "jbe", "jp")), self._code_addr()))
            return
        if label is TypeName.LONG_DOUBLE:
            self._emit(make("fldt", self._slot(var)), var)
            self._emit(make("fucomip"))
            self._emit(make(self.rng.choice(("ja", "jbe")), self._code_addr()))
            return
        if isinstance(ctype, PointerType):
            self._emit(make("cmpq", Imm(0), self._slot(var)), var)
            self._emit(make(self.rng.choice(("je", "jne")), self._code_addr()))
            return
        width = _scalar_width(ctype)
        if width < 4:
            reg = self._load_to_reg(var)
            self._emit(make("cmp", self._imm(small=True), Reg(reg)))
        else:
            self._emit(make("cmp" + _WIDTH_SUFFIX[width], self._imm(small=True), self._slot(var)), var)
        unsigned = isinstance(ctype, ct.BaseType) and not ctype.is_signed
        jcc = self.rng.choice(_UNSIGNED_JCC if unsigned else _SIGNED_JCC)
        self._emit(make(jcc, self._code_addr()))

    _ARG_GP = ("rdi", "rsi", "rdx", "rcx", "r8", "r9")

    def _do_call_arg(self, access: Access) -> None:
        var = access.var
        label = var.label
        slot_pos = self.rng.randrange(3)
        ctype = _strip_typedefs(var.ctype)
        if isinstance(ctype, ArrayType) or isinstance(ctype, StructType):
            # Arrays/structs are passed by address: lea slot, %argreg.
            self._emit(make("lea", self._slot(var), Reg(self._ARG_GP[slot_pos])), var)
        elif label in (TypeName.FLOAT, TypeName.DOUBLE):
            suffix = "ss" if label is TypeName.FLOAT else "sd"
            self._emit(make(f"mov{suffix}", self._slot(var), Reg(f"xmm{slot_pos}")), var)
        elif label is TypeName.LONG_DOUBLE:
            self._emit(make("fldt", self._slot(var)), var)
        else:
            width = _scalar_width(ctype)
            if width < 4:
                signed = isinstance(ctype, ct.BaseType) and ctype.is_signed
                reg = gp_name(self._ARG_GP[slot_pos], 4)
                self._emit(make(_EXT_LOAD[(width, signed)], self._slot(var), Reg(reg)), var)
            else:
                reg = gp_name(self._ARG_GP[slot_pos], width)
                mnemonic = "movl" if width == 4 else "mov"
                self._emit(make(mnemonic, self._slot(var), Reg(reg)), var)
        self._emit(make("callq", self._func_addr(named=self.rng.random() < 0.6)))

    def _do_call_result(self, access: Access) -> None:
        var = access.var
        self._emit(make("callq", self._func_addr(named=self.rng.random() < 0.6)))
        label = var.label
        if label in (TypeName.FLOAT, TypeName.DOUBLE):
            suffix = "ss" if label is TypeName.FLOAT else "sd"
            self._emit(make(f"mov{suffix}", Reg("xmm0"), self._slot(var)), var)
            return
        if label is TypeName.LONG_DOUBLE:
            self._emit(make("fstpt", self._slot(var)), var)
            return
        width = _scalar_width(var.ctype)
        ret = gp_name("rax", max(width, 1))
        mnemonic = "mov" + _WIDTH_SUFFIX[width] if width < 8 else "mov"
        self._emit(make(mnemonic, Reg(ret), self._slot(var)), var)

    def _pointee_access(self, ctype: PointerType) -> tuple[str, str, int, bool]:
        """(load mnemonic, store mnemonic, reg width, member-style) for a deref."""
        pointee = _strip_typedefs(ctype.pointee) if ctype.pointee is not None else None
        if pointee is None:
            return "mov", "mov", 8, False
        if isinstance(pointee, StructType):
            offsets = pointee.member_offsets()
            _, mtype, moff = self.rng.choice(offsets)
            width = min(_scalar_width(mtype), 8)
            mnem = "mov" + _WIDTH_SUFFIX[width] if width < 8 else "mov"
            self._member_disp = moff
            self._member_label = _strip_typedefs(mtype).leaf_label()
            return mnem, mnem, width, True
        if isinstance(pointee, ct.BaseType) and pointee.is_float:
            return ("movss", "movss", 16, False) if pointee.byte_size == 4 else ("movsd", "movsd", 16, False)
        width = min(pointee.size, 8)
        if width < 4 and isinstance(pointee, ct.BaseType):
            load = _EXT_LOAD[(width, pointee.is_signed)]
            return load, "mov" + _WIDTH_SUFFIX[width], width, False
        mnem = "mov" + _WIDTH_SUFFIX[width] if width < 8 else "mov"
        return mnem, mnem, width, False

    def _do_deref_load(self, access: Access) -> None:
        var = access.var
        ctype = _strip_typedefs(var.ctype)
        assert isinstance(ctype, PointerType)
        self._member_disp = 0
        load_mnem, _store, width, member = self._pointee_access(ctype)
        addr_reg = self._gp(8)
        self._emit(make("mov", self._slot(var), Reg(addr_reg)), var)
        disp = self._member_disp if member else 0
        field_truth = (disp, self._member_label) if member else None
        mem = Mem(disp=disp, base=addr_reg)
        if load_mnem in ("movss", "movsd"):
            self._emit(make(load_mnem, mem, Reg(self._sse())), var, member=field_truth)
        elif load_mnem.startswith(("movs", "movz")) and load_mnem not in ("movss", "movsd"):
            self._emit(make(load_mnem, mem, Reg(self._gp(4))), var, member=field_truth)
        else:
            self._emit(make(load_mnem, mem, Reg(self._gp(max(width, 4)))), var, member=field_truth)

    def _do_deref_store(self, access: Access) -> None:
        var = access.var
        ctype = _strip_typedefs(var.ctype)
        assert isinstance(ctype, PointerType)
        self._member_disp = 0
        _load, store_mnem, width, member = self._pointee_access(ctype)
        addr_reg = self._gp(8)
        self._emit(make("mov", self._slot(var), Reg(addr_reg)), var)
        disp = self._member_disp if member else 0
        field_truth = (disp, self._member_label) if member else None
        mem = Mem(disp=disp, base=addr_reg)
        if store_mnem in ("movss", "movsd"):
            self._emit(make(store_mnem, Reg(self._sse()), mem), var, member=field_truth)
        elif self.rng.random() < 0.5:
            self._emit(make(store_mnem, self._imm(small=True), mem), var, member=field_truth)
        else:
            reg_width = width if width < 8 else 8
            self._emit(make(store_mnem, Reg(self._gp(reg_width)), mem), var, member=field_truth)

    def _do_ptr_advance(self, access: Access) -> None:
        var = access.var
        ctype = _strip_typedefs(var.ctype)
        assert isinstance(ctype, PointerType)
        self._emit(make("addq", Imm(ctype.stride), self._slot(var)), var)

    def _do_addr_of(self, access: Access) -> None:
        var, target = access.var, access.partner
        assert target is not None
        reg = self._gp(8)
        self._emit(make("lea", self._slot(target), Reg(reg)), target)
        self._emit(make("mov", Reg(reg), self._slot(var)), var)

    def _member(self, var: LocalVar, member_index: int) -> tuple[CType, int]:
        ctype = _strip_typedefs(var.ctype)
        if isinstance(ctype, ArrayType):
            ctype = _strip_typedefs(ctype.element)
        assert isinstance(ctype, StructType)
        offsets = ctype.member_offsets()
        name_, mtype, moff = offsets[member_index % len(offsets)]
        return mtype, moff

    def _do_member_store(self, access: Access) -> None:
        var = access.var
        mtype, moff = self._member(var, access.member)
        mtype = _strip_typedefs(mtype)
        field_truth = (moff, mtype.leaf_label())
        width = min(_scalar_width(mtype), 8)
        if isinstance(mtype, ct.BaseType) and mtype.is_float:
            suffix = "ss" if mtype.byte_size == 4 else "sd"
            reg = self._sse()
            self._emit(make(f"mov{suffix}", Mem(disp=self.rng.randrange(0x1000, 0x8000), base="rip"), Reg(reg)))
            self._emit(make(f"mov{suffix}", Reg(reg), self._slot(var, extra=moff)), var, member=field_truth)
            return
        mnemonic = "mov" + _WIDTH_SUFFIX[width]
        if width == 8:
            mnemonic = "movq" if self.rng.random() < 0.5 else "mov"
        if mnemonic == "mov":
            self._emit(make("mov", Reg(self._gp(8)), self._slot(var, extra=moff)), var, member=field_truth)
        else:
            self._emit(make(mnemonic, self._imm(), self._slot(var, extra=moff)), var, member=field_truth)

    def _do_member_load(self, access: Access) -> None:
        var = access.var
        mtype, moff = self._member(var, access.member)
        mtype = _strip_typedefs(mtype)
        field_truth = (moff, mtype.leaf_label())
        width = min(_scalar_width(mtype), 8)
        if isinstance(mtype, ct.BaseType) and mtype.is_float:
            suffix = "ss" if mtype.byte_size == 4 else "sd"
            self._emit(make(f"mov{suffix}", self._slot(var, extra=moff), Reg(self._sse())), var, member=field_truth)
            return
        if width < 4 and isinstance(mtype, ct.BaseType):
            self._emit(make(_EXT_LOAD[(width, mtype.is_signed)], self._slot(var, extra=moff), Reg(self._gp(4))), var,
                       member=field_truth)
            return
        mnemonic = "mov" + _WIDTH_SUFFIX[width] if width < 8 else "mov"
        self._emit(make(mnemonic, self._slot(var, extra=moff), Reg(self._gp(max(width, 4)))), var,
                   member=field_truth)

    def _array_element(self, var: LocalVar) -> tuple[CType, int]:
        ctype = _strip_typedefs(var.ctype)
        assert isinstance(ctype, ArrayType)
        element = _strip_typedefs(ctype.element)
        return element, element.size

    def _do_array_store(self, access: Access) -> None:
        var = access.var
        element, esize = self._array_element(var)
        if isinstance(element, StructType) or esize > 8:
            # Non-scalable element: take the address, store through it.
            reg = self._gp(8)
            self._emit(make("lea", self._slot(var), Reg(reg)), var)
            self._emit(make("movl", self._imm(), Mem(disp=self.rng.choice((0, 4, 8)), base=reg)), var)
            return
        width = min(esize, 8)
        mnemonic = "mov" + _WIDTH_SUFFIX[width]
        info = self.slots[var.index]
        if self.rng.random() < 0.5:
            index_reg = self._gp(8)
            mem = Mem(disp=info.offset, base=self.style.frame_base, index=index_reg, scale=esize)
            self._emit(make(mnemonic, self._imm(small=True), mem), var)
        else:
            extra = self.rng.randrange(4) * esize
            self._emit(make(mnemonic, self._imm(small=True), self._slot(var, extra=extra)), var)

    def _do_array_load(self, access: Access) -> None:
        var = access.var
        element, esize = self._array_element(var)
        if isinstance(element, StructType) or esize > 8:
            reg = self._gp(8)
            self._emit(make("lea", self._slot(var), Reg(reg)), var)
            self._emit(make("mov", Mem(disp=self.rng.choice((0, 8)), base=reg), Reg(self._gp(8))), var)
            return
        width = min(esize, 8)
        info = self.slots[var.index]
        signed = isinstance(element, ct.BaseType) and element.is_signed
        if width < 4:
            mnemonic = _EXT_LOAD[(width, signed)]
            dest = Reg(self._gp(4))
        else:
            mnemonic = "mov" + _WIDTH_SUFFIX[width] if width < 8 else "mov"
            dest = Reg(self._gp(max(width, 4)))
        if self.rng.random() < 0.5:
            index_reg = self._gp(8)
            mem = Mem(disp=info.offset, base=self.style.frame_base, index=index_reg, scale=esize)
            self._emit(make(mnemonic, mem, dest), var)
        else:
            extra = self.rng.randrange(4) * esize
            self._emit(make(mnemonic, self._slot(var, extra=extra), dest), var)

    def _do_bool_set(self, access: Access) -> None:
        var = access.var
        reg32 = self._gp(4)
        from repro.asm.registers import register_family

        reg8 = gp_name(register_family(reg32), 1)
        self._emit(make("test", Reg(reg32), Reg(reg32)))
        self._emit(make(self.rng.choice(("sete", "setne", "setg", "setb")), Reg(reg8)))
        self._emit(make("movb", Reg(reg8), self._slot(var)), var)

    def _do_bool_test(self, access: Access) -> None:
        var = access.var
        reg32 = self._gp(4)
        from repro.asm.registers import register_family

        reg8 = gp_name(register_family(reg32), 1)
        self._emit(make("movzbl", self._slot(var), Reg(reg32)), var)
        self._emit(make("test", Reg(reg8), Reg(reg8)))
        self._emit(make(self.rng.choice(("je", "jne")), self._code_addr()))

    # -- fillers -------------------------------------------------------------------

    def lower_filler(self, filler: Filler) -> None:
        kind = filler.kind
        if kind is FillerKind.CALL:
            self._emit(make("callq", self._func_addr(named=False)))
        elif kind is FillerKind.CALL_NAMED:
            self._emit(make("callq", self._func_addr(named=True)))
        elif kind is FillerKind.JUMP:
            self._emit(make("jmp", self._code_addr()))
        elif kind is FillerKind.COND_JUMP:
            self._emit(make(self.rng.choice(("je", "jne", "jle", "ja")), self._code_addr()))
        elif kind is FillerKind.REG_MOVE:
            a, b = self._gp(8), self._gp(8)
            self._emit(make("mov", Reg(a), Reg(b)))
        elif kind is FillerKind.REG_ARITH:
            width = self.rng.choice((4, 8))
            a, b = self._gp(width), self._gp(width)
            self._emit(make(self.rng.choice(("add", "sub", "xor", "and")), Reg(a), Reg(b)))
        elif kind is FillerKind.REG_CMP:
            width = self.rng.choice((4, 8))
            a, b = self._gp(width), self._gp(width)
            self._emit(make("cmp", Reg(a), Reg(b)))
            self._emit(make(self.rng.choice(("je", "jne", "jg", "jb")), self._code_addr()))
        else:
            self._emit(make("nop"))

    # -- driver ----------------------------------------------------------------------

    def _prologue(self) -> None:
        if self.style.uses_endbr:
            self._emit(make("endbr64"))
        if self.style.frame_base == "rbp":
            self._emit(make("push", Reg("rbp")))
            self._emit(make("mov", Reg("rsp"), Reg("rbp")))
            self._emit(make("sub", Imm(self.frame_size), Reg("rsp")))
        else:
            self._emit(make("push", Reg("rbx")))
            self._emit(make("sub", Imm(self.frame_size), Reg("rsp")))

    def _epilogue(self) -> None:
        if self.style.zero_idiom == "xor":
            self._emit(make("xor", Reg("eax"), Reg("eax")))
        else:
            self._emit(make("movl", Imm(0), Reg("eax")))
        if self.style.epilogue == "leave":
            self._emit(make("leave"))
        else:
            self._emit(make("add", Imm(self.frame_size), Reg("rsp")))
            self._emit(make("pop", Reg("rbx" if self.style.frame_base == "rsp" else "rbp")))
        self._emit(make("retq"))

    def _spill_params(self) -> None:
        """Spill incoming register parameters into their frame slots.

        SysV argument registers are consumed in declaration order; only
        functions whose IR marks parameters (``LocalVar.is_param``) emit
        any spill, so generators with the knob off are bit-identical.
        """
        arg_pos = 0
        for var in self.func.locals:
            if not getattr(var, "is_param", False) or arg_pos >= len(self._ARG_GP):
                continue
            self._emit(make("mov", Reg(self._ARG_GP[arg_pos]), self._slot(var)), var)
            arg_pos += 1

    def lower(self) -> LoweredFunction:
        base = self.address
        self._prologue()
        self._spill_params()
        for event in self.func.events:
            if isinstance(event, Access):
                self.lower_access(event)
                if (event.kind in (AccessKind.STORE, AccessKind.INIT)
                        and self.rng.random() < self.style.redundant_load_prob
                        and event.var.label is not TypeName.LONG_DOUBLE):
                    self._load_to_reg(event.var)  # O0-style reload
            else:
                self.lower_filler(event)
        self._epilogue()
        listing = FunctionListing(name=self.func.name, address=base, instructions=self.instructions)
        return LoweredFunction(
            listing=listing,
            frame_base=self.style.frame_base,
            slots=self.slots,
            truth=self.truth,
            member_truth=self.member_truth,
        )


def lower_function(func: FunctionIR, style: CompilerStyle, rng: random.Random,
                   base_address: int) -> LoweredFunction:
    """Compile one function; see :class:`FunctionLowerer`."""
    return FunctionLowerer(func, style, rng, base_address).lower()
