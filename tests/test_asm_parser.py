"""Parser tests, including render→parse round trips (property-based)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm.instruction import Instruction, make
from repro.asm.operands import Imm, Label, Mem, Reg
from repro.asm.parser import AsmParseError, parse_instruction, parse_listing, parse_objdump_line, parse_operand


class TestParseOperand:
    def test_immediate(self):
        assert parse_operand("$0x100") == Imm(0x100)

    def test_negative_immediate(self):
        assert parse_operand("$-0xd0") == Imm(-0xD0)

    def test_decimal_immediate(self):
        assert parse_operand("$42") == Imm(42)

    def test_register(self):
        assert parse_operand("%rax") == Reg("rax")

    def test_unknown_register_raises(self):
        with pytest.raises(AsmParseError):
            parse_operand("%zzz")

    def test_memory_base_only(self):
        assert parse_operand("-0x4(%rbp)") == Mem(disp=-4, base="rbp")

    def test_memory_full(self):
        assert parse_operand("-0x300(%rbp,%r9,4)") == Mem(disp=-0x300, base="rbp", index="r9", scale=4)

    def test_memory_no_disp(self):
        assert parse_operand("(%rax)") == Mem(disp=0, base="rax")

    def test_memory_index_only(self):
        assert parse_operand("0x10(,%rcx,8)") == Mem(disp=0x10, index="rcx", scale=8)

    def test_label_with_symbol(self):
        op = parse_operand("3bc59 <bfd_zalloc>")
        assert op == Label(0x3BC59, "bfd_zalloc")

    def test_bare_hex_is_label(self):
        assert parse_operand("4044d0") == Label(0x4044D0)


class TestParseInstruction:
    def test_no_operands(self):
        ins = parse_instruction("retq")
        assert ins.mnemonic == "retq"
        assert ins.operands == ()

    def test_two_operands(self):
        ins = parse_instruction("mov %rsp,%rbp")
        assert ins.operands == (Reg("rsp"), Reg("rbp"))

    def test_memory_comma_inside_parens_not_split(self):
        ins = parse_instruction("lea -0x300(%rbp,%r9,4),%rax")
        assert len(ins.operands) == 2
        assert isinstance(ins.operands[0], Mem)

    def test_call_with_symbol(self):
        ins = parse_instruction("callq 4044d0 <memchr@plt>")
        assert ins.is_call
        assert ins.operands[0] == Label(0x4044D0, "memchr@plt")

    def test_jump(self):
        ins = parse_instruction("je 4179f5 <map_html_tags+0x255>")
        assert ins.is_jump
        assert ins.operands[0].symbol == "map_html_tags+0x255"

    def test_lock_prefix_stripped(self):
        ins = parse_instruction("lock add %eax,(%rbx)")
        assert ins.mnemonic == "add"

    def test_comment_stripped(self):
        ins = parse_instruction("mov 0x10(%rip),%rax        # 404080 <stdout>")
        assert ins.operands[0] == Mem(disp=0x10, base="rip")

    def test_empty_line_raises(self):
        with pytest.raises(AsmParseError):
            parse_instruction("   ")

    def test_comment_only_line_raises(self):
        for line in ("#", "# x", "  # c"):
            with pytest.raises(AsmParseError, match="empty line"):
                parse_instruction(line)


class TestObjdumpLine:
    def test_body_line(self):
        ins = parse_objdump_line("  40113a:\t48 89 e5             \tmov    %rsp,%rbp")
        assert ins is not None
        assert ins.address == 0x40113A
        assert ins.mnemonic == "mov"

    def test_header_line_ignored(self):
        assert parse_objdump_line("0000000000401136 <main>:") is None

    def test_blank_line_ignored(self):
        assert parse_objdump_line("") is None

    def test_unknown_instruction_kept_as_mnemonic_only(self):
        ins = parse_objdump_line("  401150:\t0f ae e8\tlfence")
        assert ins is not None
        assert ins.mnemonic == "lfence"
        assert ins.operands == ()


class TestListing:
    def test_parse_listing_skips_comments(self):
        text = "# header\nmov %rax,%rbx\n\nretq\n"
        instructions = parse_listing(text)
        assert [i.mnemonic for i in instructions] == ["mov", "retq"]


# -- property-based round trips ----------------------------------------------

_regs = st.sampled_from(["rax", "rbx", "ecx", "dl", "r9", "r10d", "xmm2", "rsi"])
_operand = st.one_of(
    st.integers(-0x10000, 0x10000).map(Imm),
    _regs.map(Reg),
    st.builds(
        Mem,
        disp=st.integers(-0x1000, 0x1000),
        base=st.sampled_from(["rbp", "rsp", "rax", "rdi"]),
        index=st.one_of(st.none(), st.sampled_from(["rcx", "r9"])),
        scale=st.sampled_from([1, 2, 4, 8]),
    ),
)


@settings(deadline=None)
@given(st.sampled_from(["mov", "add", "lea", "cmp", "movl"]),
       st.lists(_operand, min_size=0, max_size=2))
def test_render_parse_round_trip(mnemonic, operands):
    original = make(mnemonic, *operands)
    parsed = parse_instruction(str(original))
    assert parsed.mnemonic == original.mnemonic
    assert parsed.operands == original.operands


@given(st.integers(0x1000, 0xFFFFF))
def test_jump_round_trip(address):
    original = make("jmp", Label(address))
    parsed = parse_instruction(str(original))
    assert parsed.operands[0] == Label(address)
