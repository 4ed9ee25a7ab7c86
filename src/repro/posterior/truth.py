"""Ground-truth struct layouts from a binary's debug blob.

The synthetic compiler records every struct member's byte offset as
``DW_AT_data_member_location`` on its MEMBER DIE; here we walk the
decoded DIE tree and emit, for every struct-typed variable and every
pointer-to-struct variable, the object's true ``{offset: leaf label}``
layout keyed exactly like the inference pipeline keys objects
(``<scope>::<base><offset:+d>`` with a ``->`` suffix for pointees), so
predicted and true layouts join on object id.
"""

from __future__ import annotations

from repro.codegen.binary import Binary
from repro.core.types import TypeName
from repro.dwarf.dies import Die, Tag
from repro.dwarf.resolver import UnresolvableType, resolve_type


def _unwrap(die: Die | None, stop_at_pointer: bool) -> Die | None:
    """Follow typedef/qualifier/array (and optionally pointer) chains."""
    for _ in range(64):
        if die is None:
            return None
        if die.tag in (Tag.TYPEDEF, Tag.CONST_TYPE, Tag.VOLATILE_TYPE, Tag.ARRAY_TYPE):
            die = die.type_ref
            continue
        if die.tag is Tag.POINTER_TYPE and not stop_at_pointer:
            die = die.type_ref
            continue
        return die
    return None


def _struct_fields(struct_die: Die) -> dict[int, TypeName]:
    """``{byte offset: leaf label}`` of a STRUCTURE_TYPE DIE's members."""
    fields: dict[int, TypeName] = {}
    for member in struct_die.children:
        if member.tag is not Tag.MEMBER:
            continue
        offset = member.member_offset
        if offset is None:
            continue
        try:
            label = resolve_type(member.type_ref)
        except UnresolvableType:
            continue
        fields[offset] = label
    return fields


def truth_layouts(binary: Binary, scope_name: str | None = None) -> dict[str, dict[int, TypeName]]:
    """True layouts for every struct / struct-pointer variable.

    Keys match the pipeline's object ids:
    ``f"{scope_name}/{func_index}::{base}{offset:+d}"`` for struct
    locals, the same with a ``->`` suffix for struct-pointer pointees.
    ``scope_name`` defaults to the binary's own name (pass the stripped
    twin's name if it differs).
    """
    scope_name = scope_name or binary.name
    cu = binary.debug_tree()
    out: dict[str, dict[int, TypeName]] = {}
    for func_index, sub in enumerate(cu.find_all(Tag.SUBPROGRAM)):
        for child in sub.children:
            if child.tag is not Tag.VARIABLE:
                continue
            location = child.location
            if location is None:
                continue
            type_die = child.type_ref
            try:
                label = resolve_type(type_die)
            except UnresolvableType:
                continue
            if label not in (TypeName.STRUCT, TypeName.STRUCT_POINTER):
                continue
            base = "rbp" if location < 0 else "rsp"
            object_id = f"{scope_name}/{func_index}::{base}{location:+d}"
            if label is TypeName.STRUCT_POINTER:
                struct_die = _unwrap(type_die, stop_at_pointer=False)
                object_id += "->"
            else:
                struct_die = _unwrap(type_die, stop_at_pointer=True)
            if struct_die is None or struct_die.tag is not Tag.STRUCTURE_TYPE:
                continue
            fields = _struct_fields(struct_die)
            if fields:
                out[object_id] = fields
    return out

