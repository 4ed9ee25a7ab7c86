"""Fully self-contained real-binary loading: ELF parsing + from-scratch
disassembly + native DWARF — no gcc/objdump/readelf needed at *load*
time (a compiler is still needed to produce the binary in the first
place).

This is the zero-dependency twin of the objdump/readelf text path; the
test suite cross-validates the two on the same binary.

Real-world stripped-binary corpora are messy: one undecodable function
or one truncated DWARF entry should not kill a whole-corpus job.
:func:`load_binary` therefore takes ``on_error="raise"|"skip"``; with
``"skip"`` it degrades per stage and per function — a function whose
bytes fail to decode is recorded and dropped, damaged debug info yields
whatever variables survive — and the partial :class:`LoadedBinary`
carries a machine-readable :class:`~repro.core.errors.FailureReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.asm.instruction import FunctionListing
from repro.core.errors import FailureReport, handle_failure
from repro.disasm.decoder import decode_function, elf_symbolizer
from repro.dwarf.native import native_variables
from repro.elf.parser import ElfFile
from repro.frontend.readelf import RealVariable


@dataclass
class LoadedBinary:
    """A real binary loaded without external tools.

    ``failures`` enumerates everything that was skipped while loading
    (empty on a clean ``on_error="raise"`` load).
    """

    path: str
    functions: list[FunctionListing]
    variables: list[RealVariable]
    failures: FailureReport = field(default_factory=FailureReport)

    def functions_by_name(self) -> dict[str, FunctionListing]:
        return {f.name: f for f in self.functions}


def load_binary(path, on_error: str = "raise") -> LoadedBinary:
    """Load a real (unstripped) binary: disassemble every function
    symbol with the native decoder and extract typed variables from the
    native DWARF parser.

    With ``on_error="skip"``, per-function decode failures and damaged
    debug info are recorded into the result's ``failures`` report and
    loading continues with partial results; with ``"raise"`` (default)
    the first failure raises a typed :class:`~repro.core.errors.CatiError`
    subclass carrying binary/function context.
    """
    failures = FailureReport()
    name = str(path)
    try:
        elf = ElfFile.load(path, on_error=on_error, failures=failures)
    except Exception as exc:
        handle_failure(exc, on_error=on_error, failures=failures,
                       stage="elf", binary=name)
        return LoadedBinary(path=name, functions=[], variables=[],
                            failures=failures)
    symbolizer = elf_symbolizer(elf)
    functions = []
    for symbol in elf.function_symbols():
        code = elf.text_bytes_for(symbol)
        if not code:
            continue
        try:
            instructions = decode_function(code, symbol.value, symbolizer=symbolizer)
        except Exception as exc:
            handle_failure(exc, on_error=on_error, failures=failures,
                           stage="decode", binary=name, function=symbol.name)
            continue
        functions.append(FunctionListing(
            name=symbol.name, address=symbol.value, instructions=instructions,
        ))
    try:
        variables = [
            RealVariable(function=v.function, name=v.name, rbp_offset=v.rbp_offset,
                         size=v.size, label=v.label)
            for v in native_variables(elf, on_error=on_error, failures=failures)
        ]
    except Exception as exc:
        handle_failure(exc, on_error=on_error, failures=failures,
                       stage="dwarf", binary=name)
        variables = []
    return LoadedBinary(path=name, functions=functions, variables=variables,
                        failures=failures)


def extract_labeled_vucs_native(loaded: LoadedBinary, app: str = "native", window: int = 10):
    """Build a labeled VucDataset from a natively loaded real binary."""
    from repro.vuc.dataflow import VariableExtent, group_targets
    from repro.vuc.dataset import LabeledVuc, VucDataset
    from repro.vuc.locate import locate_targets
    from repro.vuc.stream import VucStream

    stream = VucStream(window)
    labels: list[str] = []
    for func in loaded.functions:
        func_vars = [v for v in loaded.variables if v.function == func.name]
        if not func_vars:
            continue
        extents = [VariableExtent(v.name, "rbp", v.rbp_offset, max(v.size, 1))
                   for v in func_vars]
        by_extent = {(e.base, e.offset): v.label for e, v in zip(extents, func_vars)}
        indices: list[int] = []
        variable_ids: list[str] = []
        for group in group_targets(locate_targets(func), extents, f"{app}/{func.name}"):
            label = by_extent[(group.extent.base, group.extent.offset)]
            for target in group.targets:
                indices.append(target.index)
                variable_ids.append(group.variable_id)
                labels.append(label)
        stream.add_function(func, indices, variable_ids)
    return VucDataset(samples=[
        LabeledVuc(tokens=tokens, label=label, variable_id=variable_id,
                   binary=loaded.path, app=app, compiler="gcc")
        for tokens, label, variable_id in zip(stream.windows(), labels, stream.variable_ids)
    ], window=window)
