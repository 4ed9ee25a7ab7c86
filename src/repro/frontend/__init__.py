"""Real-binary frontend (optional): compile bundled C with the system
gcc, parse ``objdump -d`` and ``readelf --debug-dump=info`` output, and
feed genuine GCC codegen through the same pipeline as the synthetic
corpus.  Guard usage with :func:`toolchain_available`.
"""

from repro.frontend.compile import (
    CompiledArtifact,
    compile_sample,
    missing_tools,
    require_toolchain,
    toolchain_available,
)
from repro.frontend.objdump import parse_disassembly, user_functions
from repro.frontend.readelf import RealVariable, cfa_to_rbp_offset, extract_real_variables

__all__ = [
    "CompiledArtifact",
    "compile_sample",
    "missing_tools",
    "require_toolchain",
    "toolchain_available",
    "parse_disassembly",
    "user_functions",
    "RealVariable",
    "cfa_to_rbp_offset",
    "extract_real_variables",
]
