"""§VII speed: per-binary extraction + prediction wall-clock
(paper: ~6 seconds per typical binary on their hardware).

Each binary goes through ``Cati.infer_binary``, the deployed path, and
the two stages are read off its own spans: ``infer_binary/extract`` for
extraction, and ``infer_binary/encode`` + ``classify`` + ``vote`` for
prediction.  Throughput is reported as VUCs/s per stage alongside the
per-binary averages.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codegen.binary import debug_variables
from repro.codegen.strip import strip
from repro.core import observability
from repro.experiments.common import ExperimentContext
from repro.vuc.dataflow import VariableExtent


@dataclass
class SpeedResult:
    per_binary_extract_s: float
    per_binary_predict_s: float
    n_binaries: int
    n_variables: int
    n_vucs: int = 0
    extract_vucs_per_s: float = 0.0
    predict_vucs_per_s: float = 0.0

    @property
    def per_binary_total_s(self) -> float:
        return self.per_binary_extract_s + self.per_binary_predict_s

    def render(self) -> str:
        return (
            f"Speed over {self.n_binaries} binaries "
            f"({self.n_variables} variables, {self.n_vucs} VUCs): "
            f"extract {self.per_binary_extract_s * 1000:.0f} ms + "
            f"predict {self.per_binary_predict_s * 1000:.0f} ms "
            f"= {self.per_binary_total_s:.2f} s per binary "
            f"[extract {self.extract_vucs_per_s:.0f} VUC/s, "
            f"predict {self.predict_vucs_per_s:.0f} VUC/s] "
            f"(paper: ~6 s/binary incl. IDA)"
        )


def extents_from_debug(binary) -> list[list[VariableExtent]]:
    """Ground-truth variable locations (the paper's §VII-B assumption)."""
    records = debug_variables(binary)
    by_function: dict[str, list[VariableExtent]] = {}
    for record in records:
        base = "rbp" if record.frame_offset < 0 else "rsp"
        by_function.setdefault(record.function, []).append(VariableExtent(
            name=record.name, base=base,
            offset=record.frame_offset, size=max(record.size, 1),
        ))
    return [by_function.get(func.name, []) for func in binary.functions]


def run(context: ExperimentContext, n_binaries: int = 8) -> SpeedResult:
    cati = context.cati
    if not (cati.config.metrics_enabled and observability.is_enabled()):
        raise RuntimeError("speed.run reads infer_binary's spans; enable metrics")
    binaries = context.corpus.test_binaries[:n_binaries]
    n_variables = n_vucs = 0
    before = observability.snapshot()["spans"]
    for binary in binaries:
        predictions = cati.infer_binary(strip(binary), extents_from_debug(binary))
        n_variables += len(predictions)
        n_vucs += sum(p.n_vucs for p in predictions)
    after = observability.snapshot()["spans"]

    def seconds(*phases: str) -> float:
        return sum(after.get(f"infer_binary/{phase}", {}).get("wall_s", 0.0)
                   - before.get(f"infer_binary/{phase}", {}).get("wall_s", 0.0)
                   for phase in phases)

    extract_time = seconds("extract")
    predict_time = seconds("encode", "classify", "vote")
    return SpeedResult(
        per_binary_extract_s=extract_time / max(len(binaries), 1),
        per_binary_predict_s=predict_time / max(len(binaries), 1),
        n_binaries=len(binaries),
        n_variables=n_variables,
        n_vucs=n_vucs,
        extract_vucs_per_s=n_vucs / max(extract_time, 1e-12),
        predict_vucs_per_s=n_vucs / max(predict_time, 1e-12),
    )
