"""Labeled VUC corpus assembly.

Reproduces the paper's data pipeline (§IV-A): disassemble, locate
variables, extract per-target VUCs from the *stripped* view, and pair
each VUC with the ground-truth type recovered from the unstripped twin's
DWARF blob.  VUCs of the same variable share a ``variable_id`` so the
voting stage (§V-B) can aggregate them.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.codegen.binary import Binary, debug_variables
from repro.codegen.strip import strip
from repro.core.errors import FailureReport
from repro.core.types import TypeName
from repro.vuc.context import DEFAULT_WINDOW
from repro.vuc.dataflow import AccessSite, VariableExtent, group_targets
from repro.vuc.generalize import Tokens
from repro.vuc.locate import locate_targets
from repro.vuc.stream import VucStream, extract_vuc_stream


@dataclass(frozen=True)
class LabeledVuc:
    """One training/evaluation sample: a generalized VUC and its label."""

    tokens: tuple[Tokens, ...]      # 2w+1 token triples
    label: TypeName
    variable_id: str
    binary: str
    app: str
    compiler: str

    @property
    def target_tokens(self) -> Tokens:
        return self.tokens[len(self.tokens) // 2]


@dataclass
class VucDataset:
    """A corpus of labeled VUCs with per-variable grouping."""

    samples: list[LabeledVuc] = field(default_factory=list)
    window: int = DEFAULT_WINDOW

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def extend(self, other: "VucDataset") -> None:
        if other.window != self.window:
            raise ValueError("cannot merge datasets with different window sizes")
        self.samples.extend(other.samples)

    def by_variable(self) -> dict[str, list[LabeledVuc]]:
        """Group samples by variable id (insertion order preserved)."""
        groups: dict[str, list[LabeledVuc]] = defaultdict(list)
        for sample in self.samples:
            groups[sample.variable_id].append(sample)
        return dict(groups)

    def n_variables(self) -> int:
        return len({s.variable_id for s in self.samples})

    def label_counts(self) -> Counter:
        """VUC-granularity label histogram."""
        return Counter(s.label for s in self.samples)

    def variable_label_counts(self) -> Counter:
        """Variable-granularity label histogram."""
        return Counter(vucs[0].label for vucs in self.by_variable().values())

    def apps(self) -> list[str]:
        seen: dict[str, None] = {}
        for sample in self.samples:
            seen.setdefault(sample.app, None)
        return list(seen)

    def subsample(self, limit: int, seed: int = 0) -> "VucDataset":
        """Deterministically subsample whole variables down to ~limit VUCs."""
        import random

        if len(self.samples) <= limit:
            return self
        rng = random.Random(seed)
        groups = list(self.by_variable().items())
        rng.shuffle(groups)
        kept: list[LabeledVuc] = []
        for _, vucs in groups:
            if len(kept) + len(vucs) > limit and kept:
                break
            kept.extend(vucs)
        return VucDataset(samples=kept, window=self.window)


def extract_labeled_vucs(
    binary: Binary,
    app: str | None = None,
    window: int = DEFAULT_WINDOW,
    member_labels: bool = False,
) -> VucDataset:
    """Build the labeled corpus for one (unstripped) binary.

    Features come from the stripped twin — local symbols gone, PLT import
    names kept — while labels come from the debug blob, exactly as the
    paper labels VUCs from DWARF while training on stripped-equivalent
    disassembly.

    ``member_labels=True`` refines struct-member accesses down to the
    accessed *field's* leaf label using the generator-side
    :class:`~repro.codegen.lowering.MemberTruth` records (freshly built
    binaries only): an instruction that stores into ``s.count`` is
    labeled ``int`` rather than ``struct``.  The default keeps the
    paper's variable-level labels, which is what the stock corpora and
    models are built from; the struct-recovery corpus turns it on so the
    classifier can emit per-field posteriors for the posterior stage.
    """
    if binary.is_stripped:
        raise ValueError("need an unstripped binary to label VUCs")
    app = app or binary.name
    records = debug_variables(binary)
    records_by_function: dict[str, list] = defaultdict(list)
    for record in records:
        records_by_function[record.function].append(record)

    stripped = strip(binary)
    stream = VucStream(window)
    labels: list[TypeName] = []
    for func_index, (orig_func, stripped_func) in enumerate(
            zip(binary.functions, stripped.functions)):
        func_records = records_by_function.get(orig_func.name, [])
        if not func_records:
            continue
        extents = []
        labels_by_extent: dict[tuple[str, int], TypeName] = {}
        for record in func_records:
            base = "rbp" if record.frame_offset < 0 else "rsp"
            extents.append(VariableExtent(
                name=record.name, base=base,
                offset=record.frame_offset, size=max(record.size, 1),
            ))
            labels_by_extent[(base, record.frame_offset)] = record.type_label  # type: ignore[assignment]

        targets = locate_targets(stripped_func)
        scope = f"{binary.name}/{binary.compiler}-O{binary.opt_level}/{func_index}"
        truth_by_index = {}
        if member_labels and func_index < len(binary.lowered):
            truth_by_index = binary.lowered[func_index].member_truth_by_instruction()
        indices: list[int] = []
        variable_ids: list[str] = []
        for group in group_targets(targets, extents, scope):
            label = labels_by_extent[(group.extent.base, group.extent.offset)]
            for target in group.targets:
                member = truth_by_index.get(target.index)
                indices.append(target.index)
                variable_ids.append(group.variable_id)
                labels.append(member.label if member is not None else label)
        stream.add_function(stripped_func, indices, variable_ids)
    tag = f"{binary.name}/{binary.compiler}-O{binary.opt_level}"
    samples = [
        LabeledVuc(tokens=tokens, label=label, variable_id=variable_id,
                   binary=tag, app=app, compiler=binary.compiler)
        for tokens, label, variable_id in zip(stream.windows(), labels, stream.variable_ids)
    ]
    return VucDataset(samples=samples, window=window)


def extract_unlabeled_vucs(
    stripped: Binary,
    extents_by_function: list[list[VariableExtent]],
    window: int = DEFAULT_WINDOW,
    on_error: str = "raise",
    failures: FailureReport | None = None,
    sites: list[AccessSite] | None = None,
) -> list[tuple[str, tuple[Tokens, ...]]]:
    """Inference-side extraction: (variable_id, tokens) pairs.

    The windows of :func:`~repro.vuc.stream.extract_vuc_stream` as
    token tuples, for callers that need text (serve jobs, experiments);
    the arguments and the fault isolation are that function's.  When
    ``sites`` is given, one :class:`AccessSite` per returned pair is
    appended to it, index-aligned with the result; skipped functions
    contribute neither pairs nor sites.
    """
    stream = extract_vuc_stream(stripped, extents_by_function, window,
                                on_error=on_error, failures=failures,
                                sites=sites is not None)
    if sites is not None:
        sites.extend(stream.sites)
    return list(zip(stream.variable_ids, stream.windows()))


def target_signature(sample: LabeledVuc) -> str:
    """The generalized target-instruction text (uncertain-sample key)."""
    return " ".join(sample.target_tokens)
