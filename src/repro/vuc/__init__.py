"""Variable location, data-flow grouping, VUC extraction and operand
generalization — the feature-extraction half of CATI (§II, §IV).
"""

from repro.vuc.context import DEFAULT_WINDOW, Vuc, extract_vuc
from repro.vuc.dataflow import VariableExtent, VariableGroup, group_targets
from repro.vuc.dataset import (
    LabeledVuc,
    VucDataset,
    extract_labeled_vucs,
    extract_unlabeled_vucs,
    target_signature,
)
from repro.vuc.generalize import (
    ADDR,
    BLANK,
    BLANK_TOKENS,
    FUNC,
    IMM,
    Tokens,
    generalize_instruction,
    generalize_operand,
    generalize_window,
    tokens_to_text,
)
from repro.vuc.locate import Target, TargetKind, locate_targets
from repro.vuc.stream import VucStream, extract_vuc_stream

__all__ = [
    "DEFAULT_WINDOW",
    "Vuc",
    "extract_vuc",
    "VariableExtent",
    "VariableGroup",
    "group_targets",
    "LabeledVuc",
    "VucDataset",
    "extract_labeled_vucs",
    "extract_unlabeled_vucs",
    "target_signature",
    "ADDR",
    "BLANK",
    "BLANK_TOKENS",
    "FUNC",
    "IMM",
    "Tokens",
    "generalize_instruction",
    "generalize_operand",
    "generalize_window",
    "tokens_to_text",
    "Target",
    "TargetKind",
    "locate_targets",
    "VucStream",
    "extract_vuc_stream",
]
