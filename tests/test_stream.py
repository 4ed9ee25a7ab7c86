"""Per-binary token streams (repro.vuc.stream) against per-window extraction.

A window used to be built on its own: ``extract_vuc`` picked its 21
instructions and ``generalize_window`` generalized each of them, so
every instruction was generalized once per window covering it.  The
stream generalizes each covered instruction once and slices windows out
of one BLANK-padded token stream.  The per-window reference lives here,
in the tests only, and every consumer of the stream is checked against
it: the token tuples, the ``[N, 21, 3]`` id tensors (bit for bit), the
variable ids, access sites and failure reports, the predictions and
layouts of ``infer_binary``, and the labeled training corpora.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.asm.instruction import FunctionListing, make
from repro.asm.operands import Imm, Label, Mem, Reg
from repro.codegen.binary import Binary, debug_variables
from repro.codegen.compilers import GccCompiler
from repro.codegen.strip import strip
from repro.core.errors import FailureReport, handle_failure
from repro.core.pipeline import predictions_from_probs
from repro.experiments.speed import extents_from_debug
from repro.frontend import native
from repro.frontend.compile import compile_sample, toolchain_available
from repro.frontend.csamples import SOURCES
from repro.posterior import recover_layouts
from repro.serve.protocol import layout_to_dict
from repro.vuc import stream as stream_module
from repro.vuc.context import extract_vuc
from repro.vuc.dataflow import VariableExtent, access_site, group_targets
from repro.vuc.dataset import extract_labeled_vucs, extract_unlabeled_vucs
from repro.vuc.generalize import generalize_instruction, generalize_window
from repro.vuc.locate import locate_targets
from repro.vuc.stream import VucStream, extract_vuc_stream
from tests.faultinject import poison_binary

WINDOW = 10
OPT_LEVELS = (0, 1, 2)
SEEDS = (0, 1, 2, 3)


# -- the per-window reference ----------------------------------------------------


def reference_extract(stripped, extents_by_function, window=WINDOW, on_error="raise",
                      failures=None):
    """(pairs, sites): every window located, sliced and generalized on its own."""
    pairs, sites = [], []
    for func_index, func in enumerate(stripped.functions):
        extents = (extents_by_function[func_index]
                   if func_index < len(extents_by_function) else [])
        if not extents:
            continue
        scope = f"{stripped.name}/{func_index}"
        func_pairs, func_sites = [], []
        try:
            for group in group_targets(locate_targets(func), extents, scope):
                for target in group.targets:
                    vuc = extract_vuc(func, target.index, window)
                    func_pairs.append((group.variable_id, generalize_window(vuc.window)))
                    func_sites.append(access_site(target, group.extent, group.variable_id))
        except Exception as exc:
            handle_failure(exc, on_error=on_error, failures=failures, stage="extract",
                           binary=stripped.name, function=getattr(func, "name", scope))
            continue
        pairs += func_pairs
        sites += func_sites
    return pairs, sites


def reference_labeled(binary, window=WINDOW, member_labels=False):
    """(tokens, label, variable_id) per window of the labeled corpus."""
    records = defaultdict(list)
    for record in debug_variables(binary):
        records[record.function].append(record)
    stripped = strip(binary)
    out = []
    for func_index, (orig, func) in enumerate(zip(binary.functions, stripped.functions)):
        extents, labels = [], {}
        for record in records.get(orig.name, []):
            base = "rbp" if record.frame_offset < 0 else "rsp"
            extents.append(VariableExtent(record.name, base, record.frame_offset,
                                          max(record.size, 1)))
            labels[(base, record.frame_offset)] = record.type_label
        if not extents:
            continue
        truth = {}
        if member_labels and func_index < len(binary.lowered):
            truth = binary.lowered[func_index].member_truth_by_instruction()
        scope = f"{binary.name}/{binary.compiler}-O{binary.opt_level}/{func_index}"
        for group in group_targets(locate_targets(func), extents, scope):
            for target in group.targets:
                member = truth.get(target.index)
                label = (member.label if member is not None
                         else labels[(group.extent.base, group.extent.offset)])
                tokens = generalize_window(extract_vuc(func, target.index, window).window)
                out.append((tokens, label, group.variable_id))
    return out


def corpus():
    for seed in SEEDS:
        for opt_level in OPT_LEVELS:
            binary = GccCompiler().compile_fresh(seed=seed, name=f"s{seed}",
                                                 opt_level=opt_level)
            yield binary, strip(binary), extents_from_debug(binary)


def failure_rows(report):
    return [(r.stage, r.kind, r.message, r.binary, r.function) for r in report.records]


def assert_stream_matches(encoder, stripped, extents, on_error="raise"):
    """The stream and the reference agree on everything a consumer reads."""
    mine, theirs = FailureReport(), FailureReport()
    stream = extract_vuc_stream(stripped, extents, WINDOW, on_error=on_error,
                                failures=mine, sites=True)
    pairs, sites = reference_extract(stripped, extents, on_error=on_error,
                                     failures=theirs)
    assert stream.windows() == [tokens for _vid, tokens in pairs]
    assert stream.variable_ids == [vid for vid, _tokens in pairs]
    assert stream.sites == sites
    assert failure_rows(mine) == failure_rows(theirs)
    ids = encoder.encode_stream(stream)
    expected = encoder.encode_ids([tokens for _vid, tokens in pairs], length=2 * WINDOW + 1)
    assert ids.dtype == expected.dtype and ids.shape == expected.shape
    assert ids.tobytes() == expected.tobytes()
    return stream, pairs


# -- unlabeled extraction + encode -----------------------------------------------


def test_seeded_corpus_matches_reference(mini_cati):
    windows = 0
    for _binary, stripped, extents in corpus():
        stream, _pairs = assert_stream_matches(mini_cati.encoder, stripped, extents)
        windows += len(stream)
    assert windows > 500


def test_wrapper_returns_reference_pairs_and_sites():
    for _binary, stripped, extents in list(corpus())[:3]:
        sites = []
        pairs = extract_unlabeled_vucs(stripped, extents, WINDOW, sites=sites)
        assert (pairs, sites) == reference_extract(stripped, extents)


def test_poisoned_binary_under_skip(mini_cati):
    for _binary, stripped, extents in list(corpus())[:6]:
        poisoned, indices = poison_binary(stripped, fraction=0.3)
        stream, _pairs = assert_stream_matches(mini_cati.encoder, poisoned, extents,
                                               on_error="skip")
        assert len(stream) > 0
        prefixes = {f"{poisoned.name}/{index}::" for index in indices}
        assert not any(vid.startswith(tuple(prefixes)) for vid in stream.variable_ids)


@pytest.mark.skipif(not toolchain_available(), reason="needs gcc")
@pytest.mark.parametrize("opt_level", OPT_LEVELS)
@pytest.mark.parametrize("source_name", [name for name, _source in SOURCES])
def test_native_csamples_match_reference(mini_cati, tmp_path, source_name, opt_level):
    artifact = compile_sample(source_name, opt_level=opt_level, workdir=str(tmp_path))
    loaded = native.load_binary(artifact.binary_path)
    stripped, extents = _native_job(loaded, f"csample-O{opt_level}", opt_level)
    stream, _pairs = assert_stream_matches(mini_cati.encoder, stripped, extents)
    assert len(stream) > 0
    got = native.extract_labeled_vucs_native(loaded, app="native")
    assert [(s.tokens, s.label, s.variable_id) for s in got] == \
        _reference_native(loaded, "native")


def _native_job(loaded, name, opt_level):
    by_function = defaultdict(list)
    for variable in loaded.variables:
        by_function[variable.function].append(
            VariableExtent(variable.name, "rbp", variable.rbp_offset, max(variable.size, 1)))
    functions = list(loaded.functions)
    stripped = Binary(name=name, compiler="gcc", opt_level=opt_level, functions=functions)
    return stripped, [by_function.get(func.name, []) for func in functions]


def _reference_native(loaded, app):
    out = []
    for func in loaded.functions:
        variables = [v for v in loaded.variables if v.function == func.name]
        extents = [VariableExtent(v.name, "rbp", v.rbp_offset, max(v.size, 1))
                   for v in variables]
        labels = {(e.base, e.offset): v.label for e, v in zip(extents, variables)}
        for group in group_targets(locate_targets(func), extents, f"{app}/{func.name}"):
            for target in group.targets:
                tokens = generalize_window(extract_vuc(func, target.index, WINDOW).window)
                out.append((tokens, labels[(group.extent.base, group.extent.offset)],
                            group.variable_id))
    return out


# -- labeled corpora -------------------------------------------------------------


@pytest.mark.parametrize("member_labels", [False, True])
def test_labeled_corpus_matches_reference(member_labels):
    for binary, _stripped, _extents in corpus():
        dataset = extract_labeled_vucs(binary, window=WINDOW, member_labels=member_labels)
        assert [(s.tokens, s.label, s.variable_id) for s in dataset] == \
            reference_labeled(binary, member_labels=member_labels)
        tag = f"{binary.name}/{binary.compiler}-O{binary.opt_level}"
        assert {(s.binary, s.app, s.compiler) for s in dataset} <= \
            {(tag, binary.name, binary.compiler)}


# -- infer_binary ----------------------------------------------------------------


def test_infer_binary_matches_reference_votes_and_layouts(mini_cati):
    engine, config = mini_cati.engine, mini_cati.config
    for _binary, stripped, extents in list(corpus())[:6]:
        pairs, sites = reference_extract(stripped, extents)
        windows = [tokens for _vid, tokens in pairs]
        variable_ids = [vid for vid, _tokens in pairs]
        engine.clear_cache()
        probs = engine.leaf_proba(windows)
        expected = predictions_from_probs(probs, variable_ids, config.confidence_threshold)
        layouts = recover_layouts(expected, probs, variable_ids, sites,
                                  threshold=config.confidence_threshold)
        for structs in (False, True):
            engine.clear_cache()
            result = mini_cati.infer_binary(stripped, extents, structs=structs)
            assert [(p.variable_id, p.predicted, p.n_vucs, p.scores.tobytes())
                    for p in result] == \
                [(p.variable_id, p.predicted, p.n_vucs, p.scores.tobytes())
                 for p in expected]
            if structs:
                assert [layout_to_dict(x) for x in result.layouts] == \
                    [layout_to_dict(x) for x in layouts]
            else:
                assert result.layouts is None


def test_infer_binary_generalizes_each_instruction_at_most_once(mini_cati, monkeypatch):
    real = generalize_instruction
    calls: Counter = Counter()

    def counting(ins):
        calls[id(ins)] += 1
        return real(ins)

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if name.startswith("repro") and getattr(module, "generalize_instruction", None) is real:
            monkeypatch.setattr(module, "generalize_instruction", counting)
    binary = GccCompiler().compile_fresh(seed=5, name="once", opt_level=1)
    stripped = strip(binary)
    result = mini_cati.infer_binary(stripped, extents_from_debug(binary))
    assert len(result) > 0
    occurrences = Counter(id(ins) for func in stripped.functions for ins in func.instructions)
    assert calls and all(calls[key] <= occurrences[key] for key in calls)
    assert sum(calls.values()) <= stripped.instruction_count()


# -- the slicing property --------------------------------------------------------

_POOL = (
    make("mov", Mem(-8, "rbp"), Reg("eax")),
    make("mov", Reg("rax"), Mem(0x10, "rdx")),
    make("add", Imm(1), Reg("rax")),
    make("lea", Mem(-0x30, "rbp", "rcx", 4), Reg("rdx")),
    make("movss", Mem(-4, "rbp"), Reg("xmm0")),
    make("callq", Label(0x400, "puts")),
    make("callq", Label(0x500)),
    make("jmp", Label(0x10)),
    make("push", Reg("rbp")),
    make("retq"),
)


@st.composite
def _function(draw):
    instructions = draw(st.lists(st.sampled_from(_POOL), min_size=1, max_size=30))
    n = len(instructions)
    indices = draw(st.lists(st.integers(0, n - 1), max_size=12))
    indices += draw(st.sampled_from([[], [0], [n - 1], [0, n - 1], [n - 1, 0]]))
    return FunctionListing("f", 0, instructions), indices


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12), st.lists(_function(), min_size=1, max_size=4))
def test_stream_slice_equals_per_window_generalization(mini_cati, window, functions):
    calls = []
    real = stream_module.generalize_instruction
    stream_module.generalize_instruction = lambda ins: calls.append(ins) or real(ins)
    try:
        stream = VucStream(window)
        for listing, indices in functions:
            stream.add_function(listing, indices, [f"v{index}" for index in indices])
    finally:
        stream_module.generalize_instruction = real
    expected = [generalize_window(extract_vuc(listing, index, window).window)
                for listing, indices in functions for index in indices]
    assert stream.windows() == expected
    assert len(stream.variable_ids) == len(stream.centers) == len(expected)
    # Each instruction some window covers is generalized once, no other one.
    covered = sum(len({position for index in indices
                       for position in range(max(index - window, 0),
                                             min(index + window + 1, len(listing)))})
                  for listing, indices in functions)
    assert len(calls) == covered
    encoder = mini_cati.encoder
    ids = encoder.encode_stream(stream)
    assert np.array_equal(ids, encoder.encode_ids(expected, length=2 * window + 1))


@pytest.fixture(scope="module")
def seeded_stream():
    binary = GccCompiler().compile_fresh(seed=5, name="subset", opt_level=1)
    return extract_vuc_stream(strip(binary), extents_from_debug(binary), WINDOW,
                              sites=True)


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(st.integers(0, 10_000), max_size=12))
@example(rows=[])
@example(rows=[7, 7, 0, 7])
def test_subset_is_a_standalone_stream(mini_cati, seeded_stream, rows):
    """``subset(rows)`` holds only its rows' windows, laid end to end, and
    encodes to the whole stream's id rows bit for bit, however the rows repeat
    or reorder, and when there are none."""
    stream = seeded_stream
    rows = [row % len(stream) for row in rows]
    sub = stream.subset(rows)
    assert len(sub.tokens) == len(rows) * (2 * WINDOW + 1)
    windows = stream.windows()
    assert sub.windows() == [windows[row] for row in rows]
    assert sub.variable_ids == [stream.variable_ids[row] for row in rows]
    encoder = mini_cati.encoder
    ids = encoder.encode_stream(sub)
    expected = encoder.encode_stream(stream)[np.asarray(rows, dtype=np.intp)]
    assert ids.dtype == expected.dtype and ids.shape == expected.shape
    assert ids.tobytes() == expected.tobytes()
