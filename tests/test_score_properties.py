"""Properties that ``InferenceEngine.score`` and its ``Analysis`` rely on.

One ``score`` call classifies many streams together (the serving
scheduler coalesces requests this way), and a session's
``type_variable`` votes a variable from that variable's rows alone.
Both are sound only if a window's leaf row does not depend on what else
shares its engine call, and a variable's vote only on its own rows.
Struct layouts pool objects across functions, so permuting a binary's
functions must give the same layouts once variable ids follow the new
function indices; that property does not hold yet and is marked as a
known failure.  The streams come from seeded mini-corpus binaries; the
engine runs with its leaf-row cache off and a small chunk size, so every
call recomputes every row and chunk boundaries move with the batch
composition.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.codegen import GccCompiler, strip
from repro.core import engine as engine_module
from repro.core.engine import InferenceEngine
from repro.experiments.speed import extents_from_debug
from repro.vuc.stream import extract_vuc_stream

TOL = 1e-6


@pytest.fixture(scope="module")
def engine(mini_cati):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "DEDUP_CACHE_SIZE", 0)
        patch.setattr(engine_module, "MAX_BATCH", 128)
        yield InferenceEngine(mini_cati.classifier, mini_cati.encoder, mini_cati.config)


@pytest.fixture(scope="module")
def binaries():
    """(stripped binary, extents) for three seeded binaries, -O0 to -O2."""
    out = []
    for level, seed in enumerate((401, 402, 403)):
        binary = GccCompiler().compile_fresh(seed=seed, name=f"prop-{seed}",
                                             opt_level=level)
        out.append((strip(binary), extents_from_debug(binary)))
    return out


@pytest.fixture(scope="module")
def streams(mini_cati, binaries):
    return [extract_vuc_stream(stripped, extents, mini_cati.config.window, sites=True)
            for stripped, extents in binaries]


@pytest.fixture(scope="module")
def alone(engine, streams):
    """Each stream scored in an engine call of its own."""
    return [engine.score([stream])[0] for stream in streams]


def assert_same_votes(ours, theirs) -> None:
    assert ([(p.variable_id, p.predicted, p.n_vucs) for p in ours]
            == [(p.variable_id, p.predicted, p.n_vucs) for p in theirs])
    for a, b in zip(ours, theirs):
        assert np.abs(a.scores - b.scores).max() <= TOL


@settings(max_examples=20, deadline=None)
@given(picks=st.lists(st.integers(0, 2), min_size=1, max_size=6))
def test_duplicated_or_permuted_streams_score_alike(engine, streams, alone, picks):
    analyses = engine.score([streams[i] for i in picks])
    assert len(analyses) == len(picks)
    for i, analysis in zip(picks, analyses):
        assert analysis.stream is streams[i]
        assert analysis.probs.shape == alone[i].probs.shape
        assert np.abs(analysis.probs - alone[i].probs).max() <= TOL
        assert_same_votes(analysis.predictions, alone[i].predictions)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_subset_votes_like_the_whole_stream(engine, streams, alone, data):
    index = data.draw(st.integers(0, len(streams) - 1))
    stream, whole = streams[index], alone[index]
    by_id = {p.variable_id: p for p in whole.predictions}
    chosen = set(data.draw(st.lists(st.sampled_from(sorted(by_id)),
                                    min_size=1, max_size=4, unique=True)))
    rows = [row for row, variable_id in enumerate(stream.variable_ids)
            if variable_id in chosen]
    (part,) = engine.score([stream.subset(rows)])
    assert {p.variable_id for p in part.predictions} == chosen
    assert_same_votes(part.predictions, [by_id[p.variable_id] for p in part.predictions])


def layouts_by_objects(layouts, rename=lambda object_id: object_id) -> dict:
    """Layouts keyed by their (renamed) pooled objects; fields as tuples."""
    return {frozenset(map(rename, layout.objects)):
            (layout.n_accesses,
             [(f.offset, f.label, f.n_accesses, f.width, f.confidence, f.margin)
              for f in layout.fields])
            for layout in layouts}


@pytest.mark.xfail(strict=True, reason=(
    "known defect: posterior._cluster_objects visits objects with equal offset "
    "counts in object-id order, and ids carry function indices, so reordering "
    "functions can change which objects pool together"))
@settings(max_examples=15, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))  # known failure: no shrinking
@given(data=st.data())
def test_layouts_do_not_depend_on_function_order(engine, binaries, mini_cati, data):
    stripped, extents = binaries[data.draw(st.integers(0, len(binaries) - 1))]
    order = data.draw(st.permutations(range(len(stripped.functions))))
    permuted = dataclasses.replace(
        stripped, functions=[stripped.functions[i] for i in order])
    new_index = {old: new for new, old in enumerate(order)}

    def rename(object_id: str) -> str:
        # "<binary>/<function index>::<slot>[->]": the index moves with the function.
        scope, _, slot = object_id.partition("::")
        binary, _, index = scope.rpartition("/")
        return f"{binary}/{new_index[int(index)]}::{slot}"

    window = mini_cati.config.window
    (before,) = engine.score([extract_vuc_stream(stripped, extents, window, sites=True)])
    (after,) = engine.score([extract_vuc_stream(
        permuted, [extents[i] for i in order], window, sites=True)])
    assert before.layouts, "no layouts to compare"
    expected = layouts_by_objects(before.layouts, rename)
    got = layouts_by_objects(after.layouts)
    assert got.keys() == expected.keys()
    for objects, (n_accesses, fields) in got.items():
        want_accesses, want_fields = expected[objects]
        assert n_accesses == want_accesses
        assert [f[:4] for f in fields] == [f[:4] for f in want_fields]
        for ours, theirs in zip(fields, want_fields):
            assert abs(ours[4] - theirs[4]) <= TOL and abs(ours[5] - theirs[5]) <= TOL
