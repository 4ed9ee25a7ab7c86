"""Properties that ``InferenceEngine.score`` and its ``Analysis`` rely on.

One ``score`` call classifies many streams together (the serving
scheduler coalesces requests this way), and a session's
``type_variable`` votes a variable from that variable's rows alone.
Both are sound only if a window's leaf row does not depend on what else
shares its engine call, and a variable's vote only on its own rows.
The streams come from seeded mini-corpus binaries; the engine runs with
its leaf-row cache off and a small chunk size, so every call recomputes
every row and chunk boundaries move with the batch composition.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen import GccCompiler, strip
from repro.core.engine import InferenceEngine
from repro.experiments.speed import extents_from_debug
from repro.vuc.stream import extract_vuc_stream

TOL = 1e-6


@pytest.fixture(scope="module")
def engine(mini_cati):
    config = dataclasses.replace(mini_cati.config, dedup_cache_size=0, max_batch=128)
    return InferenceEngine(mini_cati.classifier, mini_cati.encoder, config)


@pytest.fixture(scope="module")
def streams(mini_cati):
    out = []
    for level, seed in enumerate((401, 402, 403)):
        binary = GccCompiler().compile_fresh(seed=seed, name=f"prop-{seed}",
                                             opt_level=level)
        out.append(extract_vuc_stream(strip(binary), extents_from_debug(binary),
                                      mini_cati.config.window, sites=True))
    return out


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
