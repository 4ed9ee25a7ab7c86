"""Shared fixtures: tiny deterministic corpora and a mini-trained CATI.

Session-scoped so the expensive bits (corpus compilation, mini training)
run once per pytest invocation.
"""

from __future__ import annotations

import pytest

from repro.codegen.compilers import GccCompiler
from repro.core.config import CatiConfig
from repro.core.pipeline import Cati
from repro.datasets.corpus import build_small_corpus
from repro.embedding.word2vec import Word2VecConfig


@pytest.fixture(scope="session")
def small_corpus():
    """2 train projects + 2 test apps at -O0/-O2 (seconds to build)."""
    return build_small_corpus()


@pytest.fixture(scope="session")
def demo_binary():
    """One unstripped synthetic binary with debug info."""
    return GccCompiler().compile_fresh(seed=1, name="demo", opt_level=0)


@pytest.fixture(scope="session")
def mini_config():
    return CatiConfig(
        epochs=5,
        fc_width=64,
        word2vec=Word2VecConfig(dim=32, window=5, epochs=1, subsample_pairs=0.4),
    )


@pytest.fixture(scope="session")
def mini_cati(small_corpus, mini_config):
    """A quickly trained CATI over the small corpus (≈2 s once)."""
    return Cati(mini_config).train(small_corpus.train)


@pytest.fixture(scope="session")
def mini_cache(small_corpus, mini_cati):
    """Prediction cache of the mini model over the small test corpus."""
    from repro.experiments.common import PredictionCache

    return PredictionCache.build(mini_cati, small_corpus.test)
