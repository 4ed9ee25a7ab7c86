"""Benchmark fixtures: the full trained contexts, cached on disk.

The first run trains CATI on the full GCC (and, for Table VII, Clang)
corpus (~3 minutes each on a 2-core x86-64 box); subsequent runs reload the
cached models from ``.cache/`` in seconds.  Each bench then measures the
table/figure *generation* step and prints the reproduced table next to
the paper's reference values.
"""

import pytest


@pytest.fixture(scope="session")
def gcc_context():
    from repro.experiments.common import get_context

    return get_context("gcc")


@pytest.fixture(scope="session")
def clang_context():
    from repro.experiments.common import get_context

    return get_context("clang")


@pytest.fixture(scope="session")
def gcc_predictions(gcc_context):
    """Prediction cache over the GCC test corpus (built once)."""
    from repro.experiments.common import predictions_for

    return predictions_for(gcc_context)
