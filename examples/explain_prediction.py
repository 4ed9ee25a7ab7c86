#!/usr/bin/env python
"""Explainability scenario: occlusion importance (Fig. 6).

Prints the per-instruction ε (eq. 5) for one VUC of one variable in a
stripped binary: re-prediction confidence with each instruction BLANKed
out, relative to the unoccluded confidence.  Small ε = the instruction
mattered; the paper shows the target and its same-type neighbours carry
the prediction.

By default the explanation comes from a *serving daemon*: the script
trains a small model, stands up a local :class:`ServeDaemon`, opens an
analysis session on the stripped binary, and calls the ``explain``
tool.  ``--connect HOST:PORT`` talks to a daemon you already run;
``--offline`` computes the same ε in process.  Both paths render
through :func:`repro.analysis.render.render_epsilons`, so their output
is byte-identical.
"""

import argparse
import tempfile
import threading

from repro.analysis.render import render_epsilons
from repro.codegen import GccCompiler, strip
from repro.core import Cati, CatiConfig, occlusion_epsilons_many
from repro.core.types import ALL_TYPES
from repro.datasets import build_small_corpus
from repro.experiments.speed import extents_from_debug
from repro.serve.client import ServeClient
from repro.vuc.dataset import extract_unlabeled_vucs


def compile_target():
    """The demo binary every mode explains: seed 4242, -O0."""
    binary = GccCompiler().compile_fresh(seed=4242, name="target", opt_level=0)
    return strip(binary), extents_from_debug(binary)


def train_small() -> Cati:
    print("training CATI on a small corpus...")
    corpus = build_small_corpus()
    return Cati(CatiConfig(epochs=8)).train(corpus.train)


def local_daemon(cati: Cati):
    """Save the model to a bundle and serve it from a daemon thread."""
    from repro.serve.server import ServeDaemon

    bundle_dir = tempfile.mkdtemp(prefix="cati-example-")
    cati.save(bundle_dir)
    daemon = ServeDaemon(bundle_dir, host="127.0.0.1", port=0,
                         config=cati.config)
    thread = threading.Thread(target=daemon.run, daemon=True)
    thread.start()
    return daemon, thread


def explain_offline(cati: Cati, stripped, extents) -> tuple[str, str, float, list[str]]:
    """(variable_id, predicted, base confidence, rendered lines) offline.

    Picks the alphabetically-first variable's first VUC — exactly what
    ``session.variables[0]`` + ``vuc=0`` names on the served path (the
    open response sorts variable ids; per-variable VUCs keep extraction
    order), so the two modes explain the same window.
    """
    pairs = extract_unlabeled_vucs(stripped, extents, cati.config.window)
    variable_id = sorted({vid for vid, _tokens in pairs})[0]
    window = next(tokens for vid, tokens in pairs if vid == variable_id)
    batched = occlusion_epsilons_many(cati, [window])
    predicted = str(ALL_TYPES[int(batched.predicted_indices[0])])
    base = float(batched.base_confidences[0])
    return variable_id, predicted, base, render_epsilons(window, batched.epsilons[0])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--offline", action="store_true",
                        help="classic in-process path, no daemon")
    parser.add_argument("--connect", metavar="HOST:PORT", default=None,
                        help="use a running daemon instead of training one")
    args = parser.parse_args()

    stripped, extents = compile_target()

    if args.offline:
        variable_id, predicted, base, lines = explain_offline(
            train_small(), stripped, extents)
    else:
        daemon = thread = None
        if args.connect:
            host, _, port = args.connect.rpartition(":")
            client = ServeClient(host or "127.0.0.1", int(port))
        else:
            daemon, thread = local_daemon(train_small())
            client = ServeClient(daemon.host, daemon.port)
        session = client.session(binary=stripped, extents=extents)
        variable_id = session.variables[0]
        result = session.explain(variable_id, vuc=0)
        predicted, base = result["predicted"], result["base_confidence"]
        lines = result["lines"]
        session.close()
        if daemon is not None:
            daemon.request_shutdown()
            thread.join(timeout=30)

    print(f"\nexplaining one VUC of {variable_id}")
    print(f"predicted: {predicted} (confidence {base:.3f})\n")
    for line in lines:
        print(line)
    print("\n('#' bars mark instructions whose removal hurts the prediction)")


if __name__ == "__main__":
    main()
