#!/usr/bin/env python
"""Reverse-engineering scenario: annotate a stripped binary's listing.

Produces Fig. 2-style output — the raw disassembly with each located
variable instruction annotated with CATI's inferred type — the artifact
a reverse engineer would load into their disassembler's comment stream.

By default the annotation comes from a *serving daemon*: the script
trains a small model, stands up a local :class:`ServeDaemon`, opens an
analysis session on the stripped binary, and calls the
``annotate_disassembly`` tool — the same round-trip a decompiler plugin
would make.  ``--connect HOST:PORT`` skips the training and talks to a
daemon you already run; ``--offline`` keeps the classic in-process path
(no server at all).  Both paths render through
:mod:`repro.analysis.render`, so their output is byte-identical.
"""

import argparse
import tempfile
import threading

from repro.analysis.render import annotation_variable_ids, render_listing
from repro.codegen import GccCompiler, strip
from repro.core import Cati, CatiConfig
from repro.datasets import build_small_corpus
from repro.experiments.speed import extents_from_debug
from repro.serve.client import ServeClient


def compile_target():
    """The demo binary every mode annotates: seed 4242, -O0."""
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
    daemon = ServeDaemon(bundle_dir, host="127.0.0.1", port=0)
    thread = threading.Thread(target=daemon.run, daemon=True)
    thread.start()
    return daemon, thread


def annotate_offline(cati: Cati, stripped, extents, func_index: int) -> list[str]:
    predictions = {p.variable_id: str(p.predicted)
                   for p in cati.infer_binary(stripped, extents)}
    ids = annotation_variable_ids(stripped.functions[func_index],
                                  extents[func_index],
                                  f"{stripped.name}/{func_index}")
    annotation = {index: predictions[variable_id]
                  for index, variable_id in ids.items()
                  if variable_id in predictions}
    return render_listing(stripped.functions[func_index], annotation)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--offline", action="store_true",
                        help="classic in-process path, no daemon")
    parser.add_argument("--connect", metavar="HOST:PORT", default=None,
                        help="use a running daemon instead of training one")
    args = parser.parse_args()

    stripped, extents = compile_target()
    func = stripped.functions[0]

    if args.offline:
        lines = annotate_offline(train_small(), stripped, extents, 0)
    else:
        daemon = thread = None
        if args.connect:
            host, _, port = args.connect.rpartition(":")
            client = ServeClient(host or "127.0.0.1", int(port))
        else:
            daemon, thread = local_daemon(train_small())
            client = ServeClient(daemon.host, daemon.port)
        session = client.session(binary=stripped, extents=extents)
        lines = session.annotate_disassembly(function=0)["lines"]
        session.close()
        if daemon is not None:
            daemon.request_shutdown()
            thread.join(timeout=30)

    print(f"\n{func.name} (stripped) with inferred types:")
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
