#!/usr/bin/env python
"""End-to-end smoke for interactive sessions (``scripts/check.sh --repl``).

Trains a throwaway mini model, launches ``python -m repro serve
--workers 2`` (the pre-fork router, so session stickiness is on the
path), then drives the *real* ``python -m repro repl`` CLI in ``--exec``
mode the way a user would:

1. ``open demo`` + the full tool walk — functions, ``type_variable``,
   ``explain``, ``annotate_disassembly``, ``struct_layouts`` — checking
   every rendered line against the offline in-process pipeline on the
   same binary (shared renderers make this byte equality);
2. TTL expiry — the daemon runs ``--session-ttl-s 2``; a scripted
   ``sleep 3`` between calls must surface the ``session gone`` notice
   and the REPL's automatic re-open must finish the script with rc 0;
3. an interactive-latency sample over ``ServeClient`` session bindings,
   recorded into ``BENCH_speed.json`` under ``serve.interactive``;
4. SIGTERM — the router drains to rc 0.

Exit status is the smoke's verdict, so CI can run it directly.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.render import (annotation_variable_ids,  # noqa: E402
                                   render_epsilons, render_listing)
from repro.codegen.compilers import GccCompiler  # noqa: E402
from repro.codegen.strip import strip  # noqa: E402
from repro.core.config import CatiConfig  # noqa: E402
from repro.core.occlusion import occlusion_epsilons_many  # noqa: E402
from repro.core.pipeline import Cati  # noqa: E402
from repro.datasets.corpus import build_small_corpus  # noqa: E402
from repro.embedding.word2vec import Word2VecConfig  # noqa: E402
from repro.experiments.speed import extents_from_debug  # noqa: E402
from repro.serve import protocol  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402
from repro.vuc.dataset import extract_unlabeled_vucs  # noqa: E402

ARTIFACT = os.path.join(os.path.dirname(__file__), "..", "BENCH_speed.json")
DEMO_SEED, DEMO_OPT = 77, 1


def fail(message: str) -> None:
    print(f"smoke_repl: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run_repl(port: int, commands: str) -> str:
    """One scripted ``python -m repro repl --exec`` run; must exit 0."""
    print(f"smoke_repl: repl --exec {commands!r}", flush=True)
    result = subprocess.run(
        [sys.executable, "-m", "repro", "repl", "--port", str(port),
         "--exec", commands],
        capture_output=True, text=True, timeout=600,
        env={**os.environ,
             "PYTHONPATH": os.path.join(os.path.dirname(__file__),
                                        "..", "src")})
    if result.returncode != 0:
        print(result.stdout, file=sys.stderr)
        print(result.stderr, file=sys.stderr)
        fail(f"repl exited {result.returncode} for {commands!r}")
    return result.stdout


def offline_expectations(cati: Cati):
    """What the served tools must print, computed fully in process."""
    binary = GccCompiler().compile_fresh(seed=DEMO_SEED, name="serve-demo",
                                         opt_level=DEMO_OPT)
    stripped, extents = strip(binary), extents_from_debug(binary)
    result = cati.infer_binary(stripped, extents, structs=True)
    types = {p.variable_id: str(p.predicted) for p in result}

    ids = annotation_variable_ids(stripped.functions[0], extents[0],
                                  f"{stripped.name}/0")
    annotation = {i: types[vid] for i, vid in ids.items() if vid in types}
    annotate_lines = render_listing(stripped.functions[0], annotation)

    pairs = extract_unlabeled_vucs(stripped, extents, cati.config.window)
    probe = sorted({vid for vid, _tokens in pairs})[0]
    window = next(tokens for vid, tokens in pairs if vid == probe)
    batched = occlusion_epsilons_many(cati, [window])
    explain_lines = render_epsilons(window, batched.epsilons[0])

    layouts = {
        "binary": stripped.name,
        "n_layouts": len(result.layouts),
        "layouts": [protocol.layout_to_dict(layout)
                    for layout in result.layouts],
    }
    return stripped, extents, types, probe, annotate_lines, explain_lines, layouts


def measure_interactive(port: int, stripped, extents) -> None:
    """p50/p99 of single-variable questions → BENCH_speed.json."""
    client = ServeClient("127.0.0.1", port, timeout=120)
    handle = client.session(binary=stripped, extents=extents)
    variables = handle.variables
    handle.type_variable(variables[0])  # warm
    latencies = []
    for index in range(30):
        t0 = time.perf_counter()
        handle.type_variable(variables[index % len(variables)])
        latencies.append(time.perf_counter() - t0)
    handle.close()
    latencies.sort()
    block = {
        "n_calls": len(latencies),
        "n_variables": len(variables),
        "p50_s": latencies[len(latencies) // 2],
        "p99_s": latencies[-1],
        "mean_s": sum(latencies) / len(latencies),
    }
    report = {}
    if os.path.exists(ARTIFACT):
        with open(ARTIFACT) as handle_file:
            report = json.load(handle_file)
    report.setdefault("serve", {})["interactive"] = block
    with open(ARTIFACT, "w") as handle_file:
        json.dump(report, handle_file, indent=2)
        handle_file.write("\n")
    print(f"smoke_repl: interactive p50 {block['p50_s'] * 1e3:.1f} ms, "
          f"p99 {block['p99_s'] * 1e3:.1f} ms over {block['n_calls']} calls "
          f"-> BENCH_speed.json serve.interactive", flush=True)


def main() -> None:
    print("smoke_repl: training mini model ...", flush=True)
    corpus = build_small_corpus()
    config = CatiConfig(
        epochs=5, fc_width=64,
        word2vec=Word2VecConfig(dim=32, window=5, epochs=1,
                                subsample_pairs=0.4))
    cati = Cati(config).train(corpus.train)

    print("smoke_repl: computing offline expectations ...", flush=True)
    (stripped, extents, types, probe, annotate_lines, explain_lines,
     layouts) = offline_expectations(cati)

    with tempfile.TemporaryDirectory(prefix="smoke-repl-") as scratch:
        bundle_dir = os.path.join(scratch, "bundle")
        cati.save(bundle_dir)

        print("smoke_repl: starting router (--workers 2, "
              "--session-ttl-s 2) ...", flush=True)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--model-dir", bundle_dir, "--port", "0", "--workers", "2",
             "--session-ttl-s", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env={**os.environ,
                 "PYTHONPATH": os.path.join(os.path.dirname(__file__),
                                            "..", "src")})
        try:
            port = None
            deadline = time.monotonic() + 300
            while time.monotonic() < deadline:
                line = process.stdout.readline()
                if not line:
                    fail(f"daemon exited before binding (rc={process.poll()})")
                print(f"  [daemon] {line.rstrip()}", flush=True)
                if line.startswith("serving on http://"):
                    port = int(line.rsplit(":", 1)[1])
                    break
            if port is None:
                fail("daemon never printed its address")

            open_cmd = f"open demo {DEMO_SEED} {DEMO_OPT}"

            # 1. The full tool walk, checked line-for-line vs offline.
            walk = run_repl(port, f"{open_cmd}; functions; vars; "
                                  f"type {probe}; explain {probe} 0; "
                                  f"annotate 0; layouts; close")
            if f"%0  {probe}" not in walk:
                fail(f"vars did not list {probe!r} first")
            type_line = f"{probe}: {types[probe]}"
            if type_line not in walk:
                fail(f"type output missing {type_line!r}")
            for line in explain_lines:
                if line not in walk:
                    fail(f"explain output missing line {line!r}")
            for line in annotate_lines:
                if line not in walk:
                    fail(f"annotate output missing line {line!r}")
            expected_layouts = json.dumps(layouts, indent=2, sort_keys=True)
            if expected_layouts not in walk:
                fail("layouts output diverges from the offline posterior")
            print(f"smoke_repl: tool walk matches offline "
                  f"({len(annotate_lines)} annotate lines, "
                  f"{len(explain_lines)} explain lines, "
                  f"{layouts['n_layouts']} layouts)", flush=True)

            # 2. TTL expiry mid-script: the REPL must notice the 410,
            # re-open, and still finish with rc 0.
            expiry = run_repl(port, f"{open_cmd}; sleep 3; functions; close")
            if "session gone" not in expiry:
                fail("TTL expiry never surfaced a 'session gone' notice")
            if "sub_" not in expiry:
                fail("post-expiry functions listing is missing")
            print("smoke_repl: TTL expiry -> 410 -> automatic re-open ok",
                  flush=True)

            # 3. Interactive latency sample through the client bindings.
            measure_interactive(port, stripped, extents)

            # 4. Drain.
            process.send_signal(signal.SIGTERM)
            try:
                rc = process.wait(timeout=120)
            except subprocess.TimeoutExpired:
                fail("router did not drain within 120s of SIGTERM")
            for line in process.stdout:
                print(f"  [daemon] {line.rstrip()}", flush=True)
            if rc != 0:
                fail(f"router exited {rc} after SIGTERM")
            print("smoke_repl: SIGTERM drain ok", flush=True)
        finally:
            if process.poll() is None:
                process.kill()

    print("smoke_repl: PASS", flush=True)


if __name__ == "__main__":
    main()
