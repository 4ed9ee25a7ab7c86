#!/usr/bin/env python3
"""The CATI end-to-end benchmark.

    python3 e2ebench/run.py --workload offline-corpus --seed 1 --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with no tracing; ``--trace 1`` runs the traced pass and reports
the per-layer metrics instead.  Set-up (corpus generation, mini-model
training, bundle save, and the workload's own preparation) runs
``SETUP_REPEATS`` times and ``setup_s`` is the median.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``e2ebench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_REPEATS = 3
WORKLOADS = ("offline-corpus", "serve-mixed", "batch-recompile")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _module(workload: str):
    if workload == "offline-corpus":
        import offline
        return offline
    if workload == "serve-mixed":
        import serving
        return serving
    import batching
    return batching


def _conform(metrics: dict, kind: str) -> dict:
    """Check measured metrics against BENCHMARK.json's ``kind`` list.

    Every listed end-to-end metric must be measured.  A per-layer metric
    a workload does not produce belongs to a layer the workload leaves
    idle and reads 0.  A name or unit not in the list is a bug.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec[kind]}
    for name, (_value, unit) in metrics.items():
        if units.get(name) != unit:
            raise SystemExit(f"e2ebench: {name} [{unit}] is not a {kind} metric")
    missing = sorted(set(units) - set(metrics))
    if kind == "end_to_end" and missing:
        raise SystemExit(f"e2ebench: end-to-end metrics not measured: {missing}")
    return {**{name: (0.0, units[name]) for name in missing}, **metrics}


def _at_nominal(metrics: dict, speed: float) -> dict:
    """Scale timings to the nominal host speed (see ``measure.HostSpeed.scale``)."""
    scale = {"s": 1.0 / speed, "ms": 1.0 / speed, "1/s": speed}
    return {name: (value * scale.get(unit, 1.0), unit)
            for name, (value, unit) in metrics.items()}


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program sources at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    # One BLAS thread per process, set before numpy loads: the workloads
    # get their parallelism from processes and client threads, and spare
    # BLAS threads spinning on a two-core box only add noise.
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    import measure

    workload = _module(args.workload)
    work = ROOT / ".e2ebench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = None
    setup_speed, run_speed = measure.HostSpeed(), measure.HostSpeed()
    try:
        setup_times = []
        breakdown: dict[str, list[float]] = {}
        for attempt in range(SETUP_REPEATS):
            if env is not None:
                env.close()
            setup_speed.burst()
            began = measure.clock()
            env = workload.setup(args.seed, work / f"setup-{attempt}")
            setup_times.append(measure.clock() - began)
            for name, value in env.timings.items():
                breakdown.setdefault(name, []).append(value)
        setup_speed.burst()
        # This process holds the whole seeded corpus and the model, far
        # more than a user's process would; Python's full collections
        # walked all of it, stalling ~5% of binaries by 40-50 ms, right at
        # the p95.  Frozen objects are left out of collection; what the
        # program allocates from here on is collected as usual.
        gc.collect()
        gc.freeze()
        outcome = workload.run(env, args.seconds, bool(args.trace), run_speed)
    finally:
        if env is not None:
            env.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still works there

    if args.trace:
        setup = {name: (measure.median(values), "s") for name, values in breakdown.items()}
    else:
        setup = {"setup_s": (measure.median(setup_times), "s")}
    raw = {**setup, **outcome["metrics"]}
    metrics = _conform({**_at_nominal(setup, setup_speed.scale()),
                        **_at_nominal(outcome["metrics"], run_speed.scale())},
                       "per_layer" if args.trace else "end_to_end")
    attempted, failed = int(outcome["attempted"]), int(outcome["failed"])
    counts = dict(outcome.get("counts", {}))
    counts.update(attempted=attempted, succeeded=attempted - failed, failed=failed,
                  setup_repeats=SETUP_REPEATS)
    print(json.dumps({"stamp": measure.stamp(args.seed, args.workload, counts),
                      "error_rate": failed / max(attempted, 1),
                      "host_factor": {"setup": setup_speed.factor(),
                                      "run": run_speed.factor()}}, sort_keys=True))
    print(f"{'metric':42s} {'at nominal host':>16s} {'as timed':>16s}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:42s} {value:16.6f} {raw.get(name, (value,))[0]:16.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
