"""Workload ``offline-corpus``: in-process ``Cati.infer_binary``, one binary
at a time, over a seeded synthetic corpus plus a real-ELF slice.

Every pass clears the engine's LRU, then runs each synthetic binary
through ``Cati.infer_binary`` (plain, structs off) and loads each real
ELF (the bundled ``frontend.csamples`` source compiled by the system gcc
at -O0/-O1/-O2 during set-up) through ``frontend.native.load_binary``
before inferring it.  Passes repeat until the run's seconds are spent;
a host-speed probe runs before each binary, outside its timing.

The traced pass re-runs the same binaries stage by stage (locate → group
→ window → generalize → encode → ``leaf_proba_ids`` → vote) with a span
around each call, and asserts its predictions equal ``infer_binary``'s.
The traced run then measures the serving layers with one serve-mixed
phase (see ``serving.layers``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from measure import (HostSpeed, Tracer, accuracy_counts, add_layers, clock, median,
                     mismatches, p95, peak_rss_mb, reference_votes, span_seconds)

import inputs
import serving
from repro.core import observability
from repro.core.pipeline import Cati, predictions_from_probs
from repro.frontend import native
from repro.frontend.compile import compile_sample
from repro.vuc import context, dataflow, dataset, generalize, locate

N_SYNTHETIC = 200


@dataclass
class OfflineEnv:
    seed: int
    work: Path
    cati: Cati
    items: list                      # synthetic inputs.Item
    elf_paths: list[tuple[int, Path]]
    timings: dict[str, float]
    references: dict = field(default_factory=dict)

    def close(self) -> None:
        pass


def setup(seed: int, work: Path) -> OfflineEnv:
    timings = {}
    began = clock()
    training = inputs.training_corpus()
    items = inputs.offline_inputs(seed, N_SYNTHETIC)
    timings["setup.corpus_s"] = clock() - began
    began = clock()
    cati = Cati(inputs.model_config()).train(training)
    timings["setup.train_s"] = clock() - began
    began = clock()
    cati.save(str(work / "model"))
    cati = Cati.load(str(work / "model"), warm_start=True)
    timings["setup.bundle_save_s"] = clock() - began
    began = clock()
    elf_paths = _compile_samples(work)
    timings["setup.compile_s"] = clock() - began
    return OfflineEnv(seed, work, cati, items, elf_paths, timings)


def _compile_samples(work: Path) -> list[tuple[int, Path]]:
    """``frontend.csamples`` compiled by the system gcc at every opt level."""
    return [(opt_level, compile_sample(opt_level=opt_level,
                                       workdir=str(work / f"csample-O{opt_level}"))
             .binary_path)
            for opt_level in inputs.OPT_LEVELS]


def _trace_frontend(tracer: Tracer) -> None:
    tracer.time_method(native.ElfFile, "load", "frontend.elf")
    tracer.time_function(native, "decode_function", "frontend.decode")
    tracer.time_function(native, "native_variables", "frontend.dwarf")


def frontend_layers(work: Path, speed: HostSpeed, loads: int = 20) -> dict:
    """Frontend figures for a workload that reads no real ELF itself: the
    samples compiled once, then each loaded ``loads`` times, traced."""
    began = clock()
    elf_paths = _compile_samples(work)
    metrics = {"setup.compile_s": (clock() - began, "s")}
    tracer = Tracer()
    _trace_frontend(tracer)
    try:
        for _ in range(loads):
            for opt_level, path in elf_paths:
                speed.probe()
                _load_elf(opt_level, path)
    finally:
        tracer.restore()
    per = 1.0 / (loads * len(elf_paths))
    for layer in ("elf", "decode", "dwarf"):
        metrics[f"frontend.{layer}_s"] = (tracer.self_s[f"frontend.{layer}"] * per, "s")
    return metrics


def _load_elf(opt_level: int, path: Path) -> inputs.Item:
    return inputs.native_item(native.load_binary(path), f"csample-O{opt_level}",
                              opt_level)


def _observed(predictions) -> list[tuple[str, str, int]]:
    return [(p.variable_id, str(p.predicted), p.n_vucs) for p in predictions]


def _references(env: OfflineEnv) -> None:
    """Naive reference votes for every synthetic and real binary."""
    items = list(env.items) + [_load_elf(o, p) for o, p in env.elf_paths]
    pairs = [dataset.extract_unlabeled_vucs(item.stripped, item.extents,
                                            env.cati.config.window)
             for item in items]
    for item, votes in zip(items, reference_votes(env.cati, pairs)):
        env.references[item.name] = (votes, item.truth)


def _untraced(env: OfflineEnv, seconds: float, speed: HostSpeed) -> dict:
    """Whole passes until ``seconds`` elapse, a host probe before each binary."""
    cati = env.cati
    latencies: list[float] = []
    outputs: list[tuple[str, list]] = []
    passes = 0

    def timed(name: str, infer) -> None:
        speed.probe()
        t0 = clock()
        result = infer()
        latencies.append(clock() - t0)
        outputs.append((name, result))

    began = time.perf_counter()
    while True:
        cati.engine.clear_cache()
        for item in env.items:
            timed(item.name, lambda item=item: cati.infer_binary(item.stripped,
                                                                 item.extents))
        for opt_level, path in env.elf_paths:
            def real(opt_level=opt_level, path=path):
                item = _load_elf(opt_level, path)
                return cati.infer_binary(item.stripped, item.extents)
            timed(f"csample-O{opt_level}", real)
        passes += 1
        if time.perf_counter() - began >= seconds:
            break
    return {"latencies": latencies, "busy": sum(latencies),
            "windows": sum(p.n_vucs for _name, result in outputs for p in result),
            "outputs": outputs, "passes": passes,
            "elapsed": time.perf_counter() - began}


def _check(env: OfflineEnv, outputs) -> tuple[int, int, int, int]:
    """(operations, failed operations, correct variables, variables)."""
    failed = hits = total = 0
    first_pass: dict[str, object] = {}
    for name, result in outputs:
        reference, truth = env.references[name]
        observed = _observed(result)
        failed += (mismatches(observed, reference) > 0
                   or bool(getattr(result, "failures", None)))
        if name not in first_pass:
            first_pass[name] = result
            h, t = accuracy_counts(observed, truth)
            hits += h
            total += t
    return len(outputs), failed, hits, total


def run(env: OfflineEnv, seconds: float, trace: bool, speed: HostSpeed) -> dict:
    _references(env)
    if not trace:
        measured = _untraced(env, seconds, speed)
        ops, failed, hits, total = _check(env, measured["outputs"])
        n = len(measured["latencies"])
        return {
            "attempted": ops, "failed": failed,
            "metrics": {
                "binaries_per_s": (n / measured["busy"], "1/s"),
                "windows_per_s": (measured["windows"] / measured["busy"], "1/s"),
                "latency_p50_ms": (median(measured["latencies"]) * 1e3, "ms"),
                "latency_p95_ms": (p95(measured["latencies"]) * 1e3, "ms"),
                "type_accuracy": (hits / total, "ratio"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            },
            "counts": {"corpus": len(env.items) + len(env.elf_paths),
                       "latency_samples": n, "passes": measured["passes"],
                       "variables": total},
        }
    outcome = _traced(env, seconds, speed)
    # Every traced run reports every layer: the serving layers come from a
    # serve-mixed phase (too unsteady to be a workload of its own, see the
    # README), the batch and posterior layers from one batch pass.
    import batching

    add_layers(outcome, serving.layers(env.seed, env.work / "serve", seconds, speed))
    add_layers(outcome, batching.layers(env.seed, env.work / "batch", speed))
    return outcome


# -- traced pass -----------------------------------------------------------------


def _staged_infer(tracer: Tracer, cati: Cati, item: inputs.Item) -> list:
    """``infer_binary`` decomposed into its stages, one span per call."""
    window = cati.config.window
    engine = cati.engine
    pairs = []
    for func_index, func in enumerate(item.stripped.functions):
        extents = item.extents[func_index] if func_index < len(item.extents) else []
        if not extents:
            continue
        scope = f"{item.stripped.name}/{func_index}"
        with tracer.span("vuc.locate"):
            targets = locate.locate_targets(func)
            groups = dataflow.group_targets(targets, extents, scope)
        for group in groups:
            for target in group.targets:
                with tracer.span("vuc.window"):
                    vuc = context.extract_vuc(func, target.index, window)
                with tracer.span("vuc.generalize"):
                    tokens = generalize.generalize_window(vuc.window)
                pairs.append((group.variable_id, tokens))
    if not pairs:
        return []
    with tracer.span("embedding.encode"):
        ids = engine.encoder.encode_ids([t for _v, t in pairs],
                                        length=cati.config.vuc_length)
    with tracer.span("engine.classify"):
        probs = engine.leaf_proba_ids(ids)
    with tracer.span("voting.vote"):
        return predictions_from_probs(
            probs, [v for v, _t in pairs], cati.config.confidence_threshold,
            metrics=engine._metrics_on(),
            vote_detail=cati.config.metrics_vote_detail)


def _generalize_calls(env: OfflineEnv) -> tuple[int, int]:
    """``generalize_instruction`` calls and instructions over one program pass."""
    tracer = Tracer()
    tracer.count_function(generalize, "generalize_instruction", "generalize_instruction")
    instructions = 0
    try:
        env.cati.engine.clear_cache()
        for item in env.items:
            env.cati.infer_binary(item.stripped, item.extents)
            instructions += item.stripped.instruction_count()
    finally:
        tracer.restore()
    return tracer.calls["generalize_instruction"], instructions


def _traced(env: OfflineEnv, seconds: float, speed: HostSpeed) -> dict:
    cati = env.cati
    untraced = _untraced(env, seconds / 2, speed)
    baseline = {name: _observed(result) for name, result in untraced["outputs"]}
    base_scores = {name: [p.scores.tobytes() for p in result]
                   for name, result in untraced["outputs"]}

    tracer = Tracer()
    _trace_frontend(tracer)
    stats = cati.engine.stats
    stats.reset()
    registry_before = observability.snapshot()
    outputs = []
    probing = 0.0
    used = clock()
    began = time.perf_counter()
    try:
        while True:
            cati.engine.clear_cache()
            for item in env.items:
                probing += speed.probe()
                outputs.append((item.name, _staged_infer(tracer, cati, item)))
            for opt_level, path in env.elf_paths:
                probing += speed.probe()
                with tracer.span("frontend"):
                    item = _load_elf(opt_level, path)
                outputs.append((item.name, _staged_infer(tracer, cati, item)))
            if time.perf_counter() - began >= seconds / 2:
                break
    finally:
        tracer.restore()
    # The pass's own wall and CPU time, without the probes run between
    # binaries: shares divide span (wall) times, the overhead compares CPU
    # time with the untraced pass's.
    wall = time.perf_counter() - began - probing
    busy = clock() - used - probing
    registry_after = observability.snapshot()
    binaries = len(outputs)
    windows = sum(p.n_vucs for _n, preds in outputs for p in preds)

    # Integrity: the staged pass must reproduce infer_binary exactly.
    diverged = sum(
        _observed(preds) != baseline[name]
        or [p.scores.tobytes() for p in preds] != base_scores[name]
        for name, preds in outputs)
    ops, failed, _hits, _total = _check(env, outputs)
    calls, instructions = _generalize_calls(env)

    per = 1.0 / binaries
    n_elf = sum(1 for name, _p in outputs if name.startswith("csample-"))
    per_elf = 1.0 / max(n_elf, 1)
    self_s = tracer.self_s
    staged = ("vuc.locate", "vuc.window", "vuc.generalize", "embedding.encode",
              "engine.classify", "voting.vote")
    metrics = {
        "frontend.elf_s": (self_s["frontend.elf"] * per_elf, "s"),
        "frontend.decode_s": (self_s["frontend.decode"] * per_elf, "s"),
        "frontend.dwarf_s": (self_s["frontend.dwarf"] * per_elf, "s"),
        "vuc.locate_s": (self_s["vuc.locate"] * per, "s"),
        "vuc.window_s": (self_s["vuc.window"] * per, "s"),
        "vuc.generalize_s": (self_s["vuc.generalize"] * per, "s"),
        "vuc.generalize_calls_per_instruction": (calls / instructions, "count"),
        "embedding.encode_s": (self_s["embedding.encode"] * per, "s"),
        "engine.classify_s": (self_s["engine.classify"] * per, "s"),
        "voting.vote_s": (self_s["voting.vote"] * per, "s"),
        "engine.ctx_dedup_ratio": (stats.ctx_unique / max(stats.ctx_positions, 1), "ratio"),
        "engine.window_hit_ratio": ((stats.cache_hits + stats.store_hits)
                                    / max(stats.unique_windows, 1), "ratio"),
        "trace.overhead_ratio": ((busy / binaries)
                                 / (untraced["busy"] / len(untraced["latencies"])),
                                 "ratio"),
    }
    for leaf in ("embed", "conv1", "conv2", "heads"):
        metrics[f"engine.cascade.{leaf}_s"] = (
            span_seconds(registry_before, registry_after, f"cascade.{leaf}") * per, "s")
    for name in staged:
        metrics[f"share.{name.split('.', 1)[1]}"] = (self_s[name] / wall, "ratio")
    metrics["share.frontend"] = (tracer.total_s["frontend"] / wall, "ratio")
    return {
        "attempted": ops, "failed": failed + diverged,
        "metrics": metrics,
        "counts": {"binaries": binaries, "windows": windows,
                   "staged_divergences": diverged,
                   "generalize_calls": calls, "instructions": instructions},
    }
