"""Workload ``batch-recompile``: in-process ``repro.batch.run_job`` with the
durable window cache and ``structs=True``.

A pass runs a cold job over corpus A into a fresh cache, then a warm job
over corpus B, which keeps most of A's binaries and swaps a few for new
ones (a recompile).  Every pass gets fresh job and cache directories and
its own seeded manifest order (see ``inputs.batch_orders``).  Items are
wire-format files written at set-up, one shard per binary.
Throughput is the cold jobs'; per-binary latency is sampled over both
jobs of every pass.  Warm throughput, the cache hit ratio and the cache
and checkpoint costs are per-layer figures of the traced run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from measure import (HostSpeed, Tracer, accuracy_counts, add_layers, clock,
                     engine_metrics, median, mismatches, p95, peak_rss_mb,
                     reference_votes)

import inputs
import repro.posterior
from repro.batch import JobSpec, cache, job, load_manifest, run_job, spec
from repro.core import observability, pipeline
from repro.core.engine import InferenceEngine
from repro.core.pipeline import Cati
from repro.embedding.encoder import VucEncoder
from repro.vuc import context, dataset, generalize, locate
from repro.vuc.dataset import extract_unlabeled_vucs

N_CORPUS = 80
N_CHANGED = 16       # binaries of A replaced in B by the recompile
N_ORDERS = 8         # manifest orders, used by passes in turn


@dataclass
class BatchEnv:
    seed: int
    cati: Cati
    bundle: Path
    work: Path
    manifests: list[tuple[Path, Path]]   # (A, B) per order
    items: dict              # name -> inputs.Item (A ∪ B)
    timings: dict[str, float]
    references: dict = field(default_factory=dict)

    def close(self) -> None:
        pass


def setup(seed: int, work: Path) -> BatchEnv:
    work.mkdir(parents=True, exist_ok=True)
    timings = {}
    began = clock()
    training = inputs.training_corpus()
    corpus_a, corpus_b = inputs.batch_inputs(seed, N_CORPUS, N_CHANGED)
    manifests = [(inputs.write_manifest(work / "corpus", order_a, f"a{k}"),
                  inputs.write_manifest(work / "corpus", order_b, f"b{k}"))
                 for k, (order_a, order_b) in enumerate(zip(
                     inputs.batch_orders(seed, corpus_a, N_ORDERS),
                     inputs.batch_orders(seed, corpus_b, N_ORDERS)))]
    timings["setup.corpus_s"] = clock() - began
    began = clock()
    cati = Cati(inputs.model_config()).train(training)
    timings["setup.train_s"] = clock() - began
    began = clock()
    bundle = work / "model"
    cati.save(str(bundle))
    timings["setup.bundle_save_s"] = clock() - began
    return BatchEnv(seed, cati, bundle, work, manifests,
                    {item.name: item for item in corpus_a + corpus_b}, timings)


def _references(env: BatchEnv) -> None:
    names = list(env.items)
    pairs = [extract_unlabeled_vucs(env.items[n].stripped, env.items[n].extents,
                                    env.cati.config.window) for n in names]
    for name, votes in zip(names, reference_votes(env.cati, pairs)):
        env.references[name] = votes


class _Feed:
    """Timestamps of item loads: the job's input-feed boundary.

    Not tracing: one clock read per binary, the batch analogue of a
    client stamping its requests.  With one binary per shard, the gap
    between consecutive loads is one binary's complete cost: load,
    infer, posterior, cache flush and checkpoint commit.  A host-speed
    probe runs before each stamp and is taken out of the gaps.
    """

    def __init__(self, speed: HostSpeed) -> None:
        self.stamps: list[float] = []
        self.probes: list[float] = []
        self._speed = speed
        self._original = spec.ManifestItem.load

    def __enter__(self) -> "_Feed":
        original, speed = self._original, self._speed

        def load(item):
            self.probes.append(speed.probe())
            self.stamps.append(clock())
            return original(item)

        spec.ManifestItem.load = load
        return self

    def __exit__(self, *exc_info) -> None:
        spec.ManifestItem.load = self._original


def _job(env: BatchEnv, manifest: Path, job_dir: Path, cache_dir: Path,
         speed: HostSpeed) -> tuple[dict, float, list[float]]:
    """One job: (results, seconds without probes, per-binary latencies)."""
    job_spec = JobSpec(items=load_manifest(manifest), shard_size=1, structs=True)
    with _Feed(speed) as feed:
        began = clock()
        results = run_job(job_dir, job_spec, model_dir=str(env.bundle),
                          cache_dir=cache_dir)
        ended = clock()
    # Load-to-load gaps less the next load's probe.  The last binary has
    # no next load (its gap would include merging the job's results), so
    # it gives no latency sample.
    marks = feed.stamps
    gaps = [b - a - p for a, b, p in zip(marks, marks[1:], feed.probes[1:])]
    return results, ended - began - sum(feed.probes), gaps


def _passes(env: BatchEnv, seconds: float, tag: str, speed: HostSpeed) -> dict:
    """Cold + warm job pairs until ``seconds`` elapse."""
    out = {"cold_s": 0.0, "warm_s": 0.0, "cold_binaries": 0, "warm_binaries": 0,
           "windows": 0, "latencies": [], "results": [], "hits": 0, "misses": 0,
           "corrupt": 0, "passes": 0}
    began = time.perf_counter()
    while True:
        root = env.work / f"{tag}-pass-{out['passes']}"
        manifest_a, manifest_b = env.manifests[out["passes"] % len(env.manifests)]
        cold, cold_s, cold_lat = _job(env, manifest_a, root / "job-a",
                                      root / "cache", speed)
        warm, warm_s, warm_lat = _job(env, manifest_b, root / "job-b",
                                      root / "cache", speed)
        out["latencies"] += cold_lat + warm_lat
        out["cold_s"] += cold_s
        out["warm_s"] += warm_s
        out["cold_binaries"] += cold["items"]
        out["warm_binaries"] += warm["items"]
        out["windows"] += sum(p["n_vucs"] for preds in cold["predictions"].values()
                              for p in preds)
        for results in (cold, warm):
            out["corrupt"] += results["window_cache"]["corrupt_records"]
            out["results"].append(results)
        out["hits"] += warm["window_cache"]["hits"]
        out["misses"] += warm["window_cache"]["misses"]
        out["passes"] += 1
        if time.perf_counter() - began >= seconds:
            break
    return out


def _check(env: BatchEnv, measured: dict) -> tuple[int, int, int, int]:
    """(binaries attempted, failed, correct variables, variables)."""
    attempted = failed = 0
    observed_by_name = {}
    for results in measured["results"]:
        attempted += results["items"]
        for name, preds in results["predictions"].items():
            observed = [(p["variable_id"], p["predicted"], p["n_vucs"]) for p in preds]
            failed += mismatches(observed, env.references[name]) > 0
            observed_by_name.setdefault(name, observed)
        failed += len(results["shards"]["quarantined"]) + len(results["shards"]["missing"])
    hits = total = 0
    for name, observed in observed_by_name.items():
        h, t = accuracy_counts(observed, env.items[name].truth)
        hits += h
        total += t
    return attempted, failed, hits, total


def layers(seed: int, work: Path, speed: HostSpeed) -> dict:
    """Batch and posterior figures of one traced pass, set up once, for a
    traced run of another workload."""
    env = setup(seed, work)
    _references(env)
    outcome = _traced(env, 0.0, speed)
    metrics = {name: value for name, value in outcome["metrics"].items()
               if name.startswith(("batch.", "posterior."))}
    return {**outcome, "metrics": metrics}


def run(env: BatchEnv, seconds: float, trace: bool, speed: HostSpeed) -> dict:
    _references(env)
    if trace:
        # Every traced run reports every layer: the serving layers come
        # from a serve-mixed phase, the frontend from the real ELFs.
        import offline
        import serving

        outcome = _traced(env, seconds, speed)
        add_layers(outcome, serving.layers(env.seed, env.work / "serve", seconds, speed))
        add_layers(outcome, {"metrics": offline.frontend_layers(env.work / "elf", speed)})
        return outcome
    measured = _passes(env, seconds, "run", speed)
    attempted, failed, hits, total = _check(env, measured)
    return {
        "attempted": attempted, "failed": failed,
        "metrics": {
            "binaries_per_s": (measured["cold_binaries"] / measured["cold_s"], "1/s"),
            "windows_per_s": (measured["windows"] / measured["cold_s"], "1/s"),
            "latency_p50_ms": (median(measured["latencies"]) * 1e3, "ms"),
            "latency_p95_ms": (p95(measured["latencies"]) * 1e3, "ms"),
            "type_accuracy": (hits / total, "ratio"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
        "counts": {"passes": measured["passes"],
                   "latency_samples": len(measured["latencies"]),
                   "cold_binaries": measured["cold_binaries"],
                   "warm_binaries": measured["warm_binaries"], "variables": total,
                   "cold_job_s": measured["cold_s"], "warm_job_s": measured["warm_s"]},
    }


def _traced(env: BatchEnv, seconds: float, speed: HostSpeed) -> dict:
    untraced = _passes(env, seconds / 2, "untraced", speed)
    tracer = Tracer()
    tracer.time_method(cache.WindowCacheStore, "get_many", "batch.cache_get")
    tracer.time_method(cache.WindowCacheStore, "put_many", "batch.cache_put")
    tracer.time_method(job.BatchJobStore, "write_checkpoint", "batch.checkpoint")
    tracer.time_function(repro.posterior, "recover_layouts", "posterior.layouts")
    tracer.time_function(locate, "locate_targets", "vuc.locate")
    tracer.time_function(dataset, "group_targets", "vuc.locate")
    tracer.time_function(context, "extract_vuc", "vuc.window")
    tracer.time_function(generalize, "generalize_window", "vuc.generalize")
    tracer.time_method(VucEncoder, "encode_ids", "embedding.encode")
    tracer.time_method(InferenceEngine, "leaf_proba_ids", "engine.classify")
    tracer.time_function(pipeline, "predictions_from_probs", "voting.vote")
    before = observability.snapshot()
    try:
        traced = _passes(env, seconds / 2, "traced", speed)
    finally:
        tracer.restore()
    after = observability.snapshot()
    attempted, failed, _hits, _total = _check(env, traced)
    binaries = traced["cold_binaries"] + traced["warm_binaries"]
    per = 1.0 / binaries

    def seconds_per_binary(measured: dict) -> float:
        return ((measured["cold_s"] + measured["warm_s"])
                / (measured["cold_binaries"] + measured["warm_binaries"]))

    self_s = tracer.self_s
    metrics = {
        "batch.warm_binaries_per_s": (untraced["warm_binaries"] / untraced["warm_s"],
                                      "1/s"),
        "batch.cache_hit_ratio": (untraced["hits"]
                                  / max(untraced["hits"] + untraced["misses"], 1),
                                  "ratio"),
        "batch.corrupt_records": (untraced["corrupt"] + traced["corrupt"], "count"),
        "trace.overhead_ratio": (seconds_per_binary(traced) / seconds_per_binary(untraced),
                                 "ratio"),
    }
    metrics.update(engine_metrics(before, after, per))
    for name in ("batch.cache_get", "batch.cache_put", "batch.checkpoint",
                 "posterior.layouts", "vuc.locate", "vuc.window", "vuc.generalize",
                 "embedding.encode", "engine.classify", "voting.vote"):
        metrics[f"{name}_s"] = (self_s[name] * per, "s")
    return {
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "counts": {"passes": untraced["passes"] + traced["passes"],
                   "binaries": binaries},
    }
