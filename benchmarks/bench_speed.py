"""§VII — training/inference speed: extraction + prediction per binary.

Paper reference: ~6 s per typical binary (including IDA Pro extraction)
on an i7-6700K + GTX 1070.  Our numbers measure the same two stages
(VUC extraction and classify+vote) of the reimplementation on one CPU
core; the assertion is that the pipeline stays in interactive territory,
not that the absolute number matches foreign hardware.

``test_engine_speedup`` additionally races the batched dedup engine
against the naive float64 reference (``Cati.predict_variables`` /
``predict_vuc_proba``, which the engine must match to ≤1e-6) on the
classify+vote and occlusion hot paths.  It records throughput (VUCs/s)
for encode/classify/occlusion, a per-cascade-stage wall/cpu breakdown
plus per-chunk latency quantiles under
``classify_vote.stages``/``chunk_latency`` and a duplicated-window
scenario (the dedup layer must collapse a 2x stream for ~free) — all
merged into ``BENCH_speed.json`` at the repo root, together with the
run's observability counters and the measured overhead of
instrumentation (metrics enabled vs disabled on the engine hot path),
which the acceptance criteria cap at 5%.  The speed trajectory across
versions lives in the end-to-end benchmark (``e2ebench/``), not here.

``test_bundle_io`` adds the artifact-I/O trajectory: ModelBundle
save / checksum verify / load (cold and warm-started) on the full
trained model, merged into the same ``BENCH_speed.json`` under
``"artifacts"``.

``test_serve_throughput`` races the serving daemon (8 concurrent HTTP
clients through the micro-batching scheduler) against the raw engine
run over the same request-sized chunks, and records served VUC/s,
client-side p50/p99 latency and scheduler queue/batch statistics under
``"serve"``.

``test_serve_scaling`` runs the same barrage through the pre-fork
router at 1, 2 and ``min(cores, 4)`` worker processes, best-of-5 with
its spread and the core count, recording throughput and per-worker RSS
under ``"serve.scaling"``; on ≥4-core machines 2 workers must reach
≥1.6x the single-worker throughput.

``test_interactive_latency`` opens an analysis session and measures
sequential single-variable ``type_variable`` calls — the interactive
REPL workload — recording p50/p99 under ``"serve.interactive"`` (the
only writer of that block) and asserting the small-batch path stays
within the scheduler's coalescing budget plus bounded per-call overhead.

Run the file under pytest (``pytest benchmarks/bench_speed.py -s``); it
needs the full trained model.  The engine's ≤1e-6 agreement with the
reference and its dedup-cache invariants on the mini model are tier-1
checks (``tests/test_engine.py``).
"""

import json
import os
import threading
import time
from pathlib import Path

import numpy as np

from repro.experiments import speed

_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_speed.json"


def _classify_vote(engine, windows, variable_ids) -> list:
    """Engine leaf rows voted per variable (eqs. 3-4), metrics as configured.

    The work ``InferenceEngine.score`` does per stream, on raw windows.
    """
    from repro.core.pipeline import predictions_from_probs

    return predictions_from_probs(
        engine.leaf_proba(windows), variable_ids, engine.config.confidence_threshold,
        metrics=engine._metrics_on(), vote_detail=engine.config.metrics_vote_detail)


def _best_of(fn, repeats: int = 3) -> float:
    """Minimum wall-clock of ``fn()`` over ``repeats`` runs, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_per_binary_speed(benchmark, gcc_context):
    result = benchmark.pedantic(
        speed.run, args=(gcc_context,), kwargs={"n_binaries": 8},
        rounds=1, iterations=1,
    )
    print()
    print(result.render())

    assert result.n_variables > 0
    # Interactive budget: well under a minute per (synthetic) binary;
    # the paper's 6 s/binary is the same order of magnitude.
    assert result.per_binary_total_s < 30.0
    assert result.per_binary_extract_s > 0.0
    assert result.per_binary_predict_s > 0.0


def test_engine_speedup(gcc_context):
    """Engine vs naive on the hot paths; merges into BENCH_speed.json."""
    from repro.core.occlusion import occlusion_epsilons, occlusion_epsilons_many

    cati = gcc_context.cati
    samples = list(gcc_context.corpus.test)[:2000]
    windows = [sample.tokens for sample in samples]
    variable_ids = [f"var{i // 4}" for i in range(len(windows))]
    engine = cati.engine
    length = cati.config.vuc_length

    # -- encode throughput ------------------------------------------------------
    cati.encode(windows)  # warm up (allocators, BLAS threads)
    encode_s = _best_of(lambda: cati.encode(windows))

    # -- classify + vote: naive reference vs engine -----------------------------
    def engine_cold():
        engine.clear_cache()
        _classify_vote(engine, windows, variable_ids)

    # Duplicated windows: every window appears twice; cold (cache
    # cleared) the engine must collapse the stream to its 2000 unique
    # windows before any kernel runs, and a warm repeat must be pure
    # cache hits.
    dup_windows = windows + windows
    dup_ids = variable_ids + [f"dup-{v}" for v in variable_ids]

    def engine_dup_cold():
        engine.clear_cache()
        _classify_vote(engine, dup_windows, dup_ids)

    engine_cold()  # warm up kernels (f32 mirrors compile on first use)
    engine_warm_s = _best_of(lambda: _classify_vote(engine, windows, variable_ids))
    engine_dup_cold()  # warm up
    cati.predict_variables(windows, variable_ids)  # warm up
    # Interleave the three contestants so clock drift on a noisy runner
    # hits each equally; best-of per side.  Both ratios below divide two
    # timings taken this same way.
    engine_s = naive_s = engine_dup_s = float("inf")
    for _ in range(5):
        engine_s = min(engine_s, _best_of(engine_cold, repeats=1))
        naive_s = min(naive_s, _best_of(
            lambda: cati.predict_variables(windows, variable_ids), repeats=1))
        engine_dup_s = min(engine_dup_s, _best_of(engine_dup_cold, repeats=1))
    classify_vs_reference = naive_s / engine_s

    # -- duplicated windows: the dedup layer must keep paying -------------------
    engine_dup_warm_s = _best_of(
        lambda: _classify_vote(engine, dup_windows, dup_ids))
    engine.clear_cache()
    engine.stats.reset()
    engine.leaf_proba(dup_windows)
    engine.leaf_proba(dup_windows)  # warm repeat: all cache hits
    dup_stats = engine.stats
    # Each pass sees 2N windows but only N unique; the warm repeat is
    # then pure cache hits — no kernel runs at all.
    assert dup_stats.windows == 2 * len(dup_windows)
    assert dup_stats.unique_windows == 2 * len(windows)
    assert dup_stats.cache_hits == len(windows)
    # Duplication must be nearly free: 2x the windows, ~1x the cold time.
    assert engine_dup_s <= 1.35 * engine_s

    # -- per-stage timing + per-chunk latency quantiles -------------------------
    from repro.core import observability

    observability.reset()
    for _ in range(5):
        engine_cold()
    span_snapshot = observability.snapshot()["spans"]
    stage_spans = {
        path.rsplit("cascade.", 1)[1]: data
        for path, data in span_snapshot.items() if "cascade." in path
    }
    chunk_hist = observability.get_registry().histogram("engine.chunk_seconds")
    chunk_p50 = chunk_hist.quantile(0.5)
    chunk_p99 = chunk_hist.quantile(0.99)

    # -- occlusion: per-window reference vs batched id-level variants ----------
    occ_windows = windows[:24]
    naive_occ_s = _best_of(
        lambda: [occlusion_epsilons(cati, w) for w in occ_windows], repeats=2,
    )

    def engine_occ():
        engine.clear_cache()
        occlusion_epsilons_many(cati, occ_windows)

    engine_occ()  # warm up
    engine_occ_s = _best_of(engine_occ, repeats=2)
    occlusion_speedup = naive_occ_s / engine_occ_s

    engine.clear_cache()
    engine.stats.reset()
    engine.leaf_proba(windows)
    stats = engine.stats

    # -- instrumentation overhead: metrics enabled vs disabled ------------------
    from repro.core import observability

    def timed_with_metrics(enabled: bool) -> float:
        saved = observability.is_enabled()
        observability.set_enabled(enabled)
        try:
            return _best_of(engine_cold, repeats=1)
        finally:
            observability.set_enabled(saved)

    # Interleave the two configurations so clock drift / turbo effects
    # hit both sides equally; best-of per side.
    timed_with_metrics(True)  # warm up
    off_times, on_times = [], []
    for _ in range(4):
        off_times.append(timed_with_metrics(False))
        on_times.append(timed_with_metrics(True))
    metrics_off_s = min(off_times)
    metrics_on_s = min(on_times)
    metrics_overhead = metrics_on_s / metrics_off_s - 1.0

    observability.reset()
    engine_cold()
    run_counters = observability.snapshot()["counters"]

    report = json.loads(_ARTIFACT.read_text()) if _ARTIFACT.exists() else {}
    # update, don't assign: "serve" and "artifacts" are written by the
    # other tests in this file.
    report.update({
        "n_vucs": len(windows),
        "vuc_length": length,
        "encode": {
            "seconds": encode_s,
            "vucs_per_s": len(windows) / encode_s,
        },
        "classify_vote": {
            "naive_seconds": naive_s,
            "engine_seconds": engine_s,
            "engine_warm_cache_seconds": engine_warm_s,
            "speedup_vs_current_reference": classify_vs_reference,
            "naive_vucs_per_s": len(windows) / naive_s,
            "engine_vucs_per_s": len(windows) / engine_s,
            "stages": {
                name: {"count": data["count"], "wall_s": data["wall_s"],
                       "cpu_s": data["cpu_s"]}
                for name, data in sorted(stage_spans.items())
            },
            "chunk_latency": {
                "count": chunk_hist.count,
                "p50_s": chunk_p50,
                "p99_s": chunk_p99,
            },
            "duplicated": {
                "n_vucs": len(dup_windows),
                "unique_windows": len(windows),
                "engine_seconds": engine_dup_s,
                "engine_warm_cache_seconds": engine_dup_warm_s,
                "cold_overhead_vs_unique": engine_dup_s / engine_s,
            },
        },
        "occlusion": {
            "n_vucs": len(occ_windows),
            "n_forward_rows": len(occ_windows) * (length + 1),
            "naive_seconds": naive_occ_s,
            "engine_seconds": engine_occ_s,
            "speedup": occlusion_speedup,
            "engine_vucs_per_s": len(occ_windows) / engine_occ_s,
        },
        "dedup": {
            "windows": stats.windows,
            "unique_windows": stats.unique_windows,
            "conv1_positions": stats.ctx_positions,
            "conv1_unique_contexts": stats.ctx_unique,
            "conv1_dedup_ratio": stats.ctx_positions / max(stats.ctx_unique, 1),
        },
        "metrics": {
            "counters": run_counters,
            "overhead": {
                "engine_metrics_off_seconds": metrics_off_s,
                "engine_metrics_on_seconds": metrics_on_s,
                "relative_overhead": metrics_overhead,
            },
        },
    })
    _ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")

    print()
    print(f"classify+vote over {len(windows)} VUCs: "
          f"reference {naive_s * 1e3:.0f} ms, engine {engine_s * 1e3:.0f} ms "
          f"(warm cache {engine_warm_s * 1e3:.0f} ms) -> "
          f"{classify_vs_reference:.1f}x vs reference")
    stage_ms = ", ".join(
        f"{name} {data['wall_s'] / max(data['count'], 1) * 1e3:.1f}"
        for name, data in sorted(stage_spans.items()))
    print(f"per-chunk stages (ms/chunk): {stage_ms}; chunk latency "
          f"p50 {chunk_p50 * 1e3:.1f} ms, p99 {chunk_p99 * 1e3:.1f} ms "
          f"over {chunk_hist.count} chunks")
    print(f"duplicated stream (2x {len(windows)} windows): cold "
          f"{engine_dup_s * 1e3:.0f} ms "
          f"({engine_dup_s / engine_s:.2f}x the unique stream), warm "
          f"{engine_dup_warm_s * 1e3:.0f} ms")
    print(f"occlusion over {len(occ_windows)} VUCs ({length + 1} variants each): "
          f"naive {naive_occ_s * 1e3:.0f} ms, engine {engine_occ_s * 1e3:.0f} ms "
          f"-> {occlusion_speedup:.1f}x")
    print(f"encode: {len(windows) / encode_s:.0f} VUC/s; conv1 context dedup "
          f"{report['dedup']['conv1_dedup_ratio']:.1f}x")
    print(f"instrumentation overhead: metrics off {metrics_off_s * 1e3:.0f} ms, "
          f"on {metrics_on_s * 1e3:.0f} ms -> {metrics_overhead:+.1%}")
    print(f"wrote {_ARTIFACT}")

    # The engine must still agree with the reference it races.
    naive_probs = cati.predict_vuc_proba(occ_windows)
    engine_probs = engine.leaf_proba(occ_windows)
    assert np.abs(engine_probs - naive_probs).max() <= 1e-6

    assert classify_vs_reference >= 3.0
    assert occlusion_speedup >= 5.0
    # Observability must be effectively free on the hot path.
    assert metrics_overhead < 0.05


def test_serve_throughput(gcc_context, tmp_path):
    """Served vs raw-engine throughput on one request stream.

    Both sides run the same 16 chunks cold-cache: offline as serial
    engine classify + vote calls (the raw per-request engine path),
    served as 8 concurrent clients whose requests the scheduler
    coalesces into larger engine batches — which is what must pay for
    the HTTP + JSON overhead.  Acceptance: served throughput within 10%
    of the raw path (given a core to overlap on — see the assertion),
    and byte-identical prediction identities.
    """
    from repro.serve import protocol
    from repro.serve.client import ServeClient
    from repro.serve.server import ServeDaemon

    cati = gcc_context.cati
    engine = cati.engine
    samples = list(gcc_context.corpus.test)[:4000]
    windows = [sample.tokens for sample in samples]
    variable_ids = [f"var{i // 4}" for i in range(len(windows))]
    n_clients, n_requests = 8, 16
    per_request = (len(windows) + n_requests - 1) // n_requests
    chunks = [(windows[i:i + per_request], variable_ids[i:i + per_request])
              for i in range(0, len(windows), per_request)]

    def offline():
        engine.clear_cache()
        return [_classify_vote(engine, w, v) for w, v in chunks]

    offline_results = offline()  # also warms the f32 kernels
    offline_s = _best_of(offline, repeats=3)

    bundle_dir = tmp_path / "serve-bundle"
    cati.save(str(bundle_dir))
    daemon = ServeDaemon(str(bundle_dir), port=0, queue_limit=64)
    serve_thread = threading.Thread(target=daemon.run, daemon=True)
    serve_thread.start()
    client = ServeClient(daemon.host, daemon.port, timeout=300)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        try:
            client.health()
            break
        except OSError:
            time.sleep(0.05)

    # The packed wire form — what ServeClient.infer_windows sends.
    bodies = [{"windows_packed": protocol.pack_windows(chunk_windows),
               "variable_ids": chunk_ids}
              for chunk_windows, chunk_ids in chunks]

    responses: list = [None] * len(bodies)
    latencies: list = [None] * len(bodies)

    def run_clients() -> float:
        def worker(client_index: int) -> None:
            for request_index in range(client_index, len(bodies), n_clients):
                t0 = time.perf_counter()
                responses[request_index] = client.infer(bodies[request_index])
                latencies[request_index] = time.perf_counter() - t0

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(n_clients)]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - t0

    # Warm the HTTP/scheduler/engine path with a window that doesn't
    # seed the daemon engine's dedup cache for the measured stream.
    client.infer({"windows_packed": ["\n".join(["warm\treg\tmem"] * cati.config.vuc_length)],
                  "variable_ids": ["w"]})
    # Cold barrages are the served twin of the offline cold-cache
    # measurement: clear the daemon engine's dedup cache before each
    # repeat (same best-of discipline as offline()).
    daemon_engine = daemon.model_host.acquire()[1]

    def served_cold() -> float:
        daemon_engine.clear_cache()
        return run_clients()

    served_cold_s = _best_of(served_cold, repeats=3)
    cold_latencies = list(latencies)
    served_warm_s = run_clients()  # dedup-cache-warm, for the record

    served = sorted(cold_latencies)
    report_serve = {
        "cpu_count": os.cpu_count(),
        "n_windows": len(windows),
        "n_requests": len(bodies),
        "n_clients": n_clients,
        "windows_per_request": per_request,
        "offline_engine_seconds": offline_s,
        "served_seconds": served_cold_s,
        "served_warm_cache_seconds": served_warm_s,
        "offline_vucs_per_s": len(windows) / offline_s,
        "served_vucs_per_s": len(windows) / served_cold_s,
        "served_over_offline": offline_s / served_cold_s,
        "latency": {
            "p50_s": served[len(served) // 2],
            "p99_s": served[-1],
            "mean_s": sum(served) / len(served),
        },
    }
    snapshot = client.metrics()
    for key, out in (("serve.batch.windows", "batch_windows"),
                     ("serve.batch.requests", "batch_requests"),
                     ("serve.queue.depth", "queue_depth")):
        hist = snapshot["histograms"].get(key)
        if hist:
            report_serve[out] = {"count": hist["count"], "mean": hist["mean"],
                                 "max": hist["max"]}
    health = client.health()
    report_serve["healthz_latency"] = health["latency"]

    daemon.request_shutdown()
    serve_thread.join(timeout=30)
    assert not serve_thread.is_alive()

    # Served results must carry the same prediction identities.
    for response, reference in zip(responses, offline_results):
        assert ([(p["variable_id"], p["type"], p["n_vucs"])
                 for p in response["predictions"]]
                == [(p.variable_id, str(p.predicted), p.n_vucs)
                    for p in reference])

    report = json.loads(_ARTIFACT.read_text()) if _ARTIFACT.exists() else {}
    # update, don't assign: "serve" also carries the "interactive"
    # block written by test_interactive_latency.
    report.setdefault("serve", {}).update(report_serve)
    _ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")

    print()
    print(f"serve: {len(windows)} VUCs over {len(bodies)} requests x "
          f"{n_clients} clients: offline {offline_s * 1e3:.0f} ms "
          f"({report_serve['offline_vucs_per_s']:.0f} VUC/s), served "
          f"{served_cold_s * 1e3:.0f} ms "
          f"({report_serve['served_vucs_per_s']:.0f} VUC/s, warm "
          f"{served_warm_s * 1e3:.0f} ms)")
    print(f"serve latency: p50 {report_serve['latency']['p50_s'] * 1e3:.0f} ms, "
          f"p99 {report_serve['latency']['p99_s'] * 1e3:.0f} ms; "
          f"batches {report_serve.get('batch_windows', {})}")
    print(f"wrote {_ARTIFACT}")

    # The daemon must sustain the raw engine path's throughput (the
    # coalesced batches have to pay for HTTP + JSON + scheduling).
    # Overlapping that overhead with the engine's GEMMs needs a second
    # core; on a one-core box wall time is necessarily engine CPU plus
    # serving CPU, so the floor grows by the measured serving-only cost
    # (the cache-warm barrage, where engine time is nil).
    cores = os.cpu_count() or 1
    pipeline_floor_s = offline_s + (served_warm_s if cores == 1 else 0.0)
    assert served_cold_s <= 1.1 * pipeline_floor_s


def test_interactive_latency(gcc_context, tmp_path):
    """Single-question latency on the session API's small-batch path.

    The interactive workload is one variable per request — the
    pathological shape for a batching server.  ``type_variable`` routes
    it through the micro-batch scheduler, so each call pays at most the
    coalescing delay (``scheduler.COALESCE_DELAY_S``) plus one small
    engine batch.  Acceptance: p50 within that budget plus a generous multiple
    of the offline per-variable engine cost (tiny batches amortize
    nothing), i.e. the session path adds bounded overhead and never
    falls onto a full-binary rescore.
    """
    from repro.codegen.compilers import GccCompiler
    from repro.codegen.strip import strip
    from repro.serve.client import ServeClient
    from repro.serve.scheduler import COALESCE_DELAY_S
    from repro.serve.server import ServeDaemon

    cati = gcc_context.cati
    binary = GccCompiler().compile_fresh(seed=909, name="interactive",
                                         opt_level=0)
    stripped, extents = strip(binary), speed.extents_from_debug(binary)

    bundle_dir = tmp_path / "interactive-bundle"
    cati.save(str(bundle_dir))
    daemon = ServeDaemon(str(bundle_dir), port=0, queue_limit=64)
    serve_thread = threading.Thread(target=daemon.run, daemon=True)
    serve_thread.start()
    client = ServeClient(daemon.host, daemon.port, timeout=300)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        try:
            client.health()
            break
        except OSError:
            time.sleep(0.05)

    handle = client.session(binary=stripped, extents=extents)
    variables = handle.variables
    assert variables

    # The offline cost of one single-variable question: the engine on
    # one variable's windows (cache cleared — interactive questions
    # about fresh binaries don't arrive dedup-warm).
    from repro.vuc.dataset import extract_unlabeled_vucs

    pairs = extract_unlabeled_vucs(stripped, extents, cati.config.window)
    rows_by_id: dict = {}
    for variable_id, tokens in pairs:
        rows_by_id.setdefault(variable_id, []).append(tokens)
    probe = variables[0]

    def offline_single():
        cati.engine.clear_cache()
        _classify_vote(cati.engine, rows_by_id[probe],
                       [probe] * len(rows_by_id[probe]))

    offline_single()  # warm kernels
    offline_single_s = _best_of(offline_single, repeats=3)

    handle.type_variable(probe)  # warm the served path
    n_calls = 60
    latencies = []
    for index in range(n_calls):
        variable_id = variables[index % len(variables)]
        t0 = time.perf_counter()
        served = handle.type_variable(variable_id)
        latencies.append(time.perf_counter() - t0)
        assert served["prediction"]["variable_id"] == variable_id

    handle.close()
    daemon.request_shutdown()
    serve_thread.join(timeout=30)
    assert not serve_thread.is_alive()

    latencies.sort()
    p50_s = latencies[len(latencies) // 2]
    p99_s = latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))]
    report = json.loads(_ARTIFACT.read_text()) if _ARTIFACT.exists() else {}
    report.setdefault("serve", {})["interactive"] = {
        "n_calls": n_calls,
        "n_variables": len(variables),
        "offline_single_variable_seconds": offline_single_s,
        "p50_s": p50_s,
        "p99_s": p99_s,
        "mean_s": sum(latencies) / len(latencies),
    }
    _ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")

    print()
    print(f"interactive: {n_calls} type_variable calls over "
          f"{len(variables)} variables: p50 {p50_s * 1e3:.1f} ms, "
          f"p99 {p99_s * 1e3:.1f} ms (offline single-variable "
          f"{offline_single_s * 1e3:.1f} ms)")
    print(f"wrote {_ARTIFACT}")

    # Budget: the scheduler may hold a lone request the full coalescing
    # delay; past that, a single-variable batch should cost a bounded
    # multiple of the offline engine call (HTTP + JSON + tiny-batch
    # overhead), with an absolute floor for fast machines/noise.
    budget_s = COALESCE_DELAY_S + max(25 * offline_single_s, 0.15)
    assert p50_s <= budget_s, (
        f"interactive p50 {p50_s:.3f}s exceeds budget {budget_s:.3f}s")


def _rss_kb(pid: int) -> int | None:
    """Resident set size of one process, in KiB (Linux /proc)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def test_serve_scaling(gcc_context, tmp_path):
    """Multi-worker throughput + RSS at 1, 2 and min(cores, 4) workers.

    Every worker count runs behind :class:`RouterDaemon` (workers=1
    included, so the router's forwarding overhead is priced into every
    point, not just the scaled ones) on freshly spawned workers — the
    dedup caches start cold, the same discipline as the offline side of
    ``test_serve_throughput``.  Each count is timed best-of-5, the rounds
    interleaved across counts so drift hits every count alike; the
    record keeps min, median and max and the core count.  Per-worker
    RSS comes from ``/proc/<pid>/status`` in the last round.  The ≥1.6x
    scaling gate only applies where the hardware can express it (≥4
    cores — below that the GIL-free processes still contend for the
    same ALUs).
    """
    import shutil as _shutil
    import statistics

    from repro.serve import protocol
    from repro.serve.client import ServeClient
    from repro.serve.router import RouterDaemon

    cati = gcc_context.cati
    samples = list(gcc_context.corpus.test)[:4000]
    windows = [sample.tokens for sample in samples]
    variable_ids = [f"var{i // 4}" for i in range(len(windows))]
    n_clients, n_requests, rounds = 8, 16, 5
    per_request = (len(windows) + n_requests - 1) // n_requests
    chunks = [(windows[i:i + per_request], variable_ids[i:i + per_request])
              for i in range(0, len(windows), per_request)]
    bodies = [{"windows_packed": protocol.pack_windows(chunk_windows),
               "variable_ids": chunk_ids}
              for chunk_windows, chunk_ids in chunks]

    bundle_dir = tmp_path / "scaling-bundle"
    cati.save(str(bundle_dir))
    cores = os.cpu_count() or 1
    worker_counts = sorted({1, 2, max(1, min(cores, 4))})

    def barrage(client) -> float:
        def worker(client_index: int) -> None:
            for request_index in range(client_index, len(bodies), n_clients):
                client.infer(bodies[request_index])

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(n_clients)]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - t0

    def one_round(n_workers: int) -> tuple[float, float, list[int]]:
        daemon = RouterDaemon(str(bundle_dir), port=0, workers=n_workers,
                              queue_limit=64)
        serve_thread = threading.Thread(target=daemon.run, daemon=True)
        serve_thread.start()
        client = ServeClient(daemon.host, daemon.port, timeout=300)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                client.health()
                break
            except OSError:
                time.sleep(0.05)
        # Touch every worker's HTTP path without seeding the measured
        # stream into any dedup cache.
        for _ in range(n_workers * 2):
            client.infer({"windows_packed": [
                "\n".join(["warm\treg\tmem"] * cati.config.vuc_length)],
                "variable_ids": ["w"]})

        cold_s = barrage(client)
        warm_s = barrage(client)  # dedup-cache-warm: serving overhead only
        health = client.health()
        assert health["workers_live"] == n_workers
        rss = [_rss_kb(worker["pid"]) for worker in health["workers"]]

        daemon.request_shutdown()
        serve_thread.join(timeout=60)
        assert not serve_thread.is_alive()
        return cold_s, warm_s, [kb for kb in rss if kb is not None]

    runs: dict[int, list] = {n_workers: [] for n_workers in worker_counts}
    for _round in range(rounds):
        for n_workers in worker_counts:
            runs[n_workers].append(one_round(n_workers))

    def spread(values: list[float]) -> dict:
        return {"min": min(values), "median": statistics.median(values),
                "max": max(values)}

    scaling: dict = {}
    for n_workers in worker_counts:
        cold = [cold_s for cold_s, _warm_s, _rss in runs[n_workers]]
        warm = [warm_s for _cold_s, warm_s, _rss in runs[n_workers]]
        rss = runs[n_workers][-1][2]
        scaling[str(n_workers)] = {
            "served_seconds": min(cold),
            "served_seconds_spread": spread(cold),
            "served_warm_cache_seconds": min(warm),
            "served_warm_cache_seconds_spread": spread(warm),
            "vucs_per_s": len(windows) / min(cold),
            "speedup_vs_1_worker": (
                scaling["1"]["served_seconds"] / min(cold) if "1" in scaling
                else 1.0),
            "worker_rss_kb": rss,
            "total_worker_rss_kb": sum(rss),
        }

    report = json.loads(_ARTIFACT.read_text()) if _ARTIFACT.exists() else {}
    report.setdefault("serve", {})["scaling"] = {
        "cpu_count": cores,
        "n_windows": len(windows),
        "n_requests": len(bodies),
        "n_clients": n_clients,
        "rounds": rounds,
        "workers": scaling,
    }
    _ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")

    print()
    for n_workers in worker_counts:
        entry = scaling[str(n_workers)]
        cold = entry["served_seconds_spread"]
        print(f"serve scaling x{n_workers}: cold best-of-{rounds} "
              f"{cold['min'] * 1e3:.0f} ms (median {cold['median'] * 1e3:.0f}, "
              f"max {cold['max'] * 1e3:.0f}; {entry['vucs_per_s']:.0f} VUC/s, "
              f"{entry['speedup_vs_1_worker']:.2f}x vs 1 worker), "
              f"worker RSS {entry['worker_rss_kb']} KiB ({cores} cores)")
    print(f"wrote {_ARTIFACT}")
    _shutil.rmtree(bundle_dir, ignore_errors=True)

    # Scale-out must pay off where the hardware can express it.  On
    # <4-core machines the spawned engines share ALUs with the router
    # and each other, so only liveness is gated there.
    if cores >= 4:
        assert (scaling["2"]["served_seconds"]
                <= scaling["1"]["served_seconds"] / 1.6), \
            f"2 workers did not reach 1.6x: {scaling}"
        # Each worker holds its own copy of a small model, so a second
        # worker must cost at most one more worker's resident memory.
        rss_1 = scaling["1"]["total_worker_rss_kb"]
        rss_2 = scaling["2"]["total_worker_rss_kb"]
        assert rss_2 <= 2.0 * rss_1


def test_bundle_io(gcc_context, tmp_path):
    """ModelBundle save / verify / load microbenchmark; merges into
    BENCH_speed.json so artifact I/O joins the perf trajectory."""
    from repro.core.artifacts import ModelBundle
    from repro.core.pipeline import Cati

    cati = gcc_context.cati
    directory = tmp_path / "bundle"

    cati.save(str(directory))  # warm up (allocators, page cache)
    save_s = _best_of(lambda: cati.save(str(directory)))

    bundle = ModelBundle.open(str(directory))
    verify_s = _best_of(bundle.verify)
    load_s = _best_of(lambda: Cati.load(str(directory)))
    warm_load_s = _best_of(lambda: Cati.load(str(directory), warm_start=True))

    total_bytes = sum(entry["bytes"] for entry in bundle.manifest["files"].values())
    total_bytes += (directory / "manifest.json").stat().st_size

    # Round trip must preserve the model bit-for-bit at engine precision.
    windows = [sample.tokens for sample in list(gcc_context.corpus.test)[:200]]
    loaded = Cati.load(str(directory), warm_start=True)
    assert np.abs(
        loaded.engine.leaf_proba(windows) - cati.predict_vuc_proba(windows)
    ).max() <= 1e-6

    report = json.loads(_ARTIFACT.read_text()) if _ARTIFACT.exists() else {}
    report["artifacts"] = {
        "bundle_bytes": total_bytes,
        "save_seconds": save_s,
        "verify_seconds": verify_s,
        "load_seconds": load_s,
        "load_warm_start_seconds": warm_load_s,
        "save_mb_per_s": total_bytes / save_s / 1e6,
        "verify_mb_per_s": total_bytes / verify_s / 1e6,
    }
    _ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")

    print()
    print(f"bundle: {total_bytes / 1e6:.1f} MB; save {save_s * 1e3:.0f} ms, "
          f"verify {verify_s * 1e3:.0f} ms, load {load_s * 1e3:.0f} ms "
          f"(warm-start {warm_load_s * 1e3:.0f} ms)")
    print(f"wrote {_ARTIFACT}")

    # Artifact I/O must stay interactive: well under the per-binary
    # inference budget.
    assert save_s < 30.0
    assert load_s < 10.0
    assert verify_s < 10.0
