"""Workload ``serve-mixed``: ``python -m repro serve --workers 2`` driven by
two closed-loop clients over HTTP.

* The bulk client sends ``windows_packed`` ``/v1/infer`` requests, one
  distinct seeded binary per request (windows extracted at set-up); no
  request repeats within a run.
* The interactive client cycles ``type_variable`` calls over sessions
  opened before the timed phase; every ``EXPLAIN_EVERY``-th call is
  ``explain``.

The timed phase ends when the run's seconds are spent or the bulk corpus
is exhausted, whichever comes first.  Extraction happens at set-up, so
``repro.vuc`` is idle during the phase.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from measure import (HostSpeed, accuracy_counts, counter_delta, engine_metrics,
                     median, mismatches, p95, peak_rss_mb, reference_votes,
                     span_seconds)

import inputs
from repro.core.pipeline import Cati
from repro.serve.client import ServeClient, ServeClientError
from repro.vuc.dataset import extract_unlabeled_vucs

N_BULK = 260
N_SESSIONS = 3
EXPLAIN_EVERY = 10
PROBES_AROUND_PHASE = 200
WORKERS = 2
READY_TIMEOUT_S = 120.0


@dataclass
class ServeEnv:
    cati: Cati
    bulk: list                 # (item, pairs, request body)
    sessions: list             # (item, pairs)
    process: subprocess.Popen
    client: ServeClient
    timings: dict[str, float]
    handles: list = field(default_factory=list)

    def close(self) -> None:
        stop_server(self.process)


def start_server(bundle: Path, log_path: Path) -> tuple[subprocess.Popen, ServeClient]:
    """Launch the router and wait until ``/healthz`` reports every worker ok."""
    log = open(log_path, "w", encoding="utf-8")
    try:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--model-dir", str(bundle),
             "--port", "0", "--workers", str(WORKERS)],
            stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            start_new_session=True)
    finally:
        log.close()
    deadline = time.monotonic() + READY_TIMEOUT_S
    port = None
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(f"server exited {process.returncode}: "
                               f"{log_path.read_text()[-2000:]}")
        for line in log_path.read_text().splitlines():
            if line.startswith("serving on http://"):
                port = int(line.rsplit(":", 1)[1])
        if port is not None:
            client = ServeClient("127.0.0.1", port, timeout=60.0)
            try:
                if client.health().get("status") == "ok":
                    return process, client
            except (OSError, ServeClientError):
                pass
        time.sleep(0.02)
    stop_server(process)
    raise RuntimeError(f"server not ready within {READY_TIMEOUT_S}s")


def stop_server(process: subprocess.Popen) -> None:
    """SIGTERM the router (it drains its workers), then SIGKILL whatever of
    its process group is left, and reap it."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()


def setup(seed: int, work: Path) -> ServeEnv:
    work.mkdir(parents=True, exist_ok=True)
    timings = {}
    began = time.perf_counter()
    training = inputs.training_corpus()
    bulk_items, session_items = inputs.serve_inputs(seed, N_BULK, N_SESSIONS)
    config = inputs.model_config()
    bulk = []
    for item in bulk_items:
        pairs = extract_unlabeled_vucs(item.stripped, item.extents, config.window)
        bulk.append((item, pairs, inputs.request_body(item, pairs)))
    sessions = [(item, extract_unlabeled_vucs(item.stripped, item.extents,
                                              config.window))
                for item in session_items]
    timings["setup.corpus_s"] = time.perf_counter() - began
    began = time.perf_counter()
    cati = Cati(config).train(training)
    timings["setup.train_s"] = time.perf_counter() - began
    began = time.perf_counter()
    bundle = work / "model"
    cati.save(str(bundle))
    timings["setup.bundle_save_s"] = time.perf_counter() - began
    began = time.perf_counter()
    process, client = start_server(bundle, work / "serve.log")
    timings["setup.serve_ready_s"] = time.perf_counter() - began
    env = ServeEnv(cati, bulk, sessions, process, client, timings)
    try:
        env.handles = [client.session(binary=item.stripped, extents=item.extents)
                       for item, _pairs in sessions]
    except BaseException:
        env.close()
        raise
    return env


# -- the timed phase -------------------------------------------------------------


def _session_references(env: ServeEnv):
    """Naive votes per session, plus the per-window argmax of the first VUC
    of every session variable (the window ``explain`` probes)."""
    session_refs = reference_votes(env.cati, [p for _i, p in env.sessions])
    explain_refs = []
    for _item, session_pairs in env.sessions:
        first = {}
        for vid, tokens in session_pairs:
            first.setdefault(vid, tokens)
        probs = env.cati.predict_vuc_proba(list(first.values()))
        top2 = np.sort(probs, axis=1)[:, -2:]
        explain_refs.append({vid: (int(np.argmax(row)), float(t[1] - t[0]))
                             for vid, row, t in zip(first, probs, top2)})
    return session_refs, explain_refs


def _phase(env: ServeEnv, seconds: float, refs) -> dict:
    from repro.core.types import ALL_TYPES

    session_refs, explain_refs = refs
    stop = threading.Event()
    began = time.perf_counter()
    bulk_out = {"latencies": [], "windows": 0, "failed": 0, "observed": [], "end": None}
    inter_out = {"latencies": [], "failed": 0}
    errors: list[Exception] = []

    def bulk_client() -> None:
        try:
            for index, (_item, pairs, body) in enumerate(env.bulk):
                if time.perf_counter() - began >= seconds:
                    break
                t0 = time.perf_counter()
                try:
                    response = env.client.infer(body)
                except ServeClientError:
                    bulk_out["latencies"].append(time.perf_counter() - t0)
                    bulk_out["failed"] += 1
                    continue
                bulk_out["latencies"].append(time.perf_counter() - t0)
                observed = [(p["variable_id"], p["type"], p["n_vucs"])
                            for p in response["predictions"]]
                bulk_out["observed"].append((index, observed))
                bulk_out["windows"] += len(pairs)
        except Exception as error:  # noqa: BLE001 — re-raised after join
            errors.append(error)
        finally:
            bulk_out["end"] = time.perf_counter()
            stop.set()

    def interactive_client() -> None:
        calls = [(s, vid) for s, handle in enumerate(env.handles)
                 for vid in handle.variables]
        try:
            index = 0
            while not stop.is_set():
                s, vid = calls[index % len(calls)]
                handle = env.handles[s]
                explain = index % EXPLAIN_EVERY == EXPLAIN_EVERY - 1
                index += 1
                t0 = time.perf_counter()
                try:
                    result = (handle.explain(vid, 0) if explain
                              else handle.type_variable(vid))
                except ServeClientError:
                    inter_out["latencies"].append(time.perf_counter() - t0)
                    inter_out["failed"] += 1
                    continue
                inter_out["latencies"].append(time.perf_counter() - t0)
                if explain:
                    argmax, margin = explain_refs[s][vid]
                    wrong = (result["predicted"] != str(ALL_TYPES[argmax])
                             and margin > 1e-6)
                else:
                    p = result["prediction"]
                    wrong = mismatches([(p["variable_id"], p["type"], p["n_vucs"])],
                                       {vid: session_refs[s][vid]}) > 0
                inter_out["failed"] += wrong
        except Exception as error:  # noqa: BLE001 — re-raised after join
            errors.append(error)

    threads =[threading.Thread(target=bulk_client, name="bulk"),
               threading.Thread(target=interactive_client, name="interactive")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    elapsed = bulk_out["end"] - began
    failed = bulk_out["failed"]
    # Bulk references only for the requests actually sent, after the phase.
    sent = [index for index, _observed in bulk_out["observed"]]
    bulk_refs = reference_votes(env.cati, [env.bulk[i][1] for i in sent])
    for (_index, observed), reference in zip(bulk_out["observed"], bulk_refs):
        failed += mismatches(observed, reference) > 0
    return {"elapsed": elapsed, "bulk": bulk_out, "interactive": inter_out,
            "failed": failed + inter_out["failed"]}


def _rss(env: ServeEnv) -> float:
    """Sum of the router's and the workers' peak resident sets."""
    workers = env.client.health()["workers"]
    return sum(peak_rss_mb(pid) for pid in [env.process.pid] + [w["pid"] for w in workers])


def run(env: ServeEnv, seconds: float, trace: bool, speed: HostSpeed) -> dict:
    refs = _session_references(env)
    before = env.client.metrics() if trace else None
    # The host probe brackets the phase while the server is idle; the
    # phase is a few seconds, shorter than the host's drift.
    speed.burst(PROBES_AROUND_PHASE)
    phase = _phase(env, seconds, refs)
    speed.burst(PROBES_AROUND_PHASE)
    after = env.client.metrics() if trace else None
    bulk, inter = phase["bulk"], phase["interactive"]
    n_bulk = len(bulk["latencies"])
    attempted = n_bulk + len(inter["latencies"])
    hits = total = 0
    for index, observed in bulk["observed"]:
        h, t = accuracy_counts(observed, env.bulk[index][0].truth)
        hits += h
        total += t
    counts = {"bulk_requests": n_bulk, "interactive_calls": len(inter["latencies"]),
              "bulk_corpus": len(env.bulk), "variables": total,
              "phase_s": phase["elapsed"]}
    if trace:
        metrics = _layer_metrics(before, after, bulk, inter)
        metrics["interactive_p50_ms"] = (median(inter["latencies"]) * 1e3, "ms")
        metrics["interactive_p95_ms"] = (p95(inter["latencies"]) * 1e3, "ms")
    else:
        metrics = {
            "binaries_per_s": (n_bulk / phase["elapsed"], "1/s"),
            "windows_per_s": (bulk["windows"] / phase["elapsed"], "1/s"),
            "latency_p50_ms": (median(bulk["latencies"]) * 1e3, "ms"),
            "latency_p95_ms": (p95(bulk["latencies"]) * 1e3, "ms"),
            "type_accuracy": (hits / max(total, 1), "ratio"),
            "peak_rss_mb": (_rss(env), "MB"),
        }
    return {"attempted": attempted, "failed": phase["failed"],
            "metrics": metrics, "counts": counts}


#: Per-layer metrics only a serve phase measures.
SERVE_LAYERS = ("serve.", "router.", "client.", "sessions.", "interactive_")


def layers(seed: int, work: Path, seconds: float, speed: HostSpeed) -> dict:
    """The serving layers' figures from one traced phase, set up once.

    The offline-corpus traced run calls this: serve-mixed drifts too much
    between runs on a shared two-core box to gate end-to-end metrics.
    """
    env = setup(seed, work)
    try:
        outcome = run(env, seconds, True, speed)
    finally:
        env.close()
    metrics = {name: value for name, value in outcome["metrics"].items()
               if name.startswith(SERVE_LAYERS)}
    metrics["setup.serve_ready_s"] = (env.timings["setup.serve_ready_s"], "s")
    return {**outcome, "metrics": metrics}


def _delta_hist(before: dict, after: dict, name: str) -> tuple[float, int]:
    """(sum, count) of a histogram over the phase."""
    a = after["histograms"].get(name) or {"sum": 0.0, "count": 0}
    b = before["histograms"].get(name) or {"sum": 0.0, "count": 0}
    return a["sum"] - b["sum"], a["count"] - b["count"]


def _mean(before: dict, after: dict, name: str) -> float:
    total, count = _delta_hist(before, after, name)
    return total / count if count else 0.0


def _layer_metrics(before: dict, after: dict, bulk: dict, inter: dict) -> dict:
    """Per-layer figures from ``/metricsz`` deltas over the timed phase."""
    router_sum, router_count = _delta_hist(before, after, "router.request.seconds")
    infer_sum, _n = _delta_hist(before, after, "serve.request.seconds")
    call_sum, _n = _delta_hist(before, after, "sessions.call.seconds")
    per_request = 1.0 / max(router_count, 1)
    client_lat = bulk["latencies"] + inter["latencies"]
    client_mean = sum(client_lat) / max(len(client_lat), 1)
    router_mean = router_sum * per_request
    rejected = sum(counter_delta(before, after, name) for name in (
        "serve.rejected.queue_full", "router.rejected.queue_full",
        "serve.deadline_exceeded", "router.rejected.no_workers"))
    metrics = {
        "serve.request_s": (_mean(before, after, "serve.request.seconds"), "s"),
        "serve.batch_s": (_mean(before, after, "serve.batch.seconds"), "s"),
        "serve.batch_windows": (_mean(before, after, "serve.batch.windows"), "count"),
        "serve.batch_requests": (_mean(before, after, "serve.batch.requests"), "count"),
        "serve.queue_depth": (_mean(before, after, "serve.queue.depth"), "count"),
        "serve.rejected": (rejected, "count"),
        "router.forward_ms": ((router_sum - infer_sum - call_sum) * per_request * 1e3,
                              "ms"),
        "client.overhead_ms": ((client_mean - router_mean) * 1e3, "ms"),
        "sessions.call_s": (_mean(before, after, "sessions.call.seconds"), "s"),
        "engine.classify_s": (span_seconds(before, after, "serve.batch") * per_request,
                              "s"),
    }
    metrics.update(engine_metrics(before, after, per_request))
    for name, leaf in (("vuc.locate_s", "locate"), ("vuc.window_s", "window")):
        metrics[name] = (span_seconds(before, after, leaf) * per_request, "s")
    return metrics
