"""The serving subsystem: protocol, scheduler, daemon, reload, drain.

The acceptance contract (ISSUE 5): concurrent served results match the
offline ``Cati.infer_binary`` path, overload answers 503 + Retry-After
instead of queueing unboundedly, SIGTERM finishes in-flight work, and a
hot reload never drops traffic — corrupt or config-incompatible bundles
are rejected while the old model keeps serving.

One request at a time, the daemon's answers are the oracle's
(``test_oracle.py``); here they are compared with offline only where
the oracle does not reach: concurrent clients, a malformed neighbour in
the same batch, reloads and the SIGTERM drain.

On "match": prediction identity (variable id, voted type, VUC count)
is asserted exactly.  Confidences are compared to 1e-6: the engine's
GEMMs reduce in shape-dependent order, so coalescing a request into a
different batch composition legitimately perturbs leaf probabilities at
the ~1e-8 level without ever moving a vote.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import queue
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.codegen.compilers import GccCompiler
from repro.codegen.strip import strip
from repro.core.errors import (
    DeadlineExceededError,
    QueueFullError,
    ServerClosedError,
)
from repro.experiments.speed import extents_from_debug
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.host import ModelHost
from repro.serve.scheduler import MicroBatchScheduler
from repro.serve.server import ServeDaemon
from repro.vuc.dataset import extract_unlabeled_vucs
from repro.vuc.stream import VucStream, extract_vuc_stream

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def prediction_tuples(predictions):
    """The batch-composition-stable identity of a prediction list."""
    out = []
    for p in predictions:
        if isinstance(p, dict):
            out.append((p["variable_id"], p["type"], p["n_vucs"]))
        else:
            out.append((p.variable_id, str(p.predicted), p.n_vucs))
    return out


@pytest.fixture(scope="session")
def serve_bundle_dir(tmp_path_factory, mini_cati):
    directory = tmp_path_factory.mktemp("serve") / "bundle"
    mini_cati.save(str(directory))
    return directory


@pytest.fixture(scope="session")
def job_binaries():
    """A few stripped binaries + extents, distinct from the demo seed."""
    jobs = []
    for seed in (11, 22, 33, 44):
        binary = GccCompiler().compile_fresh(
            seed=seed, name=f"job{seed}", opt_level=seed % 3)
        jobs.append((strip(binary), extents_from_debug(binary)))
    return jobs


@pytest.fixture(scope="session")
def offline_results(mini_cati, job_binaries):
    return [mini_cati.infer_binary(stripped, extents)
            for stripped, extents in job_binaries]


def start_daemon(bundle_dir, **kwargs):
    """A running daemon on a free port + its serve thread."""
    kwargs.setdefault("port", 0)
    daemon = ServeDaemon(str(bundle_dir), **kwargs)
    thread = threading.Thread(target=daemon.run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 10
    client = ServeClient(daemon.host, daemon.port, timeout=120)
    while time.monotonic() < deadline:
        try:
            client.health()
            break
        except OSError:
            time.sleep(0.02)
    return daemon, thread, client


def stop_daemon(daemon, thread):
    daemon.request_shutdown()
    thread.join(timeout=30)
    assert not thread.is_alive(), "daemon did not drain"


@pytest.fixture(scope="module")
def daemon(serve_bundle_dir):
    daemon, thread, client = start_daemon(serve_bundle_dir, queue_limit=32)
    yield daemon, client
    stop_daemon(daemon, thread)


#: Request envelopes whose ``on_error``, ``deadline_ms`` or ``model_dir``
#: field is malformed; each must answer 400, not 500 or a silent default.
EMPTY_JOB = {"windows_packed": [], "variable_ids": []}
MALFORMED_ENVELOPES = (
    *(("/v1/infer", {**EMPTY_JOB, "on_error": value}) for value in ("bogus", 5, None)),
    *(("/v1/infer", {**EMPTY_JOB, "deadline_ms": value})
      for value in ("abc", [1], float("nan"), True, float("inf"), 1e300, -1)),
    ("/v1/session/open", {"demo": {}, "on_error": "bogus"}),
    ("/v1/reload", {"model_dir": 5}),
)


# -- protocol ---------------------------------------------------------------------


class TestProtocol:
    def test_binary_round_trips_exactly(self, job_binaries):
        stripped, _extents = job_binaries[0]
        rebuilt = protocol.binary_from_wire(protocol.binary_to_wire(stripped))
        assert rebuilt.name == stripped.name
        assert len(rebuilt.functions) == len(stripped.functions)
        for ours, theirs in zip(rebuilt.functions, stripped.functions):
            assert ours.name == theirs.name and ours.address == theirs.address
            assert len(ours.instructions) == len(theirs.instructions)
            for a, b in zip(ours.instructions, theirs.instructions):
                assert a == b, f"instruction drifted over the wire: {a} != {b}"

    def test_extents_round_trip(self, job_binaries):
        _stripped, extents = job_binaries[0]
        rebuilt = protocol.extents_from_wire(protocol.extents_to_wire(extents))
        assert rebuilt == extents

    def test_packed_windows_round_trip(self):
        windows = [(("mov", "reg", "mem"), ("add", "$IMM", "reg")),
                   (("lea", "mem", "reg"), ("BLANK", "BLANK", "BLANK"))]
        packed = protocol.pack_windows(windows)
        assert all(isinstance(entry, str) for entry in packed)
        assert protocol.unpack_windows(packed) == windows

    def test_packed_windows_rejects_non_strings(self):
        from repro.core.errors import RequestError

        one = "\n".join(["mov\treg\tmem"] * 3)  # one window at w = 1
        for packed, variable_ids in (
                ("not a list", ["v"]),
                ([["mov", "reg", "mem"]], ["v"]),
                ([""], ["v"]),
                ([one, "mov\treg\tmem"], ["v", "w"]),  # ragged lengths
                (["\n".join(["mov\treg\tmem"] * 5)], ["v"]),  # too long
                (["mov\treg\nadd\treg\tmem\nsub\treg\treg"], ["v"]),  # 2 tokens
                ([one], None),
                ([one], ["v", "w"])):
            with pytest.raises(RequestError):
                protocol.stream_from_packed(packed, variable_ids, window=1)

    def test_packed_stream_encodes_like_encode_ids(self, mini_cati):
        import numpy as np

        encoder = mini_cati.engine.encoder
        windows = [(("mov", "reg", "mem"), ("add", "$IMM", "reg"), ("nop", "BLANK", "BLANK")),
                   (("mov", "reg", "mem"), ("sub", "reg", "reg"), ("mov", "reg", "mem"))]
        stream = protocol.stream_from_packed(
            protocol.pack_windows(windows), ["v", "w"], window=1)
        assert stream.windows() == windows
        assert stream.variable_ids == ["v", "w"]
        np.testing.assert_array_equal(encoder.encode_stream(stream),
                                      encoder.encode_ids(windows))

    def test_job_kind_requires_exactly_one(self):
        from repro.core.errors import RequestError

        assert protocol.job_kind(
            {"windows_packed": [], "variable_ids": []}) == "windows_packed"
        with pytest.raises(RequestError):
            protocol.job_kind({})
        with pytest.raises(RequestError):
            protocol.job_kind({"windows_packed": [], "demo": {}})

    def test_bad_instruction_is_a_request_error(self):
        from repro.core.errors import RequestError

        wire = {"name": "x", "functions": [
            {"name": "f", "address": 0,
             "instructions": [[0, "definitely not asm ???"]]}]}
        with pytest.raises(RequestError):
            protocol.binary_from_wire(wire)

    def test_prediction_dict_vote_detail(self):
        """Schema /2: margin is winner minus runner-up of the vote scores."""
        import numpy as np

        from repro.core.pipeline import VariablePrediction
        from repro.core.types import ALL_TYPES, TypeName

        scores = np.zeros(len(ALL_TYPES))
        scores[ALL_TYPES.index(TypeName.INT)] = 3.0
        scores[ALL_TYPES.index(TypeName.LONG_INT)] = 1.5
        data = protocol.prediction_to_dict(
            VariablePrediction("v", TypeName.INT, 4, scores))
        assert data["type"] == str(TypeName.INT)
        assert data["confidence"] == pytest.approx(3.0)
        assert data["runner_up"] == str(TypeName.LONG_INT)
        assert data["runner_up_confidence"] == pytest.approx(1.5)
        assert data["margin"] == pytest.approx(1.5)

    def test_layout_dict_shape(self):
        from repro.core.types import TypeName
        from repro.posterior import FieldPrediction, StructLayout

        layout = StructLayout(
            object_id="b/0::rbp-32", objects=("b/0::rbp-32", "b/1::rbp-48"),
            fields=[FieldPrediction(offset=8, label=TypeName.LONG_INT,
                                    n_accesses=5, width=8,
                                    confidence=0.9, margin=1.2)],
            n_accesses=5)
        data = protocol.layout_to_dict(layout)
        assert data["object_id"] == "b/0::rbp-32"
        assert data["objects"] == ["b/0::rbp-32", "b/1::rbp-48"]
        assert data["fields"] == [{
            "offset": 8, "type": str(TypeName.LONG_INT), "n_accesses": 5,
            "width": 8, "confidence": 0.9, "margin": 1.2,
        }]


# -- scheduler --------------------------------------------------------------------


class BlockableEngine:
    """Wrap an engine's leaf_proba_ids with a gate + call counter."""

    def __init__(self, engine):
        self.gate = threading.Event()
        self.gate.set()
        self.calls = 0
        self.entered = threading.Event()
        self._original = engine.leaf_proba_ids
        engine.leaf_proba_ids = self._wrapped

    def _wrapped(self, ids):
        self.calls += 1
        self.entered.set()
        self.gate.wait(timeout=30)
        return self._original(ids)

    def block(self):
        self.entered.clear()
        self.gate.clear()


class TestScheduler:
    @pytest.fixture()
    def host(self, serve_bundle_dir):
        return ModelHost(str(serve_bundle_dir))

    @pytest.fixture()
    def stream(self, mini_cati, job_binaries):
        stripped, extents = job_binaries[0]
        return extract_vuc_stream(stripped, extents, mini_cati.config.window)

    def test_queued_requests_coalesce_into_one_engine_call(
            self, host, stream, mini_cati):
        engine = host.engine
        gate = BlockableEngine(engine)
        scheduler = MicroBatchScheduler(host, queue_limit=32)
        scheduler.start()
        try:
            gate.block()
            blocker = scheduler.submit(stream.subset([0]))
            assert gate.entered.wait(timeout=10)
            # These all queue while the worker is stuck in the gate...
            queued = [scheduler.submit(stream) for _ in range(4)]
            gate.gate.set()
            results = [scheduler.wait(p, timeout=30) for p in queued]
            scheduler.wait(blocker, timeout=30)
            # ...so they ride one coalesced engine call (2 total).
            assert gate.calls == 2
            expected = prediction_tuples(mini_cati.engine.score([stream])[0].predictions)
            for result in results:
                assert prediction_tuples(result) == expected
        finally:
            gate.gate.set()
            scheduler.close(timeout=10)

    def test_queue_full_raises_with_retry_hint(self, host, stream):
        engine = host.engine
        gate = BlockableEngine(engine)
        scheduler = MicroBatchScheduler(host, queue_limit=1)
        scheduler.start()
        try:
            gate.block()
            first = scheduler.submit(stream)
            assert gate.entered.wait(timeout=10)
            second = scheduler.submit(stream)  # fills the queue
            with pytest.raises(QueueFullError) as excinfo:
                scheduler.submit(stream)
            assert excinfo.value.retry_after_s > 0
            assert excinfo.value.status == 503
            gate.gate.set()
            scheduler.wait(first, timeout=30)
            scheduler.wait(second, timeout=30)
        finally:
            gate.gate.set()
            scheduler.close(timeout=10)

    def test_deadline_expires_in_queue(self, host, stream):
        engine = host.engine
        gate = BlockableEngine(engine)
        scheduler = MicroBatchScheduler(host, queue_limit=8)
        scheduler.start()
        try:
            gate.block()
            blocker = scheduler.submit(stream.subset([0]))
            assert gate.entered.wait(timeout=10)
            doomed = scheduler.submit(stream, deadline_s=0.01)
            time.sleep(0.1)
            gate.gate.set()
            scheduler.wait(blocker, timeout=30)
            with pytest.raises(DeadlineExceededError):
                scheduler.wait(doomed, timeout=30)
        finally:
            gate.gate.set()
            scheduler.close(timeout=10)

    def test_close_drains_queued_work_then_rejects(self, host, stream,
                                                   mini_cati):
        scheduler = MicroBatchScheduler(host, queue_limit=32)
        scheduler.start()
        pending = [scheduler.submit(stream) for _ in range(3)]
        scheduler.close(timeout=30)
        expected = prediction_tuples(mini_cati.engine.score([stream])[0].predictions)
        for p in pending:
            assert prediction_tuples(scheduler.wait(p, timeout=1)) == expected
        with pytest.raises(ServerClosedError):
            scheduler.submit(stream)

    def test_empty_request_completes_without_queueing(self, host):
        scheduler = MicroBatchScheduler(host, queue_limit=1)
        pending = scheduler.submit(VucStream())
        assert scheduler.wait(pending, timeout=0.1) == []
        scheduler.close(timeout=5)


# -- HTTP end-to-end ---------------------------------------------------------------


class TestHttpServing:
    def test_healthz_surfaces_version_model_and_queue(self, daemon):
        import repro

        _daemon, client = daemon
        health = client.health()
        assert health["status"] == "ok"
        assert health["version"] == repro.__version__
        assert health["model"]["generation"] >= 1
        assert health["model"]["repro_version"] == repro.__version__
        assert health["queue"]["limit"] == 32
        assert "p99_s" in health["latency"]

    def test_eight_concurrent_clients_match_offline(self, daemon, job_binaries,
                                                    offline_results):
        _daemon, client = daemon
        wire_jobs = [
            {"binary": protocol.binary_to_wire(stripped),
             "extents": protocol.extents_to_wire(extents)}
            for stripped, extents in job_binaries
        ]
        results: list = [None] * 8
        errors: list = []

        def worker(slot: int) -> None:
            try:
                results[slot] = client.infer(wire_jobs[slot % len(wire_jobs)])
            except Exception as error:  # noqa: BLE001 — collected for assert
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(slot,))
                   for slot in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        for slot, response in enumerate(results):
            offline = offline_results[slot % len(job_binaries)]
            assert (prediction_tuples(response["predictions"])
                    == prediction_tuples(offline))
            for served, reference in zip(response["predictions"], offline):
                assert served["confidence"] == pytest.approx(
                    float(reference.scores.max()), abs=1e-6)

    def test_windows_job_and_metricsz(self, daemon, mini_cati, job_binaries):
        _daemon, client = daemon
        stripped, extents = job_binaries[1]
        pairs = extract_unlabeled_vucs(stripped, extents,
                                       mini_cati.config.window)
        response = client.infer_windows([t for _v, t in pairs],
                                        [v for v, _t in pairs])
        assert response["predictions"]
        snapshot = client.metrics()
        assert snapshot["counters"].get("serve.requests", 0) >= 1

    def test_malformed_packed_windows_get_400(self, daemon):
        _daemon, client = daemon
        with pytest.raises(ServeClientError) as excinfo:
            client.infer({"windows_packed": ["mov\treg\tmem\textra"],
                          "variable_ids": ["v"]})
        assert excinfo.value.status == 400
        with pytest.raises(ServeClientError) as excinfo:
            client.infer({"windows_packed": [["mov", "reg", "mem"]],
                          "variable_ids": ["v"]})
        assert excinfo.value.status == 400

    def test_wrong_length_window_fails_alone(self, serve_bundle_dir,
                                             job_binaries, offline_results):
        # A window of 3 instructions queued next to a well-formed request
        # used to ride its batch and fail the batch's id concatenation,
        # answering the well-formed request with no predictions.
        daemon, thread, client = start_daemon(serve_bundle_dir, queue_limit=8)
        try:
            engine = daemon.model_host.engine
            gate = BlockableEngine(engine)
            stripped, extents = job_binaries[1]
            stream = extract_vuc_stream(stripped, extents,
                                        daemon.model_host.config.window)
            good = {"windows_packed": protocol.pack_windows(stream.windows()),
                    "variable_ids": stream.variable_ids}
            bad = {"windows_packed": ["\n".join(["mov\treg\tmem"] * 3)],
                   "variable_ids": ["short"]}
            outcomes: dict = {}

            def post(name: str, body: dict) -> None:
                try:
                    outcomes[name] = client.infer(body)
                except ServeClientError as error:
                    outcomes[name] = error

            gate.block()
            threads = [threading.Thread(target=post, args=("blocker", good))]
            threads[0].start()
            assert gate.entered.wait(timeout=10)  # the worker holds the blocker
            for name, body in (("bad", bad), ("good", good)):
                threads.append(threading.Thread(target=post, args=(name, body)))
                threads[-1].start()
                time.sleep(0.2)  # both queue behind the gate, in this order
            gate.gate.set()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert isinstance(outcomes["bad"], ServeClientError)
            assert outcomes["bad"].status == 400
            expected = prediction_tuples(offline_results[1])
            for name in ("blocker", "good"):
                assert prediction_tuples(outcomes[name]["predictions"]) == expected
        finally:
            gate.gate.set()
            stop_daemon(daemon, thread)

    def test_path_job_is_rejected(self, daemon, job_binaries, tmp_path):
        # The server never reads a file a client names: a "path" body is
        # an unknown job kind on both endpoints that take a job, and so
        # is the retired verbose "windows" form.
        _daemon, client = daemon
        stripped, extents = job_binaries[2]
        job_file = tmp_path / "job.json"
        job_file.write_text(json.dumps({
            "binary": protocol.binary_to_wire(stripped),
            "extents": protocol.extents_to_wire(extents)}))
        for body in ({"path": str(job_file)},
                     {"windows": [[["mov", "reg", "mem"]]], "variable_ids": ["v"]}):
            for send in (client.infer, client.open_session):
                with pytest.raises(ServeClientError) as excinfo:
                    send(body)
                assert excinfo.value.status == 400
                for kind in protocol.JOB_KINDS:
                    assert repr(kind) in str(excinfo.value)

    def test_malformed_requests_get_400(self, daemon):
        _daemon, client = daemon
        with pytest.raises(ServeClientError) as excinfo:
            client.infer({"windows_packed": ["a\tb\tc"]})  # no variable_ids
        assert excinfo.value.status == 400
        with pytest.raises(ServeClientError) as excinfo:
            client.infer({})
        assert excinfo.value.status == 400
        with pytest.raises(ServeClientError) as excinfo:
            client._request("POST", "/v1/nope", {})
        assert excinfo.value.status == 404
        for path, body in MALFORMED_ENVELOPES:
            with pytest.raises(ServeClientError) as excinfo:
                client._request("POST", path, body)
            assert excinfo.value.status == 400, (path, body)
            assert excinfo.value.kind == "RequestError", (path, body)

    def test_queue_full_returns_503_with_retry_after(self, serve_bundle_dir):
        daemon, thread, client = start_daemon(serve_bundle_dir, queue_limit=1)
        try:
            engine = daemon.model_host.engine
            gate = BlockableEngine(engine)
            gate.block()
            length = daemon.model_host.config.vuc_length
            job = {"windows_packed": ["\n".join(["mov\treg\tmem"] * length)],
                   "variable_ids": ["v0"]}
            outcomes: list = []

            def post() -> None:
                try:
                    outcomes.append(client.infer(job))
                except ServeClientError as error:
                    outcomes.append(error)

            threads = []
            first = threading.Thread(target=post)
            first.start()
            threads.append(first)
            assert gate.entered.wait(timeout=10)  # worker holds request 1
            for _ in range(2):  # request 2 queues, request 3 must bounce
                t = threading.Thread(target=post)
                t.start()
                threads.append(t)
                time.sleep(0.2)
            gate.gate.set()
            for t in threads:
                t.join(timeout=60)
            rejected = [o for o in outcomes if isinstance(o, ServeClientError)]
            served = [o for o in outcomes if isinstance(o, dict)]
            assert len(rejected) == 1 and len(served) == 2
            assert rejected[0].status == 503
            assert rejected[0].kind == "QueueFullError"
            assert rejected[0].retry_after is not None
            assert rejected[0].retry_after >= 1
        finally:
            stop_daemon(daemon, thread)


# -- hot reload --------------------------------------------------------------------


class TestReload:
    def test_reload_under_load_bumps_generation_without_drops(
            self, serve_bundle_dir, job_binaries, offline_results):
        daemon, thread, client = start_daemon(serve_bundle_dir, queue_limit=32)
        try:
            wire = {"binary": protocol.binary_to_wire(job_binaries[0][0]),
                    "extents": protocol.extents_to_wire(job_binaries[0][1])}
            stop = threading.Event()
            errors: list = []
            mismatches: list = []
            expected = prediction_tuples(offline_results[0])

            def hammer() -> None:
                while not stop.is_set():
                    try:
                        response = client.infer(wire)
                    except Exception as error:  # noqa: BLE001
                        errors.append(error)
                        return
                    if prediction_tuples(response["predictions"]) != expected:
                        mismatches.append(response)

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for t in threads:
                t.start()
            time.sleep(0.3)
            reloaded = client.reload()
            assert reloaded["reloaded"] is True
            assert reloaded["model"]["generation"] == 2
            time.sleep(0.3)
            stop.set()
            for t in threads:
                t.join(timeout=60)
            assert not errors, f"requests failed across reload: {errors[:3]}"
            assert not mismatches
            assert client.health()["model"]["generation"] == 2
        finally:
            stop_daemon(daemon, thread)

    def test_corrupt_bundle_rejected_409_old_model_keeps_serving(
            self, serve_bundle_dir, tmp_path, job_binaries, offline_results):
        corrupt = tmp_path / "corrupt"
        shutil.copytree(serve_bundle_dir, corrupt)
        payload = corrupt / "word2vec.npz"
        blob = bytearray(payload.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        payload.write_bytes(bytes(blob))

        daemon, thread, client = start_daemon(serve_bundle_dir, queue_limit=32)
        try:
            with pytest.raises(ServeClientError) as excinfo:
                client.reload(str(corrupt))
            assert excinfo.value.status == 409
            assert excinfo.value.kind == "BundleIntegrityError"
            health = client.health()
            assert health["model"]["generation"] == 1
            assert health["model"]["bundle"] == str(serve_bundle_dir)
            response = client.infer_binary(*job_binaries[0])
            assert (prediction_tuples(response["predictions"])
                    == prediction_tuples(offline_results[0]))
        finally:
            stop_daemon(daemon, thread)

    def test_structural_config_drift_rejected_409(self, serve_bundle_dir,
                                                  tmp_path):
        drifted = tmp_path / "drifted"
        shutil.copytree(serve_bundle_dir, drifted)
        manifest_path = drifted / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["fc_width"] = manifest["config"]["fc_width"] * 2
        manifest_path.write_text(json.dumps(manifest))

        daemon, thread, client = start_daemon(serve_bundle_dir, queue_limit=32)
        try:
            with pytest.raises(ServeClientError) as excinfo:
                client.reload(str(drifted))
            assert excinfo.value.status == 409
            assert excinfo.value.kind == "ConfigMismatchError"
            assert client.health()["model"]["generation"] == 1
        finally:
            stop_daemon(daemon, thread)


# -- SIGTERM drain (subprocess) ----------------------------------------------------


@contextlib.contextmanager
def serve_cli(bundle_dir, workers: int):
    """``repro serve --workers N`` as a real subprocess in its own session.

    Yields the process, its port and ``wait_for(prefix, timeout)``, which
    returns the next output line starting with ``prefix``.  On the way
    out the whole process group is SIGKILLed, so a failed router case
    leaves no workers behind without a parent.
    """
    env = dict(os.environ, PYTHONPATH=SRC_DIR, PYTHONUNBUFFERED="1")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--model-dir", str(bundle_dir), "--port", "0",
         "--workers", str(workers), "--queue-limit", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, start_new_session=True)
    assert process.stdout is not None
    lines: queue.Queue = queue.Queue()

    def pump() -> None:
        # readline() has no timeout; reading on a thread lets the
        # deadlines below fire even when an awaited line never arrives.
        for line in process.stdout:
            lines.put(line)
        lines.put(None)

    def wait_for(prefix: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                pytest.fail(f"no {prefix!r} line within {timeout}s")
            if line is None:
                pytest.fail(f"serve process exited before {prefix!r}")
            if line.startswith(prefix):
                return line

    threading.Thread(target=pump, daemon=True).start()
    try:
        port = int(wait_for("serving on http://", 120).rsplit(":", 1)[1])
        yield process, port, wait_for
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the whole tree has exited
        process.wait(timeout=30)


def wait_refused(port: int, timeout: float) -> None:
    """Return once connecting to ``port`` is refused (its listener closed)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=5).close()
        except ConnectionRefusedError:
            return
        except ConnectionResetError:
            pass  # caught the listener mid-close; probe again
        time.sleep(0.01)
    pytest.fail(f"the listener was still open after {timeout}s")


class TestSigtermDrain:
    def test_sigterm_finishes_in_flight_request(self, serve_bundle_dir,
                                                mini_cati, job_binaries):
        """The single daemon (``--workers 1``)."""
        self.check_drain(1, "serve", serve_bundle_dir, mini_cati, job_binaries)

    def test_router_sigterm_finishes_in_flight_request(self, serve_bundle_dir,
                                                       mini_cati, job_binaries):
        """The pre-fork router must keep its workers up until its own
        in-flight forwards have answered."""
        self.check_drain(2, "router", serve_bundle_dir, mini_cati, job_binaries)

    @staticmethod
    def check_drain(workers, label, serve_bundle_dir, mini_cati, job_binaries):
        with serve_cli(serve_bundle_dir, workers) as (process, port, wait_for):
            stripped, extents = job_binaries[0]
            pairs = extract_unlabeled_vucs(stripped, extents,
                                           mini_cati.config.window)
            body = json.dumps({
                "windows_packed": protocol.pack_windows([t for _v, t in pairs]),
                "variable_ids": [v for v, _t in pairs]}).encode("utf-8")
            head = (f"POST /v1/infer HTTP/1.0\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
            half = len(body) // 2
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=60) as upload:
                # Half a body holds the request in flight: its handler
                # thread blocks reading the rest.
                upload.sendall(head + body[:half])
                # Connections are accepted in arrival order, so once a
                # later one is answered the upload has its handler.
                ServeClient("127.0.0.1", port, timeout=60).health()
                process.send_signal(signal.SIGTERM)
                # The drain has begun with the request still mid-upload.
                # Once the listener is closed the drain can only be
                # waiting on handler threads; the request must still
                # finish with a real answer.
                wait_for(f"[{label}] SIGTERM: draining", 60)
                wait_refused(port, 60)
                upload.sendall(body[half:])
                response = http.client.HTTPResponse(upload)
                response.begin()
                status, answer = response.status, json.loads(response.read())
            assert status == 200, answer
            expected = mini_cati.infer_binary(stripped, extents)
            assert (prediction_tuples(answer["predictions"])
                    == prediction_tuples(expected))
            assert process.wait(timeout=60) == 0


class TestServeFlags:
    @pytest.mark.parametrize("argv", [
        ["--max-batch", "4096"], ["--max-delay-ms", "5"],
        ["--on-error", "skip"], ["--watch"], ["--watch-interval", "2"],
    ], ids=lambda argv: argv[0])
    def test_deleted_flags_exit_2(self, argv, capsys):
        """The batching budget and wait are constants, ``on_error`` is a
        request field and ``POST /v1/reload`` the only reload trigger."""
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "0", *argv])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {argv[0]}" in capsys.readouterr().err


# -- satellites --------------------------------------------------------------------


class TestVersionSurfacing:
    def test_manifest_provenance_carries_repro_version(self, serve_bundle_dir):
        import repro

        manifest = json.loads((serve_bundle_dir / "manifest.json").read_text())
        assert manifest["provenance"]["repro_version"] == repro.__version__

    def test_model_inspect_prints_version(self, serve_bundle_dir, capsys):
        import repro
        from repro.cli import main

        assert main(["model", "inspect", str(serve_bundle_dir)]) == 0
        assert f"by repro {repro.__version__}" in capsys.readouterr().out


class TestCliJson:
    def test_infer_json_emits_the_wire_schema(self, serve_bundle_dir, capsys):
        from repro.cli import main

        assert main(["infer", "--model-dir", str(serve_bundle_dir),
                     "--seed", "7", "--json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["schema"] == protocol.RESPONSE_SCHEMA
        assert body["binary"] == "cli-demo"
        assert body["n_predictions"] == len(body["predictions"])
        assert body["model"]["bundle"] == str(serve_bundle_dir)
        for prediction in body["predictions"]:
            assert set(prediction) == {"variable_id", "type", "n_vucs",
                                       "confidence", "margin", "runner_up",
                                       "runner_up_confidence", "scores"}


class TestMetricsOut:
    def test_metrics_out_creates_parents_and_writes_atomically(self, tmp_path):
        import argparse

        from repro.cli import _dump_metrics

        target = tmp_path / "deep" / "nested" / "metrics.json"
        args = argparse.Namespace(metrics_out=str(target))
        _dump_metrics(args)
        payload = json.loads(target.read_text())
        assert set(payload) == {"metrics", "failures"}
        leftovers = [p for p in target.parent.iterdir() if p != target]
        assert not leftovers, f"temp files left behind: {leftovers}"


class TestHistogramQuantile:
    def test_quantiles_interpolate_within_buckets(self):
        from repro.core.observability import Histogram

        histogram = Histogram("t", boundaries=(1.0, 10.0, 100.0))
        assert histogram.quantile(0.5) is None
        histogram.observe_many([0.5] * 50 + [5.0] * 50)
        p25, p75 = histogram.quantile(0.25), histogram.quantile(0.75)
        assert 0.0 <= p25 <= 1.0
        assert 1.0 <= p75 <= 10.0
        assert histogram.quantile(0.0) == pytest.approx(0.5)
        assert histogram.quantile(1.0) == pytest.approx(5.0)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)
