"""The pre-fork router: dispatch, fenced reload, respawn, merged rollups.

The acceptance contract (ISSUE 8): N spawned workers serve the exact
single-daemon wire format behind one router port; prediction identities
match the offline engine; a rolling hot reload under live traffic drops
zero requests and bumps the generation only after every worker rolled;
a corrupt bundle answers 409 while the old generation keeps serving; a
SIGKILLed worker is respawned by the monitor and ``/healthz``
enumerates the restart; SIGTERM drains the whole tree to rc 0, with a
request still uploading answered (``test_serve.py``'s
``test_router_sigterm_finishes_in_flight_request``); and when the
router itself is SIGKILLed, its workers exit on their own.  Answers are
compared with offline here only under reload and respawn: the 2-worker
router's plain answers are the oracle's (``test_oracle.py``'s
``router-2w-binary`` and ``router-2w-session``).

Every worker loads the bundle through the checksum-verified
``Cati.load`` path, and serving writes nothing into the bundle
directory: a single daemon and a router each serve, reload and stop on
a fresh bundle, which then holds exactly its manifest and payloads.

Worker processes are real ``multiprocessing`` spawns, so this module
is the slowest of the serve tests; everything shares one module-scoped
router to pay the spawn cost once.
"""

from __future__ import annotations

import dataclasses
import http.server
import json
import os
import shutil
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro.codegen import GccCompiler, strip
from repro.core import observability
from repro.core.artifacts import ModelBundle
from repro.core.pipeline import Cati
from repro.experiments.speed import extents_from_debug
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.router import RouterDaemon
from repro.serve.worker import BLAS_THREAD_VARS
from tests.test_serve import (MALFORMED_ENVELOPES, prediction_tuples, serve_cli,
                              start_daemon, stop_daemon)


@pytest.fixture(scope="session")
def router_bundle_dir(tmp_path_factory, mini_cati):
    directory = tmp_path_factory.mktemp("router") / "bundle"
    mini_cati.save(str(directory))
    return directory


@pytest.fixture(scope="session")
def router_windows(small_corpus):
    samples = list(small_corpus.test)[:60]
    windows = [sample.tokens for sample in samples]
    variable_ids = [f"rv{i // 3}" for i in range(len(windows))]
    return windows, variable_ids


@pytest.fixture(scope="session")
def router_expected(mini_cati, router_windows):
    windows, variable_ids = router_windows
    stream = protocol.stream_from_packed(protocol.pack_windows(windows),
                                         variable_ids, mini_cati.config.window)
    return prediction_tuples(mini_cati.engine.score([stream])[0].predictions)


def start_router(bundle_dir, **options):
    """A 2-worker router serving ``bundle_dir`` on a thread, plus a client."""
    daemon = RouterDaemon(str(bundle_dir), port=0, workers=2, **options)
    thread = threading.Thread(target=daemon.run, daemon=True)
    thread.start()
    client = ServeClient(daemon.host, daemon.port, timeout=120)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            client.health()
            break
        except OSError:
            time.sleep(0.05)
    return daemon, thread, client


def stop_router(daemon, thread) -> None:
    daemon.request_shutdown()
    thread.join(timeout=60)
    assert not thread.is_alive(), "router did not drain"


@pytest.fixture(scope="module")
def router(router_bundle_dir):
    daemon, thread, client = start_router(router_bundle_dir, queue_limit=32)
    yield daemon, client
    stop_router(daemon, thread)


@pytest.fixture(scope="module")
def binary_job():
    binary = GccCompiler().compile_fresh(seed=301, name="router-job", opt_level=0)
    return strip(binary), extents_from_debug(binary)


def vote_answers(predictions):
    """``(variable_id, type, n_vucs)`` plus scores of wire or offline predictions."""
    identities = prediction_tuples(predictions)
    scores = [np.asarray(p["scores"] if isinstance(p, dict) else p.scores,
                         dtype=np.float64) for p in predictions]
    return identities, scores


def wait_all_live(client, *, min_restarts=0, timeout=60.0):
    """Poll /healthz until every worker slot is alive again."""
    deadline = time.monotonic() + timeout
    health = client.health()
    while time.monotonic() < deadline:
        health = client.health()
        if (health["restarts"] >= min_restarts
                and all(w["alive"] for w in health["workers"])):
            return health
        time.sleep(0.2)
    raise AssertionError(f"workers never recovered: {health['workers']}")


class TestRouterServing:
    def test_health_aggregates_workers(self, router):
        _daemon, client = router
        health = client.health()
        assert health["status"] == "ok"
        assert health["role"] == "router"
        assert health["model"]["workers"] == 2
        assert health["workers_live"] == 2
        assert len(health["workers"]) == 2
        for worker in health["workers"]:
            assert worker["alive"]
            assert worker["pid"] > 0
            assert worker["generation"] == health["model"]["generation"]
            assert "queue" in worker

    def test_merged_metrics_roll_up_both_layers(self, router, router_windows):
        _daemon, client = router
        # After the reset, serve.* counters can only come from workers.
        observability.reset()
        client.infer_windows(*router_windows)
        merged = client.metrics()
        # Router-side and worker-side counters appear in one snapshot.
        assert merged["counters"]["router.requests"] >= 1
        assert merged["counters"]["serve.requests"] >= 1
        assert "router.request.seconds" in merged["histograms"]
        assert "serve.batch.seconds" in merged["histograms"]
        # Bucket merges stay internally consistent.
        hist = merged["histograms"]["serve.batch.seconds"]
        assert sum(hist["counts"]) == hist["count"]

    def test_malformed_envelopes_get_400(self, router):
        """The router's own reload handler and the workers behind it
        answer a malformed envelope field with 400."""
        _daemon, client = router
        for path, body in MALFORMED_ENVELOPES:
            with pytest.raises(ServeClientError) as excinfo:
                client._request("POST", path, body)
            assert excinfo.value.status == 400, (path, body)
            assert excinfo.value.kind == "RequestError", (path, body)

    def test_rolling_reload_under_load_drops_nothing(
            self, router, router_windows, router_expected):
        _daemon, client = router
        windows, variable_ids = router_windows
        before = client.health()["model"]["generation"]
        failures: list = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                try:
                    response = client.infer_windows(windows[:12],
                                                    variable_ids[:12])
                    assert (prediction_tuples(response["predictions"])
                            == router_expected[:4])
                except Exception as error:  # noqa: BLE001 — collected
                    failures.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            time.sleep(0.3)
            result = client.reload()
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not failures, f"requests failed during the roll: {failures[:3]}"
        assert result["reloaded"] is True
        assert result["generation"] == before + 1
        assert result["rolled_workers"] == 2
        assert all(o["status"] == "rolled" for o in result["outcomes"])
        health = client.health()
        assert health["model"]["generation"] == before + 1
        assert all(w["generation"] == before + 1 for w in health["workers"])

    def test_corrupt_bundle_409_old_generation_serves(
            self, router, router_bundle_dir, tmp_path,
            router_windows, router_expected):
        _daemon, client = router
        bad_dir = tmp_path / "corrupt"
        shutil.copytree(router_bundle_dir, bad_dir)
        payload = bad_dir / "word2vec.npz"
        data = bytearray(payload.read_bytes())
        data[100] ^= 0xFF
        payload.write_bytes(bytes(data))

        before = client.health()["model"]["generation"]
        with pytest.raises(ServeClientError) as exc:
            client.reload(str(bad_dir))
        assert exc.value.status == 409

        health = client.health()
        assert health["status"] == "ok"
        assert health["model"]["generation"] == before
        windows, variable_ids = router_windows
        response = client.infer_windows(windows, variable_ids)
        assert prediction_tuples(response["predictions"]) == router_expected

    def test_sigkill_worker_respawns_and_serving_continues(
            self, router, router_windows, router_expected):
        _daemon, client = router
        health = client.health()
        restarts_before = health["restarts"]
        victim_pid = health["workers"][0]["pid"]
        os.kill(victim_pid, signal.SIGKILL)

        health = wait_all_live(client, min_restarts=restarts_before + 1)
        assert health["restarts"] == restarts_before + 1
        assert health["workers"][0]["restarts"] >= 1
        assert health["workers"][0]["pid"] != victim_pid
        assert "last_restart_at" in health["workers"][0]

        # The respawned worker joined on the router's *current* bundle
        # and generation, and serving still matches offline.
        assert all(w["generation"] == health["model"]["generation"]
                   for w in health["workers"])
        windows, variable_ids = router_windows
        response = client.infer_windows(windows, variable_ids)
        assert prediction_tuples(response["predictions"]) == router_expected


class TestWorkerSettings:
    """What a worker serves with comes from the router, not the spawn."""

    def test_no_metrics_reaches_the_workers(self, router_bundle_dir, binary_job):
        saved = observability.is_enabled()
        observability.reset()
        observability.set_enabled(False)
        try:
            daemon, thread, client = start_router(router_bundle_dir, queue_limit=8)
            try:
                response = client.infer_binary(*binary_job)
                merged = client.metrics()
            finally:
                stop_router(daemon, thread)
        finally:
            observability.set_enabled(saved)
        assert response["predictions"]
        assert "engine.windows" not in merged["counters"]
        assert not merged["counters"]
        assert not merged["spans"]

    def test_reload_serves_the_new_bundles_own_config(
            self, router_bundle_dir, mini_cati, binary_job, tmp_path):
        """Rolled and respawned workers both answer like an offline load
        of the new bundle, threshold included."""
        new_dir = tmp_path / "threshold"
        config = dataclasses.replace(mini_cati.config, confidence_threshold=0.3)
        Cati.load(str(router_bundle_dir), config=config).save(str(new_dir))
        expected = vote_answers(Cati.load(str(new_dir)).infer_binary(*binary_job))
        # The threshold moves the vote, so a worker on the old config shows.
        assert (expected[0]
                != vote_answers(mini_cati.infer_binary(*binary_job))[0])

        daemon, thread, client = start_router(router_bundle_dir, queue_limit=8)
        try:
            assert client.reload(str(new_dir))["reloaded"] is True
            os.kill(client.health()["workers"][0]["pid"], signal.SIGKILL)
            health = wait_all_live(client, min_restarts=1)
            for worker in health["workers"]:
                direct = ServeClient("127.0.0.1", worker["port"], timeout=120)
                identities, scores = vote_answers(
                    direct.infer_binary(*binary_job)["predictions"])
                assert identities == expected[0], f"worker {worker['id']}"
                for ours, theirs in zip(scores, expected[1]):
                    np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-6)
        finally:
            stop_router(daemon, thread)

    @staticmethod
    def _worker_blas_environ(bundle_dir) -> list[dict[str, str]]:
        """The BLAS variables each worker of a fresh 2-worker router
        started with (Linux's /proc/<pid>/environ).  The router's own
        environment is left as it was."""
        before = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
        daemon, thread, client = start_router(bundle_dir, queue_limit=8)
        try:
            found = []
            for worker in client.health()["workers"]:
                with open(f"/proc/{worker['pid']}/environ", "rb") as environ:
                    entries = dict(entry.partition(b"=")[::2]
                                   for entry in environ.read().split(b"\0") if entry)
                found.append({name: entries[name.encode()].decode()
                              for name in BLAS_THREAD_VARS if name.encode() in entries})
            assert {name: os.environ.get(name) for name in BLAS_THREAD_VARS} == before
        finally:
            stop_router(daemon, thread)
        return found

    def test_each_worker_blas_pool_is_its_share_of_the_cores(
            self, router_bundle_dir, monkeypatch):
        for name in BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        share = str(max(1, (os.cpu_count() or 1) // 2))
        assert self._worker_blas_environ(router_bundle_dir) == [
            dict.fromkeys(BLAS_THREAD_VARS, share)] * 2

    def test_an_operator_blas_setting_passes_through(self, router_bundle_dir, monkeypatch):
        for name in BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert self._worker_blas_environ(router_bundle_dir) == [
            {"OPENBLAS_NUM_THREADS": "3"}] * 2


class TestBundleDirectory:
    def test_serving_writes_nothing_into_the_bundle(self, mini_cati, tmp_path,
                                                    binary_job):
        bundle_dir = tmp_path / "bundle"
        mini_cati.save(str(bundle_dir))
        daemon, thread, client = start_daemon(bundle_dir)
        try:
            assert client.infer_binary(*binary_job)["predictions"]
            assert client.reload()["reloaded"] is True
        finally:
            stop_daemon(daemon, thread)
        router, thread, client = start_router(bundle_dir, queue_limit=8)
        try:
            assert client.infer_binary(*binary_job)["predictions"]
            assert client.reload()["reloaded"] is True
        finally:
            stop_router(router, thread)
        manifest = ModelBundle.open(bundle_dir).manifest
        listed = sorted(str(path.relative_to(bundle_dir))
                        for path in bundle_dir.rglob("*") if path.is_file())
        assert listed == sorted(["manifest.json", *manifest["files"]])


def running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie (reads Linux's /proc)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestRouterDeath:
    def test_workers_exit_when_the_router_is_killed(self, router_bundle_dir):
        """A SIGKILLed router drains nothing: each worker must notice on
        its own and exit rather than serve on under pid 1."""
        with serve_cli(router_bundle_dir, 2) as (process, port, _wait_for):
            health = ServeClient("127.0.0.1", port, timeout=60).health()
            pids = [worker["pid"] for worker in health["workers"]]
            assert len(pids) == 2 and all(running(pid) for pid in pids)
            process.kill()
            process.wait(timeout=30)
            deadline = time.monotonic() + 10
            while (any(running(pid) for pid in pids)
                   and time.monotonic() < deadline):
                time.sleep(0.1)
            assert [pid for pid in pids if running(pid)] == []


class _FlakyHTTPServer(threading.Thread):
    """Accepts TCP connections; drops the first N cold, answers after."""

    def __init__(self, drops: int) -> None:
        super().__init__(daemon=True)
        self.drops = drops
        self.connections = 0
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self._stop = threading.Event()

    def run(self) -> None:
        self.sock.settimeout(0.2)
        while not self._stop.is_set():
            try:
                conn, _addr = self.sock.accept()
            except TimeoutError:
                continue
            except OSError:
                return
            self.connections += 1
            if self.connections <= self.drops:
                # The reload/respawn race: close without answering.
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                b"\x01\x00\x00\x00\x00\x00\x00\x00")
                conn.close()
                continue
            conn.recv(65536)
            body = json.dumps({"status": "ok"}).encode()
            conn.sendall(b"HTTP/1.0 200 OK\r\n"
                         b"Content-Type: application/json\r\n"
                         + f"Content-Length: {len(body)}\r\n\r\n".encode()
                         + body)
            conn.close()

    def close(self) -> None:
        self._stop.set()
        self.sock.close()


class TestClientRetries:
    def test_retries_through_connection_drops(self):
        server = _FlakyHTTPServer(drops=2)
        server.start()
        try:
            client = ServeClient("127.0.0.1", server.port, timeout=10,
                                 retries=2, retry_backoff_s=0.01)
            assert client.health() == {"status": "ok"}
            assert server.connections == 3
        finally:
            server.close()

    def test_retries_exhausted_raises(self):
        server = _FlakyHTTPServer(drops=100)
        server.start()
        try:
            client = ServeClient("127.0.0.1", server.port, timeout=10,
                                 retries=2, retry_backoff_s=0.01)
            with pytest.raises(ConnectionError):
                client.health()
            assert server.connections == 3
        finally:
            server.close()

    def test_retries_disabled(self):
        server = _FlakyHTTPServer(drops=100)
        server.start()
        try:
            client = ServeClient("127.0.0.1", server.port, timeout=10,
                                 retries=0)
            with pytest.raises(ConnectionError):
                client.health()
            assert server.connections == 1
        finally:
            server.close()
