"""The pre-fork router: dispatch, fenced reload, respawn, merged rollups.

The acceptance contract (ISSUE 8): N spawned workers serve the exact
single-daemon wire format behind one router port; prediction identities
match the offline engine; a rolling hot reload under live traffic drops
zero requests and bumps the generation only after every worker rolled;
a corrupt bundle answers 409 while the old generation keeps serving; a
SIGKILLed worker is respawned by the monitor and ``/healthz``
enumerates the restart; SIGTERM drains the whole tree to rc 0.

The workers share the model through the bundle's memory-mapped
``.shared`` mirror — asserted both at the artifact layer (the loaded
arrays are memmap-backed) and end-to-end (worker ``/healthz`` reports
``mmap: true`` and served predictions still match the in-process
float path exactly).

Worker processes are real ``multiprocessing`` spawns, so this module
is the slowest of the serve tests; everything shares one module-scoped
router to pay the spawn cost once.
"""

from __future__ import annotations

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

from repro.core.artifacts import ModelBundle
from repro.core.pipeline import Cati
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.router import RouterDaemon
from tests.test_serve import prediction_tuples


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


@pytest.fixture(scope="module")
def router(router_bundle_dir):
    daemon = RouterDaemon(str(router_bundle_dir), port=0, workers=2,
                          queue_limit=32)
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
    yield daemon, client
    daemon.request_shutdown()
    thread.join(timeout=60)
    assert not thread.is_alive(), "router did not drain"


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
        assert health["model"]["mmap"] is True
        assert health["workers_live"] == 2
        assert len(health["workers"]) == 2
        for worker in health["workers"]:
            assert worker["alive"]
            assert worker["pid"] > 0
            assert worker["generation"] == health["model"]["generation"]
            assert worker["mmap"] is True
            assert "queue" in worker

    def test_merged_metrics_roll_up_both_layers(self, router):
        _daemon, client = router
        merged = client.metrics()
        # Router-side and worker-side counters appear in one snapshot.
        assert merged["counters"]["router.requests"] >= 1
        assert merged["counters"]["serve.requests"] >= 1
        assert "router.request.seconds" in merged["histograms"]
        assert "serve.batch.seconds" in merged["histograms"]
        # Bucket merges stay internally consistent.
        hist = merged["histograms"]["serve.batch.seconds"]
        assert sum(hist["counts"]) == hist["count"]

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
        shutil.copytree(router_bundle_dir, bad_dir,
                        ignore=shutil.ignore_patterns(".shared"))
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


class TestSharedModelMemory:
    def test_shared_mirror_is_memmap_backed(self, router_bundle_dir):
        bundle = ModelBundle.open(str(router_bundle_dir))
        bundle.ensure_shared_arrays()
        bundle.ensure_shared_arrays()  # idempotent — no rebuild, no error
        arrays = bundle.load_shared("word2vec.npz")
        vectors = arrays["vectors"]
        assert (isinstance(vectors, np.memmap)
                or isinstance(getattr(vectors, "base", None), np.memmap))

    def test_mmap_load_matches_copied_load(self, router_bundle_dir,
                                           router_windows):
        windows, _variable_ids = router_windows
        copied = Cati.load(str(router_bundle_dir))
        mapped = Cati.load(str(router_bundle_dir), mmap=True)
        assert copied.mmap_active is False
        assert mapped.mmap_active is True
        table = mapped.encoder.embedding.vectors
        assert (isinstance(table, np.memmap)
                or isinstance(getattr(table, "base", None), np.memmap))
        np.testing.assert_array_equal(
            mapped.engine.leaf_proba(windows), copied.engine.leaf_proba(windows))

    def test_shared_mirror_detects_stale_shapes(self, router_bundle_dir,
                                                tmp_path):
        from repro.core.errors import ArtifactError

        clone = tmp_path / "clone"
        shutil.copytree(router_bundle_dir, clone)
        bundle = ModelBundle.open(str(clone))
        bundle.ensure_shared_arrays()
        # Truncate one mirror file behind the marker's back.
        mirrors = sorted((bundle.shared_dir() / "word2vec.npz").glob("*.npy"))
        mirrors[0].write_bytes(b"\x93NUMPY")
        with pytest.raises(ArtifactError):
            bundle.load_shared("word2vec.npz")


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
