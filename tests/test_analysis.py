"""Interactive analysis sessions: store bounds, tools, stickiness.

The acceptance contract (ISSUE 10): a session opened over
``/v1/session/open`` parses + encodes the binary once and then answers
``cati-tool-call/1`` tools against held state; every tool's output is
*byte-identical* to the offline path (same renderers, same engine);
idle sessions expire by TTL and excess bytes evict LRU, both visible in
``/healthz``; under ``--workers 2`` session calls route sticky to the
owning worker, and killing that worker turns the session's calls into
retriable 410s while fresh opens keep working.

The store bounds are unit-tested with stub sessions and an injected
clock (no daemon, no sleeps); the tool surface runs against one
module-scoped daemon over the shared mini model, also through the real
``repro repl --exec`` CLI; the stickiness tests pay for one
module-scoped two-worker router.  ``type_variable`` and
``struct_layouts`` answers are compared with offline by the oracle's
``session`` and ``router-2w-session`` cases (``test_oracle.py``).
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest

from repro.analysis import SessionStore, mint_session_id, session_slot
from repro.analysis.render import (annotation_variable_ids, render_epsilons,
                                   render_listing)
from repro.cli import main as cli_main
from repro.codegen.compilers import GccCompiler
from repro.codegen.strip import strip
from repro.core.errors import SessionGoneError
from repro.core.occlusion import occlusion_epsilons_many
from repro.experiments.speed import extents_from_debug
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.router import RouterDaemon
from repro.vuc.dataset import extract_unlabeled_vucs
from tests.test_router import wait_all_live
from tests.test_serve import start_daemon, stop_daemon


class StubSession:
    """The two attributes the store cares about, nothing else."""

    def __init__(self, session_id: str, nbytes: int) -> None:
        self.session_id = session_id
        self.nbytes = nbytes


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestSessionStore:
    def test_get_touches_and_returns(self):
        store = SessionStore(ttl_s=10, max_bytes=1000, clock=FakeClock())
        session = StubSession("a", 10)
        store.put(session)
        assert store.get("a") is session
        assert store.stats()["sessions"] == 1

    def test_unknown_id_raises_session_gone(self):
        store = SessionStore(ttl_s=10, max_bytes=1000)
        with pytest.raises(SessionGoneError, match="re-open"):
            store.get("nope")

    def test_ttl_expires_idle_sessions(self):
        clock = FakeClock()
        store = SessionStore(ttl_s=10, max_bytes=1000, clock=clock)
        store.put(StubSession("a", 10))
        clock.now += 11
        with pytest.raises(SessionGoneError):
            store.get("a")
        stats = store.stats()
        assert stats["sessions"] == 0
        assert stats["evicted_ttl"] == 1
        assert stats["bytes"] == 0

    def test_any_access_sweeps_other_expired_sessions(self):
        clock = FakeClock()
        store = SessionStore(ttl_s=10, max_bytes=1000, clock=clock)
        store.put(StubSession("old", 10))
        clock.now += 11
        store.put(StubSession("new", 10))  # put sweeps "old"
        stats = store.stats()
        assert stats["sessions"] == 1
        assert stats["evicted_ttl"] == 1

    def test_byte_cap_evicts_least_recently_used(self):
        store = SessionStore(ttl_s=10, max_bytes=100, clock=FakeClock())
        store.put(StubSession("a", 60))
        store.put(StubSession("b", 30))
        store.put(StubSession("c", 30))  # 120 > 100 → "a" (oldest) goes
        with pytest.raises(SessionGoneError):
            store.get("a")
        assert store.get("b").session_id == "b"
        assert store.get("c").session_id == "c"
        assert store.stats()["evicted_lru"] == 1

    def test_get_refreshes_lru_order(self):
        store = SessionStore(ttl_s=10, max_bytes=100, clock=FakeClock())
        store.put(StubSession("a", 60))
        store.put(StubSession("b", 30))
        store.get("a")                    # now "b" is the LRU victim
        store.put(StubSession("c", 30))
        with pytest.raises(SessionGoneError):
            store.get("b")
        assert store.get("a").session_id == "a"

    def test_oversized_session_is_kept_not_thrashed(self):
        store = SessionStore(ttl_s=10, max_bytes=100, clock=FakeClock())
        store.put(StubSession("big", 1000))
        assert store.get("big").session_id == "big"
        store.put(StubSession("small", 10))   # evicts "big", fits again
        with pytest.raises(SessionGoneError):
            store.get("big")
        assert store.stats()["bytes"] == 10

    def test_remove_reports_presence(self):
        store = SessionStore(ttl_s=10, max_bytes=1000)
        store.put(StubSession("a", 10))
        assert store.remove("a") is True
        assert store.remove("a") is False
        assert store.stats()["closed"] == 1

    def test_bounds_validated(self):
        with pytest.raises(ValueError, match="ttl_s"):
            SessionStore(ttl_s=0)
        with pytest.raises(ValueError, match="max_bytes"):
            SessionStore(max_bytes=0)


class TestSlotHashing:
    def test_minted_ids_hash_to_their_slot(self):
        for slot_count in (1, 2, 3, 5):
            for slot in range(slot_count):
                session_id = mint_session_id(slot, slot_count)
                assert session_slot(session_id, slot_count) == slot

    def test_slot_is_stable_and_in_range(self):
        assert session_slot("abc", 4) == session_slot("abc", 4)
        assert all(0 <= session_slot(f"s{i}", 3) < 3 for i in range(50))
        assert session_slot("anything", 1) == 0


# -- the tool surface against one daemon ------------------------------------------


@pytest.fixture(scope="module")
def analysis_bundle_dir(tmp_path_factory, mini_cati):
    directory = tmp_path_factory.mktemp("analysis") / "bundle"
    mini_cati.save(str(directory))
    return directory


@pytest.fixture(scope="module")
def target():
    """One stripped binary + extents, distinct from other tests' seeds."""
    binary = GccCompiler().compile_fresh(seed=55, name="annot", opt_level=0)
    return strip(binary), extents_from_debug(binary)


@pytest.fixture(scope="module")
def offline(mini_cati, target):
    """The offline ground truth every served tool must match exactly."""
    stripped, extents = target
    return mini_cati.infer_binary(stripped, extents, structs=True)


@pytest.fixture(scope="module")
def daemon(analysis_bundle_dir):
    daemon, thread, client = start_daemon(analysis_bundle_dir, queue_limit=32)
    yield daemon, client
    stop_daemon(daemon, thread)


@pytest.fixture()
def handle(daemon, target):
    _daemon, client = daemon
    stripped, extents = target
    handle = client.session(binary=stripped, extents=extents)
    yield handle
    try:
        handle.close()
    except ServeClientError:
        pass


class TestSessionTools:
    def test_open_response_shape(self, handle, target, daemon):
        stripped, _extents = target
        info = handle.info
        assert info["binary"] == stripped.name
        assert info["n_functions"] == len(stripped.functions)
        assert info["n_windows"] > 0
        assert info["variables"] == sorted(info["variables"])
        assert info["nbytes"] > 0
        _daemon, client = daemon
        assert client.health()["sessions"]["sessions"] >= 1

    def test_list_functions(self, handle, target):
        stripped, _extents = target
        result = handle.list_functions()
        assert result["n_functions"] == len(stripped.functions)
        names = [f["name"] for f in result["functions"]]
        assert names == [f.name for f in stripped.functions]
        listed = {v for f in result["functions"] for v in f["variables"]}
        assert listed == set(handle.variables)

    def test_disassemble_matches_renderer(self, handle, target):
        stripped, _extents = target
        result = handle.disassemble(function=1)
        assert result["lines"] == render_listing(stripped.functions[1])
        by_name = handle.disassemble(function=stripped.functions[1].name)
        assert by_name["lines"] == result["lines"]

    def test_explain_matches_offline_occlusion(self, handle, target,
                                               mini_cati):
        stripped, extents = target
        pairs = extract_unlabeled_vucs(stripped, extents,
                                       mini_cati.config.window)
        variable_id = handle.variables[0]
        window = next(tokens for vid, tokens in pairs if vid == variable_id)
        batched = occlusion_epsilons_many(mini_cati, [window])
        served = handle.explain(variable_id, vuc=0)
        assert served["lines"] == render_epsilons(window, batched.epsilons[0])
        assert served["epsilons"] == [float(e) for e in batched.epsilons[0]]
        assert served["base_confidence"] == float(batched.base_confidences[0])

    def test_annotate_matches_offline(self, handle, target, offline):
        stripped, extents = target
        types = {p.variable_id: str(p.predicted) for p in offline}
        for index in range(len(stripped.functions)):
            ids = annotation_variable_ids(stripped.functions[index],
                                          extents[index],
                                          f"{stripped.name}/{index}")
            annotation = {i: types[vid] for i, vid in ids.items()
                          if vid in types}
            served = handle.annotate_disassembly(function=index)
            assert served["lines"] == render_listing(
                stripped.functions[index], annotation)

    def test_bad_tool_and_args_are_400(self, handle, daemon):
        _daemon, client = daemon
        with pytest.raises(ServeClientError) as excinfo:
            handle.call("decompile")
        assert excinfo.value.status == 400
        with pytest.raises(ServeClientError) as excinfo:
            handle.type_variable("no/such::variable")
        assert excinfo.value.status == 400
        with pytest.raises(ServeClientError) as excinfo:
            handle.explain(handle.variables[0], vuc=10_000)
        assert excinfo.value.status == 400

    def test_unknown_session_is_410(self, daemon):
        _daemon, client = daemon
        with pytest.raises(ServeClientError) as excinfo:
            client._request("POST", "/v1/session/deadbeef00000000/call",
                            {"tool": "list_functions", "args": {}})
        assert excinfo.value.status == 410
        assert excinfo.value.kind == "SessionGoneError"

    def test_close_then_call_is_410(self, daemon, target):
        _daemon, client = daemon
        stripped, extents = target
        handle = client.session(binary=stripped, extents=extents)
        assert handle.close()["closed"] is True
        with pytest.raises(ServeClientError) as excinfo:
            handle.list_functions()
        assert excinfo.value.status == 410

    def test_session_survives_hot_reload(self, daemon, handle):
        _daemon, client = daemon
        before = handle.annotate_disassembly(function=0)["lines"]
        client.reload()
        assert handle.annotate_disassembly(function=0)["lines"] == before

    def test_session_reencodes_once_under_a_new_vocabulary(
            self, analysis_bundle_dir, mini_cati, small_corpus, mini_config,
            target, tmp_path, monkeypatch):
        import dataclasses

        import numpy as np

        from repro.core.pipeline import Cati
        from repro.embedding.encoder import VucEncoder
        from repro.vuc.stream import extract_vuc_stream

        # Same structural fields (the reload is accepted), another
        # vocabulary: tokens rarer than 100 map to UNK, so ids encoded
        # under the first model are stale.
        other = Cati(dataclasses.replace(mini_config, min_token_count=100)).train(
            small_corpus.train)
        other_dir = tmp_path / "other-vocab"
        other.save(str(other_dir))
        stripped, extents = target
        stream = extract_vuc_stream(stripped, extents, mini_config.window)
        assert not np.array_equal(mini_cati.encoder.encode_stream(stream),
                                  other.encoder.encode_stream(stream))
        expected = {p.variable_id: p for p in other.infer_binary(stripped, extents)}

        daemon, thread, client = start_daemon(analysis_bundle_dir, queue_limit=8)
        try:
            handle = client.session(binary=stripped, extents=extents)
            tokens = daemon.sessions.get(handle.id).stream.tokens
            encodes = []
            original = VucEncoder.encode_stream

            def counting(encoder, stream):
                if stream.tokens is tokens:
                    encodes.append(len(stream))
                return original(encoder, stream)

            monkeypatch.setattr(VucEncoder, "encode_stream", counting)
            client.reload(str(other_dir))
            for variable_id in handle.variables[:2]:
                served = handle.type_variable(variable_id)["prediction"]
                assert served == protocol.prediction_to_dict(expected[variable_id])
            types = {vid: str(p.predicted) for vid, p in expected.items()}
            for index, func in enumerate(stripped.functions):
                ids = annotation_variable_ids(func, extents[index],
                                              f"{stripped.name}/{index}")
                served = handle.annotate_disassembly(function=index)
                assert served["lines"] == render_listing(
                    func, {i: types[vid] for i, vid in ids.items() if vid in types})
            assert encodes == [handle.info["n_windows"]]
        finally:
            stop_daemon(daemon, thread)

    def test_windows_job_cannot_open_session(self, daemon, small_corpus):
        _daemon, client = daemon
        samples = list(small_corpus.test)[:3]
        with pytest.raises(ServeClientError) as excinfo:
            client.open_session({
                "windows_packed": protocol.pack_windows(
                    [s.tokens for s in samples]),
                "variable_ids": ["a", "b", "c"],
            })
        assert excinfo.value.status == 400

    def test_repl_open_path_matches_binary_open(self, daemon, target, tmp_path):
        # `open path FILE` reads FILE on the client and sends its JSON as
        # the open body, so the session equals a `binary` open of the job.
        from repro.repl import Repl

        _daemon, client = daemon
        stripped, extents = target
        job_file = tmp_path / "job.json"
        job_file.write_text(json.dumps({
            "binary": protocol.binary_to_wire(stripped),
            "extents": protocol.extents_to_wire(extents)}))
        via_path = Repl(client, out=lambda line: None)
        via_path.run_command(f"open path {job_file}")
        assert via_path._last_open == json.loads(job_file.read_text())
        via_binary = Repl(client, out=lambda line: None)
        via_binary.handle = client.session(binary=stripped, extents=extents)
        typed = []
        for repl in (via_path, via_binary):
            lines: list[str] = []
            repl.out = lines.append
            repl.run_command("type %0")
            repl.run_command("close")
            typed.append(lines[:-1])
        assert typed[0] and typed[0] == typed[1]

    def test_repl_exec_walks_every_tool(self, daemon, capsys):
        """The real ``repro repl --exec`` CLI, one command per tool."""
        served, _client = daemon
        rc = cli_main(["repl", "--port", str(served.port), "--exec",
                       "open demo 77 1; functions; vars; dis 0; type %0; "
                       "explain %0 0; annotate 0; layouts; close"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0, lines
        opened = [line for line in lines if " open: serve-demo (" in line]
        assert len(opened) == 1 and opened[0].startswith("session ")
        session_id = opened[0].split()[1]
        assert lines[-1] == f"session {session_id} closed"

    def test_metrics_count_session_traffic(self, daemon, handle):
        _daemon, client = daemon
        handle.list_functions()
        counters = client.metrics()["counters"]
        assert counters.get("sessions.opened", 0) >= 1
        assert counters.get("sessions.calls", 0) >= 1
        assert counters.get("sessions.tool.list_functions", 0) >= 1


class TestSessionBoundsServed:
    def test_ttl_expiry_end_to_end(self, analysis_bundle_dir, target, capsys):
        daemon, thread, client = start_daemon(analysis_bundle_dir,
                                              session_ttl_s=0.2)
        try:
            stripped, extents = target
            handle = client.session(binary=stripped, extents=extents)
            handle.list_functions()
            time.sleep(0.3)
            with pytest.raises(ServeClientError) as excinfo:
                handle.list_functions()
            assert excinfo.value.status == 410
            health = client.health()["sessions"]
            assert health["evicted_ttl"] >= 1
            # Through the real repl: it meets the 410 mid-script,
            # re-opens with the last `open` and finishes the command.
            rc = cli_main(["repl", "--port", str(daemon.port), "--exec",
                           "open demo 77 1; sleep 0.3; functions; close"])
        finally:
            stop_daemon(daemon, thread)
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0, lines
        gone = next(i for i, line in enumerate(lines)
                    if line.startswith("session gone"))
        assert any(line.startswith("  [0] ") for line in lines[gone + 1:])

    def test_lru_eviction_under_concurrent_opens(self, analysis_bundle_dir,
                                                 target):
        # Budget of one byte: any real session overflows it, so each
        # insert keeps only itself (the just-put session is never its
        # own victim) and every earlier session answers 410.
        daemon, thread, client = start_daemon(analysis_bundle_dir,
                                              session_max_bytes=1)
        try:
            stripped, extents = target
            handles = []
            errors = []

            def open_one():
                try:
                    handles.append(
                        client.session(binary=stripped, extents=extents))
                except ServeClientError as error:  # pragma: no cover
                    errors.append(error)

            threads = [threading.Thread(target=open_one) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors
            assert len(handles) == 4
            stats = client.health()["sessions"]
            assert stats["sessions"] == 1
            assert stats["evicted_lru"] == 3
            alive = [h for h in handles if _session_alive(h)]
            assert len(alive) == 1
        finally:
            stop_daemon(daemon, thread)


def _session_alive(handle) -> bool:
    try:
        handle.list_functions()
        return True
    except ServeClientError as error:
        assert error.status == 410
        return False


# -- sticky sessions behind the router ---------------------------------------------


@pytest.fixture(scope="module")
def session_router(analysis_bundle_dir):
    daemon = RouterDaemon(str(analysis_bundle_dir), port=0, workers=2,
                          queue_limit=32)
    thread = threading.Thread(target=daemon.run, daemon=True)
    thread.start()
    client = ServeClient(daemon.host, daemon.port, timeout=120)
    deadline = time.monotonic() + 60
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


class TestStickySessions:
    def test_sessions_route_to_their_worker(self, session_router, target):
        _daemon, client = session_router
        stripped, extents = target
        handles = [client.session(binary=stripped, extents=extents)
                   for _ in range(3)]
        # Interleave calls across sessions: every one must land on the
        # worker holding its state (a stray call would answer 410).
        # The oracle's router-2w-session case checks the answers.
        for _round in range(2):
            for handle in handles:
                listing = handle.list_functions()
                assert listing["n_functions"] == len(stripped.functions)
                variable_id = handle.variables[0]
                served = handle.type_variable(variable_id)["prediction"]
                assert served["variable_id"] == variable_id
        health = client.health()
        assert health["sessions"]["sessions"] == 3
        assert health["sessions"]["opened"] >= 3
        per_worker = [w["sessions"]["sessions"] for w in health["workers"]]
        assert sum(per_worker) == 3
        counters = client.metrics()["counters"]
        assert counters.get("sessions.opened", 0) >= 3
        for handle in handles:
            handle.close()

    def test_worker_crash_answers_410_then_reopen_works(self, session_router,
                                                        target):
        daemon, client = session_router
        stripped, extents = target
        handle = client.session(binary=stripped, extents=extents)
        handle.list_functions()
        slot = session_slot(handle.id, 2)
        health = client.health()
        os.kill(health["workers"][slot]["pid"], signal.SIGKILL)
        # Every call until (and after) the respawn answers a retriable
        # 410 — the state died with the worker.
        deadline = time.monotonic() + 60
        saw_gone = False
        while time.monotonic() < deadline and not saw_gone:
            try:
                handle.list_functions()
                time.sleep(0.1)
            except ServeClientError as error:
                assert error.status == 410
                saw_gone = True
        assert saw_gone, "calls kept succeeding after the owner died"
        wait_all_live(client, min_restarts=1)
        with pytest.raises(ServeClientError) as excinfo:
            handle.list_functions()
        assert excinfo.value.status == 410
        # Re-opening is the documented recovery; the new session works.
        fresh = client.session(binary=stripped, extents=extents)
        assert fresh.list_functions()["n_functions"] == len(stripped.functions)
        fresh.close()
