"""Totality: damaged input raises a typed error, never an untyped crash.

Each parser that reads bytes or a request body from outside the process
gets mutated copies of a well-formed input: bytes overwritten, inserted,
deleted or cut short; JSON nodes replaced by values of any type, or
removed.  Whatever happens, the only exceptions allowed out are
:class:`~repro.core.errors.CatiError` subclasses, which every entry
point maps to a failure record or a 4xx answer.  A batch job's
journal and its durable window cache come back from disk, where a
crash or a bad sector may have damaged them: a damaged record must
read as missing, never raise and never yield a wrong answer.  The examples
are derandomized, so the suite is deterministic; raise ``max_examples``
locally for a longer campaign.
"""

from __future__ import annotations

import copy
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.batch.cache import WindowCacheStore
from repro.batch.job import BatchJobStore
from repro.codegen import GccCompiler, strip
from repro.core.errors import CatiError
from repro.disasm.decoder import decode_function
from repro.dwarf.native import parse_compile_units
from repro.elf.parser import ElfFile
from repro.experiments.speed import extents_from_debug
from repro.serve import protocol
from repro.vuc.dataset import extract_unlabeled_vucs
from tests import faultinject as fi
from tests.test_window_cache import earlier_index

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

#: A few common x86-64 encodings: prologue, moves through rbp, an SSE
#: load, a call and a conditional jump, then leave/ret.
CODE = bytes.fromhex(
    "554889e5" "4883ec20" "897dfc" "8b45fc" "4889c7" "f20f1045f0"
    "e800000000" "7405" "4801d0" "c9c3")


def mutations(seed: bytes) -> st.SearchStrategy[bytes]:
    """``seed`` with a few bytes overwritten, inserted or deleted, or cut short."""
    edit = st.tuples(st.sampled_from(("set", "insert", "delete", "cut")),
                     st.integers(0, len(seed)), st.integers(0, 255))

    def apply(edits) -> bytes:
        data = bytearray(seed)
        for op, position, value in edits:
            position = min(position, len(data))
            if op == "set" and position < len(data):
                data[position] = value
            elif op == "insert":
                data.insert(position, value)
            elif op == "delete":
                del data[position:position + 1]
            elif op == "cut":
                del data[position:]
        return bytes(data)

    return st.lists(edit, min_size=1, max_size=6).map(apply)


#: Strings built from assembly, comment and packed-window punctuation,
#: so text parsers see near-misses.
ASM_TEXT = st.text(alphabet="()$%,-+*:<>#x0123456789abcdefr \t\n", max_size=30)

#: Leaves of any JSON type.
LEAVES = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
          | st.text(max_size=12) | ASM_TEXT)
JSON = st.recursive(LEAVES, lambda children: st.lists(children, max_size=3)
                    | st.dictionaries(st.text(max_size=8), children, max_size=3),
                    max_leaves=6)


def paths(node, prefix=()):
    """Every (container-key) path into a JSON value, root excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def mutate_json(seed) -> st.SearchStrategy:
    """``seed`` with up to three nodes replaced by arbitrary JSON or removed."""
    every = list(paths(seed))

    @st.composite
    def mutated(draw):
        body = copy.deepcopy(seed)
        for _ in range(draw(st.integers(1, 3))):
            path = draw(st.sampled_from(every))
            parent = body
            try:
                for key in path[:-1]:
                    parent = parent[key]
                if draw(st.booleans()) and isinstance(parent, dict):
                    parent.pop(path[-1], None)
                else:
                    parent[path[-1]] = draw(JSON)
            except (KeyError, IndexError, TypeError):
                continue  # an earlier edit removed or replaced this path
        return body

    return mutated()


def typed_only(call) -> None:
    try:
        call()
    except CatiError:
        pass


@pytest.fixture(scope="module")
def demo():
    binary = GccCompiler().compile_fresh(seed=77, name="total", opt_level=1)
    return strip(binary), extents_from_debug(binary)


@pytest.fixture(scope="module")
def wire_binary(demo):
    """A small ``binary`` body, so structural nodes are a fair share of its paths."""
    body = protocol.binary_to_wire(demo[0])
    body["functions"] = body["functions"][:2]
    for function in body["functions"]:
        function["instructions"] = function["instructions"][:4]
    return body


@pytest.fixture(scope="module")
def wire_windows(demo):
    """A small ``windows_packed`` body at w = 2."""
    pairs = extract_unlabeled_vucs(*demo, 2)[:6]
    return {"windows_packed": protocol.pack_windows([tokens for _vid, tokens in pairs]),
            "variable_ids": [vid for vid, _tokens in pairs]}


ELF = fi.minimal_elf(
    fi.GOOD_CODE + CODE, symbols=[("f", 0, len(fi.GOOD_CODE)), ("g", 5, len(CODE))],
    extra_sections=[(".debug_info", fi.build_debug_info(2)),
                    (".debug_abbrev", fi.build_abbrev())])


@SETTINGS
@given(data=mutations(ELF), on_error=st.sampled_from(("raise", "skip")))
def test_elf_file(data, on_error):
    def parse():
        elf = ElfFile(data, on_error=on_error)
        elf.symbols()
        elf.dynamic_symbols()
        elf.plt_map()
        elf.has_debug_info  # noqa: B018 — the property reads section data
        for symbol in elf.function_symbols():
            elf.text_bytes_for(symbol)

    typed_only(parse)


@SETTINGS
@given(code=mutations(CODE) | st.binary(max_size=64))
def test_decode_function(code):
    typed_only(lambda: decode_function(code, 0x401000))


@SETTINGS
@given(info=mutations(fi.build_debug_info(2)), abbrev=mutations(fi.build_abbrev()),
       on_error=st.sampled_from(("raise", "skip")))
def test_parse_compile_units(info, abbrev, on_error):
    typed_only(lambda: parse_compile_units(info, abbrev, b"", b"", on_error=on_error))


@SETTINGS
@given(line=ASM_TEXT)
def test_instruction_text(line):
    """Any instruction text decodes or raises a typed error (a 400)."""
    body = {"functions": [{"name": "f", "instructions": [[0, line]]}]}
    typed_only(lambda: protocol.binary_from_wire(body))


@SETTINGS
@given(data=st.data())
def test_binary_from_wire(wire_binary, data):
    body = data.draw(mutate_json(wire_binary))
    typed_only(lambda: protocol.binary_from_wire(body))


@SETTINGS
@given(data=st.data())
def test_stream_from_packed(wire_windows, data):
    body = data.draw(mutate_json(wire_windows))
    typed_only(lambda: protocol.stream_from_packed(
        body.get("windows_packed"), body.get("variable_ids"), 2))


@SETTINGS
@given(body=st.fixed_dictionaries({}, optional={
    field: JSON | st.floats() for field in ("on_error", "deadline_ms", "model_dir")}))
def test_request_envelope(body):
    """Any JSON value of an envelope field parses to a usable value or
    raises a typed error (a 400)."""
    checks = (
        (protocol.on_error_field, lambda value: value in ("raise", "skip")),
        (lambda request: protocol.deadline_field(request, None),
         lambda value: value is None or 0 <= value <= threading.TIMEOUT_MAX),
        (protocol.model_dir_field, lambda value: value is None or isinstance(value, str)),
    )
    for parse, usable in checks:
        try:
            value = parse(body)
        except CatiError:
            continue
        assert usable(value), (body, value)


def shard_payload(shard: int, attempts: int) -> dict:
    return {"shard": shard, "inputs_sha256": f"{shard}e" * 32, "items": ["total"],
            "predictions": [[{"variable_id": "total/0::rbp-8", "predicted": "int",
                              "n_vucs": 3, "scores": [0.25, 0.5, 1e-9]}]],
            "failures": [], "attempts": attempts,
            "layouts": [[{"object_id": "total/0::rbp-8", "n_accesses": 2}]]}


@pytest.fixture(scope="module")
def journal(tmp_path_factory):
    """A job journal's bytes, the payloads it commits and the attempt
    records it holds per shard: shard 0 commits on its first attempt,
    shard 1 on its second, and shard 2 is quarantined."""
    directory = tmp_path_factory.mktemp("job")
    store = BatchJobStore(directory)
    for shard, attempts in ((0, 1), (1, 2)):
        for _ in range(attempts):
            store.bump_attempts(shard)
        store.write_checkpoint(shard, shard_payload(shard, attempts))
    store.bump_attempts(2)
    store.record_fault_fire("raise-shard2-pre-commit")
    store.quarantine(2, reason="attempt budget exhausted", failure_records=[])
    store.close()
    payloads = {0: shard_payload(0, 1), 1: shard_payload(1, 2)}
    return store.journal_path.read_bytes(), payloads, {0: 1, 1: 2, 2: 1}


@SETTINGS
@given(data=st.data())
def test_read_checkpoint(journal, data):
    """A mutated journal yields only committed payloads and no extra
    attempts, and a commit appended to it reads back whole."""
    raw, payloads, attempts = journal
    appended = shard_payload(3, 1)
    with tempfile.TemporaryDirectory() as directory:
        store = BatchJobStore(directory)
        store.journal_path.write_bytes(data.draw(mutations(raw)))
        for shard in range(4):
            got = store.read_checkpoint(
                shard, expected_inputs=f"{shard}e" * 32)
            assert got is None or got == payloads.get(shard)
            assert store.attempts(shard) <= attempts.get(shard, 0)
            store.is_quarantined(shard)
        store.write_checkpoint(3, appended)
        store.close()
        assert BatchJobStore(directory).read_checkpoint(3) == appended


@pytest.fixture(scope="module")
def window_cache(tmp_path_factory):
    """A closed store's one segment, the index an earlier version would
    have written beside it, and the rows they hold."""
    rows = {bytes([i]) * 4: np.arange(3, dtype=np.float64) + i for i in range(4)}
    directory = tmp_path_factory.mktemp("cache")
    with WindowCacheStore(directory, "model", row_len=3) as store:
        store.put_many(list(rows.items()))
    (segment,) = (directory / "model").iterdir()
    return segment.name, segment.read_bytes(), earlier_index(segment.parent, 3), rows


@SETTINGS
@given(data=st.data())
def test_window_cache_store(window_cache, data):
    """A mutated segment yields only verified rows, and a garbage
    ``index.json`` beside it changes nothing."""
    name, segment, index, rows = window_cache
    segment = data.draw(mutations(segment))
    answers = []
    for stale_index in (None, data.draw(mutations(index))):
        with tempfile.TemporaryDirectory() as directory:
            namespace = Path(directory) / "model"
            namespace.mkdir()
            (namespace / name).write_bytes(segment)
            if stale_index is not None:
                (namespace / "index.json").write_bytes(stale_index)
            store = WindowCacheStore(directory, "model", row_len=3)
            try:
                got = store.get_many([*rows, b"absent"])
            finally:
                store.close()
        answers.append({raw: row.tobytes() for raw, row in got.items()})
    assert answers[0] == answers[1]
    assert answers[0].keys() <= rows.keys()
    for raw, row in answers[0].items():
        assert row == rows[raw].tobytes()
