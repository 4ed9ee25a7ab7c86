"""Unit + integration tests for repro.core.observability.

Covers the satellite checklist: histogram bucketing, span nesting,
thread-safety of counter increments, and an end-to-end ``infer_binary``
run producing non-zero phase spans with consistent cache-hit
accounting.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.codegen.compilers import GccCompiler
from repro.codegen.strip import strip
from repro.core import observability
from repro.core.observability import (
    MARGIN_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.experiments.speed import extents_from_debug


@pytest.fixture()
def registry():
    return MetricsRegistry(enabled=True)


# -- counters ------------------------------------------------------------------


def test_counter_increments(registry):
    registry.inc("a")
    registry.inc("a", 4)
    registry.inc("b", 0.5)
    snap = registry.snapshot()
    assert snap["counters"] == {"a": 5, "b": 0.5}


def test_counter_thread_safety():
    counter = Counter("c")
    n_threads, per_thread = 8, 5000

    def worker():
        for _ in range(per_thread):
            counter.inc()

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert counter.value == n_threads * per_thread


def test_registry_counter_thread_safety(registry):
    """Lazy creation under contention never loses a metric or a count."""
    def worker():
        for i in range(1000):
            registry.inc(f"k{i % 7}")

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    snap = registry.snapshot()
    assert sum(snap["counters"].values()) == 6000
    assert len(snap["counters"]) == 7


def test_disabled_registry_records_nothing(registry):
    registry.enabled = False
    registry.inc("a")
    registry.observe("h", 1.0)
    registry.set_gauge("g", 3)
    with registry.span("s"):
        pass
    snap = registry.snapshot()
    assert snap == {"counters": {}, "gauges": {}, "histograms": {}, "spans": {}}


# -- histograms ----------------------------------------------------------------


def test_histogram_bucketing():
    hist = Histogram("h", boundaries=(1.0, 2.0, 4.0))
    for value in (0.5, 1.0, 1.5, 2.0, 3.9, 4.0, 100.0):
        hist.observe(value)
    data = hist.to_dict()
    # counts[i] means "<= boundaries[i]": {0.5, 1.0} | {1.5, 2.0} | {3.9, 4.0} | {100.0}
    assert data["counts"] == [2, 2, 2, 1]
    assert data["count"] == 7
    assert data["min"] == 0.5
    assert data["max"] == 100.0
    assert data["sum"] == pytest.approx(112.9)


def test_histogram_boundary_values_inclusive():
    hist = Histogram("h", boundaries=(1.0, 2.0))
    hist.observe(2.0)
    assert hist.to_dict()["counts"] == [0, 1, 0]


def test_histogram_rejects_unsorted_boundaries():
    with pytest.raises(ValueError):
        Histogram("h", boundaries=(2.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("h", boundaries=())


def test_histogram_empty_summary():
    data = Histogram("h", boundaries=(1.0,)).to_dict()
    assert data["count"] == 0
    assert data["min"] is None and data["max"] is None and data["mean"] is None


def test_default_margin_buckets_sorted():
    assert list(MARGIN_BUCKETS) == sorted(MARGIN_BUCKETS)


# -- spans ---------------------------------------------------------------------


def test_span_records_wall_time(registry):
    with registry.span("outer"):
        sum(range(1000))
    stat = registry.snapshot()["spans"]["outer"]
    assert stat["count"] == 1
    assert stat["wall_s"] > 0.0
    assert stat["min_s"] <= stat["max_s"]


def test_span_nesting_builds_paths(registry):
    with registry.span("a"):
        with registry.span("b"):
            pass
        with registry.span("b"):
            pass
    with registry.span("b"):
        pass
    spans = registry.snapshot()["spans"]
    assert spans["a"]["count"] == 1
    assert spans["a/b"]["count"] == 2
    assert spans["b"]["count"] == 1


def test_span_stack_unwinds_on_exception(registry):
    with pytest.raises(RuntimeError):
        with registry.span("a"):
            raise RuntimeError("boom")
    with registry.span("c"):
        pass
    spans = registry.snapshot()["spans"]
    # the failed span still recorded, and "c" is NOT nested under "a"
    assert spans["a"]["count"] == 1
    assert spans["c"]["count"] == 1


def test_span_nesting_is_per_thread(registry):
    done = threading.Event()

    def other():
        with registry.span("t2"):
            pass
        done.set()

    with registry.span("t1"):
        thread = threading.Thread(target=other)
        thread.start()
        thread.join()
    assert done.is_set()
    spans = registry.snapshot()["spans"]
    assert "t2" in spans and "t1/t2" not in spans


# -- cross-process snapshot merging (the router's /metricsz rollup) ------------


def snapshot_of(build) -> dict:
    registry = MetricsRegistry(enabled=True)
    build(registry)
    return registry.snapshot()


def test_merge_sums_counters_and_maxes_gauges():
    a = snapshot_of(lambda r: (r.inc("req", 3), r.set_gauge("depth", 2)))
    b = snapshot_of(lambda r: (r.inc("req", 4), r.inc("only_b"),
                               r.set_gauge("depth", 5)))
    merged = observability.merge_snapshots([a, b])
    assert merged["counters"] == {"only_b": 1, "req": 7}
    assert merged["gauges"] == {"depth": 5}


def test_merge_histograms_same_boundaries_adds_bucketwise():
    bounds = (1.0, 2.0, 4.0)
    a = snapshot_of(lambda r: [r.observe("h", v, boundaries=bounds)
                               for v in (0.5, 1.5, 8.0)])
    b = snapshot_of(lambda r: [r.observe("h", v, boundaries=bounds)
                               for v in (0.7, 3.0)])
    merged = observability.merge_snapshots([a, b])["histograms"]["h"]
    assert merged["boundaries"] == list(bounds)
    assert merged["counts"] == [2, 1, 1, 1]
    assert merged["count"] == 5
    assert merged["min"] == 0.5
    assert merged["max"] == 8.0
    assert merged["sum"] == pytest.approx(13.7)
    assert merged["mean"] == pytest.approx(13.7 / 5)


def test_merge_histograms_differing_boundaries_rebins():
    a = snapshot_of(lambda r: [r.observe("h", v, boundaries=(1.0, 2.0))
                               for v in (0.5, 1.5)])
    b = snapshot_of(lambda r: [r.observe("h", v, boundaries=(0.25, 3.0))
                               for v in (0.1, 2.5)])
    merged = observability.merge_snapshots([a, b])["histograms"]["h"]
    # The first snapshot's boundaries win; b's tallies land in the
    # first merged bucket whose boundary covers *their* boundary value.
    assert merged["boundaries"] == [1.0, 2.0]
    assert merged["count"] == 4
    assert sum(merged["counts"]) == 4
    assert merged["min"] == 0.1
    assert merged["max"] == 2.5


def test_quantiles_over_merged_histograms():
    bounds = (0.1, 0.2, 0.4, 0.8)
    a = snapshot_of(lambda r: [r.observe("lat", v, boundaries=bounds)
                               for v in (0.05,) * 40 + (0.15,) * 40])
    b = snapshot_of(lambda r: [r.observe("lat", v, boundaries=bounds)
                               for v in (0.3,) * 15 + (0.7,) * 5])
    merged = observability.merge_snapshots([a, b])["histograms"]["lat"]
    assert merged["count"] == 100
    p50 = observability.quantile_from_dict(merged, 0.5)
    p99 = observability.quantile_from_dict(merged, 0.99)
    # p50 falls in the (0.1, 0.2] bucket; p99 in the (0.4, 0.8] bucket.
    assert 0.1 <= p50 <= 0.2
    assert 0.4 <= p99 <= 0.7  # clamped to the observed max
    assert observability.quantile_from_dict(merged, 0.0) == pytest.approx(0.05)
    assert observability.quantile_from_dict({"counts": [], "count": 0}, 0.5) is None


def test_merge_spans_sums_and_extremes():
    def build_a(r):
        with r.span("load"):
            pass

    def build_b(r):
        with r.span("load"):
            pass
        with r.span("batch"):
            pass

    merged = observability.merge_snapshots(
        [snapshot_of(build_a), snapshot_of(build_b)])["spans"]
    assert merged["load"]["count"] == 2
    assert merged["batch"]["count"] == 1
    assert merged["load"]["min_s"] <= merged["load"]["max_s"]
    assert merged["load"]["wall_s"] >= merged["load"]["min_s"]


def test_merge_tolerates_empty_and_partial_snapshots():
    full = snapshot_of(lambda r: r.inc("a"))
    assert observability.merge_snapshots([]) == {
        "counters": {}, "gauges": {}, "histograms": {}, "spans": {}}
    merged = observability.merge_snapshots([full, {}, {"counters": {"a": 2}}])
    assert merged["counters"]["a"] == 3


# -- rendering -----------------------------------------------------------------


def test_snapshot_is_json_serializable(registry):
    registry.inc("a", 2)
    registry.set_gauge("g", 1.5)
    registry.observe("h", 0.3, boundaries=(1.0,))
    with registry.span("s"):
        pass
    parsed = json.loads(registry.render_json())
    assert parsed["counters"]["a"] == 2
    assert parsed["gauges"]["g"] == 1.5
    assert parsed["histograms"]["h"]["count"] == 1
    assert parsed["spans"]["s"]["count"] == 1


def test_render_text_mentions_every_metric(registry):
    registry.inc("my.counter", 3)
    registry.observe("my.hist", 0.5, boundaries=(1.0,))
    with registry.span("my.span"):
        pass
    text = registry.render_text()
    for name in ("my.counter", "my.hist", "my.span"):
        assert name in text


def test_render_text_empty(registry):
    assert "no metrics" in registry.render_text()


def test_reset_clears_everything(registry):
    registry.inc("a")
    with registry.span("s"):
        pass
    registry.reset()
    assert registry.snapshot() == {
        "counters": {}, "gauges": {}, "histograms": {}, "spans": {}}


def test_global_registry_helpers():
    saved = observability.is_enabled()
    try:
        observability.set_enabled(True)
        observability.inc("test.global.counter", 2)
        assert observability.snapshot()["counters"]["test.global.counter"] >= 2
        observability.set_enabled(False)
        assert not observability.is_enabled()
        observability.inc("test.global.counter", 1000)
        after = observability.snapshot()["counters"]["test.global.counter"]
        assert after < 1000 + 2  # the disabled increment did not land
    finally:
        observability.set_enabled(saved)


# -- integration: the instrumented pipeline ------------------------------------


@pytest.fixture()
def fresh_global_registry():
    """Reset the process-global registry around one test."""
    observability.reset()
    saved = observability.is_enabled()
    observability.set_enabled(True)
    yield observability.get_registry()
    observability.set_enabled(saved)
    observability.reset()


def test_infer_binary_emits_phase_spans(mini_cati, fresh_global_registry):
    binary = GccCompiler().compile_fresh(seed=11, name="obs", opt_level=1)
    result = mini_cati.infer_binary(strip(binary), extents_from_debug(binary))
    assert len(result) > 0
    snap = fresh_global_registry.snapshot()

    spans = snap["spans"]
    for phase in ("infer_binary", "infer_binary/extract",
                  "infer_binary/extract/locate", "infer_binary/encode",
                  "infer_binary/classify", "infer_binary/vote"):
        assert phase in spans, f"missing phase span {phase}"
        assert spans[phase]["count"] >= 1
        assert spans[phase]["wall_s"] > 0.0

    # cache accounting is consistent: every unique window either hit or missed
    counters = snap["counters"]
    assert counters["engine.windows"] >= counters["engine.unique_windows"] > 0
    assert (counters["engine.cache_hits"] + counters["engine.cache_misses"]
            == counters["engine.unique_windows"])

    # voting observability: one margin per decided variable
    assert counters["vote.variables"] == len(result)
    assert snap["histograms"]["vote.margin"]["count"] == len(result)
    assert counters["vote.confidences"] > 0


def test_repeat_inference_hits_cache(mini_cati, fresh_global_registry):
    binary = GccCompiler().compile_fresh(seed=12, name="obs2", opt_level=1)
    stripped, extents = strip(binary), extents_from_debug(binary)
    mini_cati.engine.clear_cache()
    mini_cati.infer_binary(stripped, extents)
    first = fresh_global_registry.snapshot()["counters"]
    mini_cati.infer_binary(stripped, extents)
    second = fresh_global_registry.snapshot()["counters"]
    # the second identical run answers every unique window from the LRU cache
    assert (second["engine.cache_hits"] - first["engine.cache_hits"]
            == second["engine.unique_windows"] - first["engine.unique_windows"])
    assert second["engine.cache_misses"] == first["engine.cache_misses"]


def test_metrics_disabled_config_skips_pipeline_metrics(mini_cati, fresh_global_registry):
    binary = GccCompiler().compile_fresh(seed=13, name="obs3", opt_level=1)
    observability.set_enabled(False)
    try:
        result = mini_cati.infer_binary(strip(binary), extents_from_debug(binary))
    finally:
        observability.set_enabled(True)
    assert len(result) > 0
    snap = fresh_global_registry.snapshot()
    assert "engine.windows" not in snap["counters"]
    assert not snap["spans"]


def test_failure_counters_record_stage_and_kind(fresh_global_registry):
    from repro.core.errors import DecodeError, FailureReport

    report = FailureReport()
    report.record(DecodeError("bad bytes", stage="decode"), stage="decode")
    report.record(ValueError("nope"), stage="extract")
    counters = fresh_global_registry.snapshot()["counters"]
    assert counters["failures.total"] == 2
    assert counters["failures.stage.decode"] == 1
    assert counters["failures.stage.extract"] == 1
    assert counters["failures.kind.DecodeError"] == 1
    assert counters["failures.kind.ValueError"] == 1


def test_toolchain_metrics_count_retries_and_failures(fresh_global_registry):
    import tests.faultinject as fi
    from repro.core.errors import ToolchainError
    from repro.core.toolchain import run_tool

    result = run_tool(["gcc", "--version"], timeout=0.5, retries=2,
                      backoff=0.1, runner=fi.FlakyRunner(["timeout", "ok"]),
                      sleep=fi.no_sleep)
    assert result.attempts == 2
    with pytest.raises(ToolchainError):
        run_tool(["gcc-99", "x.c"], runner=fi.FlakyRunner(["missing"]),
                 sleep=fi.no_sleep)

    snap = fresh_global_registry.snapshot()
    counters = snap["counters"]
    assert counters["toolchain.runs"] == 2
    assert counters["toolchain.runs.gcc"] == 1
    assert counters["toolchain.retries"] == 1
    assert counters["toolchain.backoff_s"] == pytest.approx(0.1)
    assert counters["toolchain.failures"] == 1
    assert counters["toolchain.missing"] == 1
    assert snap["spans"]["toolchain.gcc"]["count"] == 1


def test_inference_result_pickles_with_metrics(mini_cati):
    """A result pickles whole: its predictions, failures and layouts."""
    import pickle

    from repro.core.engine import InferenceResult
    from repro.core.errors import FailureReport

    records = [{"stage": "decode", "kind": "DecodeError", "message": "bad bytes",
                "binary": "b", "function": "f", "traceback": "tb"}]
    result = InferenceResult([1, 2], failures=FailureReport.from_records(records),
                             layouts=["layout"])
    clone = pickle.loads(pickle.dumps(result))
    assert list(clone) == [1, 2]
    assert clone.failures.records_to_dicts() == records
    assert clone.layouts == ["layout"]
