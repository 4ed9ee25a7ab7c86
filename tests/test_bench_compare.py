"""scripts/bench_compare.py on synthetic e2ebench result lines."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_compare.py"


@pytest.fixture(scope="module")
def bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_lines(workload: str, seed: int, **metrics: float) -> str:
    """What e2ebench/run.py prints: a stamp line, a table, a result line."""
    stamp = {"stamp": {"workload": workload, "seed": seed, "counts": {}},
             "error_rate": 0.0}
    result = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {name: {"value": value, "unit": "?"}
                          for name, value in metrics.items()}}
    return f"{json.dumps(stamp)}\nmetric   at nominal host\n{json.dumps(result)}\n"


def write_side(directory: Path, rates: list[float], p50: list[float]) -> Path:
    directory.mkdir()
    for seed, (rate, latency) in enumerate(zip(rates, p50), start=1):
        (directory / f"run-{seed}.txt").write_text(run_lines(
            "batch-recompile", seed, binaries_per_s=rate, latency_p50_ms=latency,
            **{"vuc.locate_s": 0.001}))
    return directory


PARENT_RATES = [56.0, 55.1, 57.2, 54.8, 56.5, 55.9, 56.3, 57.0, 55.5, 56.1]
FLAT_P50 = [12.0] * 10


def test_claim_met_exits_zero(bench_compare, tmp_path, capsys):
    parent = write_side(tmp_path / "parent", PARENT_RATES, FLAT_P50)
    change = write_side(tmp_path / "change", [r * 1.2 for r in PARENT_RATES],
                        [11.0] * 10)
    status = bench_compare.main([str(parent), str(change),
                                 "--claim", "batch-recompile:binaries_per_s"])
    out = capsys.readouterr().out
    assert status == 0, out
    assert "10/10" in out and "claim batch-recompile:binaries_per_s" in out
    assert "vuc.locate_s" in out  # per-layer metrics are listed, never gated


def test_claim_with_too_few_wins_fails(bench_compare, tmp_path, capsys):
    parent = write_side(tmp_path / "parent", PARENT_RATES, FLAT_P50)
    # Better in the median, but two of ten pairs lost.
    rates = [r * 1.2 for r in PARENT_RATES]
    rates[0], rates[1] = 50.0, 50.0
    change = write_side(tmp_path / "change", rates, FLAT_P50)
    assert bench_compare.main([str(parent), str(change),
                               "--claim", "batch-recompile:binaries_per_s"]) == 1
    assert "NOT met" in capsys.readouterr().out


def test_claim_within_the_parents_spread_fails(bench_compare, tmp_path):
    parent = write_side(tmp_path / "parent", PARENT_RATES, FLAT_P50)
    # Every pair won, by less than the parent's interquartile range.
    change = write_side(tmp_path / "change", [r + 0.1 for r in PARENT_RATES], FLAT_P50)
    assert bench_compare.main([str(parent), str(change),
                               "--claim", "batch-recompile:binaries_per_s"]) == 1


def test_end_to_end_bound_breach_fails(bench_compare, tmp_path, capsys):
    parent = write_side(tmp_path / "parent", PARENT_RATES, FLAT_P50)
    # latency_p50_ms has a 25% bound and "lower" is better: 30% worse fails.
    change = write_side(tmp_path / "change", PARENT_RATES, [15.6] * 10)
    assert bench_compare.main([str(parent), str(change)]) == 1
    assert "WORSE" in capsys.readouterr().out
    within = write_side(tmp_path / "within", PARENT_RATES, [14.0] * 10)
    assert bench_compare.main([str(parent), str(within)]) == 0


def test_runs_pair_by_seed_within_one_file(bench_compare, tmp_path):
    parent = tmp_path / "parent.txt"
    change = tmp_path / "change.txt"
    parent.write_text(run_lines("offline-corpus", 1, binaries_per_s=100.0)
                      + run_lines("offline-corpus", 2, binaries_per_s=200.0))
    # Reversed order: seed 2's 190 pairs with 200 (a loss), seed 1's 110 with 100.
    change.write_text(run_lines("offline-corpus", 2, binaries_per_s=190.0)
                      + run_lines("offline-corpus", 1, binaries_per_s=110.0))
    pairs = bench_compare.pair_runs(bench_compare.read_runs(parent),
                                    bench_compare.read_runs(change))
    row = bench_compare.compare(pairs["offline-corpus"], "binaries_per_s", "higher")
    assert (row["pairs"], row["wins"]) == (2, 1)


def test_no_shared_runs_or_unknown_claim_is_a_usage_error(bench_compare, tmp_path):
    parent = tmp_path / "parent.txt"
    change = tmp_path / "change.txt"
    parent.write_text(run_lines("offline-corpus", 1, binaries_per_s=1.0))
    change.write_text(run_lines("offline-corpus", 2, binaries_per_s=1.0))
    assert bench_compare.main([str(parent), str(change)]) == 2
    change.write_text(run_lines("offline-corpus", 1, binaries_per_s=1.0))
    assert bench_compare.main([str(parent), str(change),
                               "--claim", "batch-recompile:binaries_per_s"]) == 2
