#!/usr/bin/env python3
"""Compare e2ebench runs of a parent commit and a change.

    python scripts/bench_compare.py PARENT CHANGE [--claim WORKLOAD:METRIC ...]

``PARENT`` and ``CHANGE`` are files or directories of files holding the
stdout of ``e2ebench/run.py``: a stamp line (which names the workload and
the seed) followed by the result line (``correct``, ``attempted``,
``failed``, ``metrics``).  One file may hold several runs, one after the
other.  Runs pair up by workload and seed, in the order they appear.

For every workload and metric the script prints each side's median and
quartiles, the ratio of the medians (change / parent) and how many pairs
the change won (ties count for neither side).

Exit status:

* 1 when an end-to-end metric's change median is worse than the parent's
  by more than its ``BENCHMARK.json`` bound, or when a ``--claim`` misses
  the gain rule: the change wins at least 9 of every 10 pairs (and at
  least 10 pairs were run), and its median is better than the parent's
  by more than the parent's interquartile range;
* 2 when the inputs hold no runs to compare, or a claim names a workload
  or metric the runs do not have;
* 0 otherwise.

The script reads only the files it is given and ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: A claim needs this share of pairs won, over at least MIN_PAIRS pairs.
WIN_SHARE = 0.9
MIN_PAIRS = 10


def read_runs(path: Path) -> list[tuple[str, int, dict]]:
    """(workload, seed, {metric: value}) for every run in a file or directory."""
    files = sorted(p for p in path.iterdir() if p.is_file()) if path.is_dir() else [path]
    runs = []
    for file in files:
        stamp = None
        for line in file.read_text(encoding="utf-8", errors="replace").splitlines():
            if not line.startswith("{"):
                continue
            try:
                body = json.loads(line)
            except ValueError:
                continue
            if not isinstance(body, dict):
                continue
            if isinstance(body.get("stamp"), dict):
                stamp = body["stamp"]
            elif isinstance(body.get("metrics"), dict) and stamp is not None:
                metrics = {name: float(entry["value"])
                           for name, entry in body["metrics"].items()}
                runs.append((str(stamp["workload"]), int(stamp["seed"]), metrics))
                stamp = None
    return runs


def pair_runs(parent: list, change: list) -> dict[str, list[tuple[dict, dict]]]:
    """Workload → (parent metrics, change metrics) pairs matched by seed."""
    waiting: dict[tuple[str, int], list[dict]] = {}
    for workload, seed, metrics in change:
        waiting.setdefault((workload, seed), []).append(metrics)
    pairs: dict[str, list[tuple[dict, dict]]] = {}
    for workload, seed, metrics in parent:
        queue = waiting.get((workload, seed))
        if queue:
            pairs.setdefault(workload, []).append((metrics, queue.pop(0)))
    return pairs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated between samples."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(pairs: list[tuple[dict, dict]], metric: str, better: str) -> dict:
    parent = [p[metric] for p, c in pairs if metric in p and metric in c]
    change = [c[metric] for p, c in pairs if metric in p and metric in c]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, p2, p3 = quartiles(parent)
    c1, c2, c3 = quartiles(change)
    return {"pairs": len(parent), "wins": wins, "parent": (p1, p2, p3),
            "change": (c1, c2, c3), "ratio": c2 / p2 if p2 else float("nan"),
            "gain": sign * (c2 - p2), "parent_iqr": p3 - p1}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path, help="parent runs (file or directory)")
    parser.add_argument("change", type=Path, help="change runs (file or directory)")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
                        help="a claimed gain to hold to the rule (repeatable)")
    args = parser.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    declared = {**{m["name"]: m for m in spec["per_layer"]}, **end_to_end}
    pairs = pair_runs(read_runs(args.parent), read_runs(args.change))
    if not pairs:
        print("bench_compare: no parent and change runs share a workload and seed",
              file=sys.stderr)
        return 2

    failed = False
    results: dict[tuple[str, str], dict] = {}
    for workload in sorted(pairs):
        names = sorted(set().union(*(p.keys() & c.keys() for p, c in pairs[workload])))
        print(f"== {workload}: {len(pairs[workload])} pair(s)")
        print(f"{'metric':36s} {'parent median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s} {'ratio':>7s} {'wins':>7s}  verdict")
        for name in names:
            if name not in declared:
                continue
            row = compare(pairs[workload], name, declared[name]["better"])
            results[(workload, name)] = row
            verdict = ""
            if name in end_to_end:
                bound = float(end_to_end[name]["bound"])
                p2, c2 = row["parent"][1], row["change"][1]
                worse = (c2 < p2 * (1 - bound) if declared[name]["better"] == "higher"
                         else c2 > p2 * (1 + bound))
                verdict = f"WORSE than its {bound:.0%} bound" if worse else "within bound"
                failed |= worse
            (p1, p2, p3), (c1, c2, c3) = row["parent"], row["change"]
            print(f"{name:36s} {p2:12.4f} [{p1:9.4f}, {p3:9.4f}] "
                  f"{c2:12.4f} [{c1:9.4f}, {c3:9.4f}] {row['ratio']:7.3f} "
                  f"{row['wins']:3d}/{row['pairs']:<3d}  {verdict}")

    for claim in args.claim:
        workload, _, metric = claim.partition(":")
        row = results.get((workload, metric))
        if row is None:
            print(f"bench_compare: claim {claim!r} names no compared workload and metric",
                  file=sys.stderr)
            return 2
        won = row["pairs"] >= MIN_PAIRS and row["wins"] >= WIN_SHARE * row["pairs"]
        beyond = row["gain"] > row["parent_iqr"]
        met = won and beyond
        print(f"claim {claim}: {row['wins']}/{row['pairs']} pairs won "
              f"(need {WIN_SHARE:.0%} of at least {MIN_PAIRS}); median gain "
              f"{row['gain']:.4f} vs parent IQR {row['parent_iqr']:.4f}: "
              f"{'met' if met else 'NOT met'}")
        failed |= not met
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
