#!/usr/bin/env bash
# Local quality gate: lint + the tier-1 test suite.
#
# Usage: scripts/check.sh [--faults | --docs | --serve | --smoke | --batch | --structs | --repl] [extra pytest args...]
#        scripts/check.sh --bench-compare PARENT CHANGE [--claim WORKLOAD:METRIC ...]
#
#   --faults   run the fault-injection suite (tests/test_fault_tolerance.py:
#              tool timeouts, corrupt ELF, truncated DWARF, undecodable
#              functions) instead of the full tier-1 suite.
#   --docs     run the docs-drift gate only (scripts/check_docs.py):
#              EXPERIMENTS.md matches its generator section-for-section,
#              every public CatiConfig field is documented in
#              docs/OPERATIONS.md, its serving-flags table matches
#              the `repro serve` parser, docs/DEPLOYMENT.md exists
#              with --workers covered and cross-linked, every
#              span name recorded in core/engine.py or vuc/ is named
#              in docs/OPERATIONS.md, and the job kinds it lists for
#              /v1/infer and /v1/session/open match serve.protocol.
#   --serve    run the serving smoke only (scripts/smoke_serve.py):
#              train a mini model, launch `python -m repro serve` as a
#              subprocess, check healthz / packed infer / hot reload /
#              SIGTERM drain end to end — once single-process
#              (--workers 1) and once through the pre-fork router
#              (--workers 2).
#   --smoke    run the engine speed bench's correctness gates only
#              (benchmarks/bench_speed.py --smoke): train a mini model,
#              assert engine/naive equivalence and the dedup-cache
#              invariants.  No wall-clock assertions.
#   --batch    run the batch-job smoke only (scripts/smoke_batch.py):
#              tiny corpus -> run -> SIGKILL mid-job -> resume ->
#              verify bit-identical results + enumerated interruption.
#   --structs  run the struct-recovery smoke only
#              (scripts/smoke_structs.py): member-labeled mini model ->
#              infer_binary(structs=True) attaches layouts that join
#              DWARF truth, the disabled path stays byte-identical, and
#              the /2 wire schema + `repro infer --structs --json` carry
#              the vote-detail and layouts blocks.
#   --repl     run the interactive-session smoke only
#              (scripts/smoke_repl.py): mini model -> 2-worker router
#              with --session-ttl-s 2 -> the real `repro repl --exec`
#              walks every session tool and each output is checked
#              byte-for-byte against the offline pipeline; TTL expiry
#              surfaces a retriable 410 the REPL recovers from; the
#              interactive p50/p99 lands in BENCH_speed.json.
#   --bench-compare PARENT CHANGE
#              compare e2ebench result files of a parent commit and a
#              change (scripts/bench_compare.py): per workload and metric
#              the medians, quartiles, ratio and pair wins; fails when an
#              end-to-end metric is worse than its BENCHMARK.json bound or
#              a --claim WORKLOAD:METRIC misses the 9-of-10-pairs,
#              beyond-the-parent's-IQR rule.
#
# Lint is a hard gate: when ruff is installed, any finding fails the
# script (set -e).  When ruff is absent we warn and continue, because
# this repo's container policy forbids installing new packages.
set -euo pipefail

cd "$(dirname "$0")/.."

FAULTS=0
DOCS=0
SERVE=0
SMOKE=0
BATCH=0
STRUCTS=0
REPL=0
if [[ "${1:-}" == "--bench-compare" ]]; then
    shift
    exec python scripts/bench_compare.py "$@"
elif [[ "${1:-}" == "--faults" ]]; then
    FAULTS=1
    shift
elif [[ "${1:-}" == "--docs" ]]; then
    DOCS=1
    shift
elif [[ "${1:-}" == "--serve" ]]; then
    SERVE=1
    shift
elif [[ "${1:-}" == "--smoke" ]]; then
    SMOKE=1
    shift
elif [[ "${1:-}" == "--batch" ]]; then
    BATCH=1
    shift
elif [[ "${1:-}" == "--structs" ]]; then
    STRUCTS=1
    shift
elif [[ "${1:-}" == "--repl" ]]; then
    REPL=1
    shift
fi

if [[ "$DOCS" == "1" ]]; then
    echo "== docs drift gate =="
    exec python scripts/check_docs.py
fi

if [[ "$SERVE" == "1" ]]; then
    echo "== serve smoke =="
    exec python scripts/smoke_serve.py
fi

if [[ "$SMOKE" == "1" ]]; then
    echo "== engine speed smoke (correctness gates) =="
    exec env PYTHONPATH=src python benchmarks/bench_speed.py --smoke
fi

if [[ "$BATCH" == "1" ]]; then
    echo "== batch kill/resume smoke =="
    exec python scripts/smoke_batch.py
fi

if [[ "$STRUCTS" == "1" ]]; then
    echo "== struct-recovery smoke =="
    exec python scripts/smoke_structs.py
fi

if [[ "$REPL" == "1" ]]; then
    echo "== interactive-session smoke =="
    exec python scripts/smoke_repl.py
fi

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff (hard gate) =="
    ruff check src tests benchmarks
else
    echo "== ruff not installed; skipping lint (pip install ruff to enable the hard gate) =="
fi

if [[ "$FAULTS" == "1" ]]; then
    echo "== fault-injection suite =="
    PYTHONPATH=src python -m pytest -q tests/test_fault_tolerance.py "$@"
else
    echo "== tier-1 tests =="
    PYTHONPATH=src python -m pytest -x -q "$@"
fi
