#!/usr/bin/env bash
# Local quality gate: lint + the tier-1 test suite.
#
# Usage: scripts/check.sh [--docs] [extra pytest args...]
#        scripts/check.sh --bench-compare PARENT CHANGE [--claim WORKLOAD:METRIC ...]
#
#   --docs     run the docs-drift gate only (scripts/check_docs.py):
#              EXPERIMENTS.md matches its generator section-for-section,
#              every public CatiConfig field is documented in
#              docs/OPERATIONS.md, its serving-flags table matches
#              the `repro serve` parser, docs/DEPLOYMENT.md exists
#              with --workers covered and cross-linked, every
#              span name recorded in core/engine.py or vuc/ is named
#              in docs/OPERATIONS.md, and the job kinds it lists for
#              /v1/infer and /v1/session/open match serve.protocol.
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

if [[ "${1:-}" == "--bench-compare" ]]; then
    shift
    exec python scripts/bench_compare.py "$@"
elif [[ "${1:-}" == "--docs" ]]; then
    echo "== docs drift gate =="
    exec python scripts/check_docs.py
fi

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff (hard gate) =="
    ruff check src tests benchmarks
else
    echo "== ruff not installed; skipping lint (pip install ruff to enable the hard gate) =="
fi

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q "$@"
