#!/usr/bin/env python
"""Docs-drift gate (run via ``scripts/check.sh --docs``).

Checks:

1. Every section title the EXPERIMENTS.md generator
   (``scripts/generate_experiments_md.py``) emits exists as a ``##``
   heading in the committed EXPERIMENTS.md — catches a stale file after
   an experiment is added, renamed or removed.
2. Every public field of ``CatiConfig`` is named in
   docs/OPERATIONS.md — catches an undocumented knob — and so is every
   name in ``config.RETIRED_FIELDS``, under "Retired config fields".
3. docs/DEPLOYMENT.md exists, covers ``--workers`` and is cross-linked
   from README.md, docs/OPERATIONS.md and docs/ARCHITECTURE.md —
   catches the deployment guide drifting out of the doc graph.  The
   "Serving flags" table of docs/OPERATIONS.md has one row per option
   of the ``serve`` subcommand of ``repro.cli.build_parser()``, and no
   other — catches a flag added undocumented or deleted but still
   listed.
4. The posterior struct-recovery stage stays documented:
   docs/ARCHITECTURE.md has a ``repro.posterior`` section, and the
   ``--structs`` surfaces are named in docs/OPERATIONS.md.
5. Interactive sessions stay documented: docs/OPERATIONS.md has an
   "Interactive sessions" section naming every session tool and the
   ``repro repl`` client, docs/ARCHITECTURE.md
   describes ``repro.analysis``, and README.md shows the repl
   quickstart.
6. Every span name the engine (``src/repro/core/engine.py``) or the
   feature extractor (``src/repro/vuc/``) records — the string literal
   passed to a ``span(...)``/``_span(...)`` call — is named, in
   backticks, in docs/OPERATIONS.md — catches a renamed span the span
   table still lists under its old name.
7. The job kinds docs/OPERATIONS.md lists for ``POST /v1/infer`` and
   ``POST /v1/session/open`` are exactly ``protocol.JOB_KINDS`` and
   ``protocol.SESSION_JOB_KINDS`` — catches a removed job kind the
   endpoint docs still list.  Only the one sentence per endpoint is
   parsed: other backticked names (``windows`` is also an ``engine.*``
   counter) do not count.

Exits non-zero listing every discrepancy; prints nothing but a one-line
OK otherwise.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def generator_section_titles() -> list[str]:
    """First-argument string literals of every ``add(...)`` call."""
    source = (REPO_ROOT / "scripts" / "generate_experiments_md.py").read_text()
    titles: list[str] = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == "add"
                and node.args and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            titles.append(node.args[0].value)
    return titles


def check_experiments_md(problems: list[str]) -> None:
    path = REPO_ROOT / "EXPERIMENTS.md"
    if not path.exists():
        problems.append("EXPERIMENTS.md is missing; run scripts/generate_experiments_md.py")
        return
    headings = set(re.findall(r"^## (.+)$", path.read_text(), flags=re.MULTILINE))
    titles = generator_section_titles()
    if not titles:
        problems.append("could not find any add(...) sections in the generator")
    for title in titles:
        if title not in headings:
            problems.append(
                f"EXPERIMENTS.md lacks generator section {title!r}; "
                "regenerate with scripts/generate_experiments_md.py")


def check_operations_md(problems: list[str]) -> None:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.core.config import RETIRED_FIELDS, CatiConfig

    path = REPO_ROOT / "docs" / "OPERATIONS.md"
    if not path.exists():
        problems.append("docs/OPERATIONS.md is missing")
        return
    text = path.read_text()
    for field in dataclasses.fields(CatiConfig):
        if f"`{field.name}`" not in text:
            problems.append(f"docs/OPERATIONS.md does not document CatiConfig.{field.name}")
    retired = text.split("### Retired config fields", 1)[1:]
    for name in RETIRED_FIELDS:
        if not retired or f"`{name}`" not in retired[0]:
            problems.append(f"docs/OPERATIONS.md 'Retired config fields' does not name {name}")


DEPLOYMENT_KNOBS = ("--workers",)
DEPLOYMENT_SECTIONS = ("process model", "capacity planning", "hot-reload",
                       "failure modes", "/healthz")
DEPLOYMENT_LINKERS = ("README.md", "docs/OPERATIONS.md", "docs/ARCHITECTURE.md")


def check_deployment_md(problems: list[str]) -> None:
    path = REPO_ROOT / "docs" / "DEPLOYMENT.md"
    if not path.exists():
        problems.append("docs/DEPLOYMENT.md is missing")
        return
    text = path.read_text()
    lowered = text.lower()
    for knob in DEPLOYMENT_KNOBS:
        if knob not in text:
            problems.append(f"docs/DEPLOYMENT.md does not cover serving flag {knob}")
    for topic in DEPLOYMENT_SECTIONS:
        if topic.lower() not in lowered:
            problems.append(f"docs/DEPLOYMENT.md lacks a section on {topic!r}")
    for rel in DEPLOYMENT_LINKERS:
        if "DEPLOYMENT.md" not in (REPO_ROOT / rel).read_text():
            problems.append(f"{rel} does not link to docs/DEPLOYMENT.md")


def serve_options() -> set[str]:
    """Every ``--`` option of ``repro serve`` but ``--help``."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.cli import build_parser

    (subcommands,) = [action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    return {option for action in subcommands.choices["serve"]._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"}


def check_serving_flags(problems: list[str]) -> None:
    """OPERATIONS.md's "Serving flags" table lists exactly the serve options."""
    ops = REPO_ROOT / "docs" / "OPERATIONS.md"
    if not ops.exists():
        return
    parts = ops.read_text().split("### Serving flags", 1)
    if len(parts) < 2:
        problems.append("docs/OPERATIONS.md lacks the 'Serving flags' table")
        return
    section = re.split(r"^#", parts[1], maxsplit=1, flags=re.MULTILINE)[0]
    listed = re.findall(r"^\| `(--[^`]+)` \|", section, flags=re.MULTILINE)
    options = serve_options()
    for flag in sorted(options - set(listed)):
        problems.append(f"docs/OPERATIONS.md 'Serving flags' lacks a row for {flag}")
    for flag in sorted(set(listed) - options):
        problems.append(f"docs/OPERATIONS.md 'Serving flags' lists {flag}, "
                        "which `repro serve` does not take")


def check_posterior_docs(problems: list[str]) -> None:
    """The struct-recovery stage must stay in the doc graph."""
    arch = REPO_ROOT / "docs" / "ARCHITECTURE.md"
    if arch.exists() and "repro.posterior" not in arch.read_text():
        problems.append(
            "docs/ARCHITECTURE.md does not describe the repro.posterior "
            "struct-recovery stage")
    ops = REPO_ROOT / "docs" / "OPERATIONS.md"
    if ops.exists():
        text = ops.read_text()
        if "--structs" not in text:
            problems.append(
                "docs/OPERATIONS.md does not mention the --structs "
                "CLI/batch surface")


def check_session_docs(problems: list[str]) -> None:
    """The interactive-session subsystem must stay in the doc graph."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.analysis import TOOL_NAMES

    ops = REPO_ROOT / "docs" / "OPERATIONS.md"
    if ops.exists():
        text = ops.read_text()
        if "Interactive sessions" not in text:
            problems.append(
                "docs/OPERATIONS.md lacks an 'Interactive sessions' section")
        for tool in TOOL_NAMES:
            if f"`{tool}`" not in text:
                problems.append(
                    f"docs/OPERATIONS.md does not document session tool {tool}")
        if "repro repl" not in text:
            problems.append(
                "docs/OPERATIONS.md does not mention the `repro repl` client")
    arch = REPO_ROOT / "docs" / "ARCHITECTURE.md"
    if arch.exists() and "repro.analysis" not in arch.read_text():
        problems.append(
            "docs/ARCHITECTURE.md does not describe the repro.analysis "
            "session subsystem")
    readme = REPO_ROOT / "README.md"
    if readme.exists() and "repro repl" not in readme.read_text():
        problems.append("README.md lacks the repl quickstart")


SPAN_SOURCES = ("src/repro/core/engine.py", "src/repro/vuc")


def span_names(path: Path) -> set[str]:
    """First-argument string literals of ``span``/``_span`` calls in ``path``."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.Call) and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            continue
        func = node.func
        called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if called in ("span", "_span"):
            names.add(node.args[0].value)
    return names


def check_span_docs(problems: list[str]) -> None:
    """Every engine/extractor span name appears in docs/OPERATIONS.md."""
    ops = REPO_ROOT / "docs" / "OPERATIONS.md"
    if not ops.exists():
        return
    text = ops.read_text()
    for source in SPAN_SOURCES:
        root = REPO_ROOT / source
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            for name in sorted(span_names(path)):
                if f"`{name}`" not in text:
                    problems.append(
                        f"docs/OPERATIONS.md does not name span {name!r} "
                        f"({path.relative_to(REPO_ROOT)})")


#: Where OPERATIONS.md lists each endpoint's job kinds, and the
#: ``repro.serve.protocol`` tuple the list must equal.
JOB_KIND_SENTENCES = (
    ("`POST /v1/infer` — one job per request. Job kinds (exactly one key):",
     "JOB_KINDS"),
    ("`POST /v1/session/open` — job kinds (exactly one key):",
     "SESSION_JOB_KINDS"),
)


def listed_job_kinds(text: str, marker: str) -> list[str] | None:
    """Backticked names in the sentence that ``marker`` opens.

    Parenthesized remarks are dropped first, so ``(... + `extents`)``
    names no kind; the sentence ends at its period or its bullet.
    """
    start = text.find(marker)
    if start < 0:
        return None
    block = text[start + len(marker):].split("\n* ", 1)[0]
    while True:
        unwrapped = re.sub(r"\([^()]*\)", "", block)
        if unwrapped == block:
            break
        block = unwrapped
    sentence = re.split(r"\.(?:\s|$)", block, maxsplit=1)[0]
    return re.findall(r"`([^`]+)`", sentence)


def check_job_kind_docs(problems: list[str]) -> None:
    """Each endpoint's documented job kinds equal the protocol's."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.serve import protocol

    ops = REPO_ROOT / "docs" / "OPERATIONS.md"
    if not ops.exists():
        return
    text = ops.read_text()
    for marker, name in JOB_KIND_SENTENCES:
        expected = list(getattr(protocol, name))
        listed = listed_job_kinds(text, marker)
        if listed is None:
            problems.append(f"docs/OPERATIONS.md lacks the sentence {marker!r}")
        elif listed != expected:
            problems.append(
                f"docs/OPERATIONS.md lists job kinds {listed} after {marker!r}; "
                f"protocol.{name} is {expected}")


def main() -> int:
    problems: list[str] = []
    check_experiments_md(problems)
    check_operations_md(problems)
    check_deployment_md(problems)
    check_serving_flags(problems)
    check_posterior_docs(problems)
    check_session_docs(problems)
    check_span_docs(problems)
    check_job_kind_docs(problems)
    if problems:
        for problem in problems:
            print(f"DOCS DRIFT: {problem}", file=sys.stderr)
        return 1
    print("docs checks OK (EXPERIMENTS.md sections + CatiConfig coverage"
          " + DEPLOYMENT.md graph + serving flags + span names + job kinds)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
