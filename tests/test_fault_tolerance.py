"""Fault-tolerance suite: the error taxonomy, the skip-and-record policy
and the hardened tool runner.

Every failure exercised here is manufactured deterministically by
``tests/faultinject.py`` — no real flaky machine required.  The
integrated test at the bottom is the acceptance scenario: a corpus with
~20% corrupted functions plus a corrupted ELF, a truncated DWARF stream
and a tool timeout still yields predictions for every healthy function
identical to a clean run, with a :class:`FailureReport` enumerating
every injection.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.codegen.compilers import GccCompiler
from repro.codegen.strip import strip
from repro.core.errors import (
    CatiError,
    DecodeError,
    DwarfError,
    FailureReport,
    InferenceError,
    ToolchainError,
    handle_failure,
)
from repro.core.toolchain import run_tool
from repro.core.types import STAGE_SPECS, TypeName
from repro.dwarf.native import NativeDwarfError, parse_compile_units
from repro.elf.parser import ElfFile, ElfParseError
from repro.experiments.speed import extents_from_debug
from repro.frontend.native import extract_labeled_vucs_native, load_binary
from tests import faultinject as fi


# -- the hardened tool runner ----------------------------------------------------


class TestRunTool:
    def test_transient_timeout_is_retried(self):
        runner = fi.FlakyRunner(["timeout", "ok"], stdout="done")
        sleeps = fi.SleepRecorder()
        result = run_tool(["gcc", "--version"], timeout=0.5, retries=2,
                          backoff=0.1, runner=runner, sleep=sleeps)
        assert result.attempts == 2
        assert result.stdout == "done"
        assert sleeps.delays == [0.1]

    def test_backoff_doubles_per_attempt(self):
        runner = fi.FlakyRunner(["timeout", "oserror", "ok"])
        sleeps = fi.SleepRecorder()
        result = run_tool(["objdump", "-d", "x"], timeout=0.5, retries=2,
                          backoff=0.05, runner=runner, sleep=sleeps)
        assert result.attempts == 3
        assert sleeps.delays == [0.05, 0.1]

    def test_persistent_timeout_raises_typed_error(self):
        runner = fi.FlakyRunner(["timeout", "timeout", "timeout"])
        with pytest.raises(ToolchainError) as excinfo:
            run_tool(["readelf", "-a", "x"], timeout=0.5, retries=2,
                     backoff=0.0, binary="victim", runner=runner,
                     sleep=fi.no_sleep)
        error = excinfo.value
        assert isinstance(error, CatiError)
        assert error.tool == "readelf"
        assert error.binary == "victim"
        assert error.stage == "toolchain"
        assert "timed out" in str(error)
        assert len(runner.calls) == 3

    def test_nonzero_exit_is_not_retried_and_captures_stderr(self):
        runner = fi.FlakyRunner(["fail"], stderr="undefined reference to `x'")
        with pytest.raises(ToolchainError) as excinfo:
            run_tool(["gcc", "bad.c"], retries=5, runner=runner,
                     sleep=fi.no_sleep)
        assert excinfo.value.returncode == 1
        assert "undefined reference" in excinfo.value.stderr
        assert len(runner.calls) == 1

    def test_missing_tool_fails_immediately(self):
        runner = fi.FlakyRunner(["missing"])
        with pytest.raises(ToolchainError) as excinfo:
            run_tool(["gcc-99", "x.c"], retries=5, runner=runner,
                     sleep=fi.no_sleep)
        assert excinfo.value.missing
        assert excinfo.value.missing_tools == ("gcc-99",)
        assert len(runner.calls) == 1

    def test_real_missing_tool(self):
        with pytest.raises(ToolchainError) as excinfo:
            run_tool(["definitely-not-a-real-tool-cati"], timeout=1.0)
        assert excinfo.value.missing


class TestMissingToolchainReporting:
    def test_require_toolchain_names_the_missing_tool(self, monkeypatch):
        import repro.core.toolchain as toolchain_mod
        from repro.frontend.compile import require_toolchain, toolchain_available

        real_which = toolchain_mod.shutil.which
        monkeypatch.setattr(
            toolchain_mod.shutil, "which",
            lambda tool: None if tool == "objdump" else real_which(tool))
        assert not toolchain_available()
        with pytest.raises(ToolchainError) as excinfo:
            require_toolchain()
        error = excinfo.value
        assert error.missing                        # the skip-friendly flag
        assert error.missing_tools == ("objdump",)  # names WHICH tool
        assert "objdump" in str(error)
        assert "gcc" not in error.missing_tools


# -- ELF degradation -------------------------------------------------------------


class TestElfDegradation:
    def test_out_of_bounds_header_raises_typed_error(self):
        data = fi.minimal_elf(text=fi.GOOD_CODE, corrupt="shnum")
        with pytest.raises(ElfParseError) as excinfo:
            ElfFile(data)
        assert isinstance(excinfo.value, DecodeError)
        assert isinstance(excinfo.value, ValueError)  # back-compat
        assert excinfo.value.stage == "elf"

    @pytest.mark.parametrize("corrupt", ["shnum", "shstrndx", "entsize"])
    def test_corrupt_section_table_skips_and_records(self, corrupt):
        failures = FailureReport()
        elf = ElfFile(fi.minimal_elf(text=fi.GOOD_CODE, corrupt=corrupt),
                      on_error="skip", failures=failures)
        assert failures.by_stage() == {"elf": 1}
        assert isinstance(elf.sections, list)  # partial parse survived

    def test_unreadable_ident_always_raises(self):
        with pytest.raises(ElfParseError):
            ElfFile(b"\x7fELF", on_error="skip")

    def test_load_binary_skips_undecodable_function(self, tmp_path):
        path = tmp_path / "mixed"
        path.write_bytes(fi.minimal_elf(
            text=fi.GOOD_CODE + fi.BAD_CODE,
            symbols=[("good", 0, len(fi.GOOD_CODE)),
                     ("evil", len(fi.GOOD_CODE), len(fi.BAD_CODE))]))
        loaded = load_binary(path, on_error="skip")
        assert [f.name for f in loaded.functions] == ["good"]
        stages = loaded.failures.by_stage()
        assert stages.get("decode") == 1     # evil's bytes
        assert stages.get("dwarf") == 1      # no debug info in this image
        decode_record = next(r for r in loaded.failures if r.stage == "decode")
        assert decode_record.function == "evil"

    def test_load_binary_raise_carries_function_context(self, tmp_path):
        path = tmp_path / "mixed"
        path.write_bytes(fi.minimal_elf(
            text=fi.GOOD_CODE + fi.BAD_CODE,
            symbols=[("good", 0, len(fi.GOOD_CODE)),
                     ("evil", len(fi.GOOD_CODE), len(fi.BAD_CODE))]))
        with pytest.raises(DecodeError) as excinfo:
            load_binary(path, on_error="raise")
        assert excinfo.value.function == "evil"
        assert excinfo.value.binary == str(path)

    def test_zero_function_symbols_is_defined(self, tmp_path):
        path = tmp_path / "nosyms"
        path.write_bytes(fi.minimal_elf(text=fi.GOOD_CODE))
        loaded = load_binary(path, on_error="skip")
        assert loaded.functions == []
        assert loaded.variables == []
        dataset = extract_labeled_vucs_native(loaded)
        assert len(dataset) == 0


# -- DWARF degradation -----------------------------------------------------------


class TestDwarfDegradation:
    def test_truncated_cu_raises_typed_error(self):
        info = fi.truncate_second_cu(fi.build_debug_info(2))
        with pytest.raises(NativeDwarfError, match="truncated compile unit"):
            parse_compile_units(info, fi.build_abbrev(), b"", b"")

    def test_truncated_cu_skips_and_keeps_healthy_units(self):
        info = fi.truncate_second_cu(fi.build_debug_info(2))
        failures = FailureReport()
        units = parse_compile_units(info, fi.build_abbrev(), b"", b"",
                                    on_error="skip", failures=failures)
        assert [u.attrs[fi.DW_AT_NAME] for u in units] == ["cu0"]
        assert failures.by_stage() == {"dwarf": 1}
        assert isinstance(excinfo_kind(failures), str)

    def test_bad_body_cu_skipped_healthy_neighbors_survive(self):
        info = (fi.build_cu("cu0") +
                fi.build_cu("cu1", bad_abbrev_code=9) +
                fi.build_cu("cu2"))
        failures = FailureReport()
        units = parse_compile_units(info, fi.build_abbrev(), b"", b"",
                                    on_error="skip", failures=failures)
        assert [u.attrs[fi.DW_AT_NAME] for u in units] == ["cu0", "cu2"]
        assert failures.by_kind() == {"NativeDwarfError": 1}

    def test_corrupt_unit_length_ends_parse_with_record(self):
        failures = FailureReport()
        units = parse_compile_units(fi.corrupt_unit_length(), fi.build_abbrev(),
                                    b"", b"", on_error="skip", failures=failures)
        assert units == []
        assert len(failures) == 1
        assert isinstance(failures.records[0].traceback, str)

    def test_truncated_real_debug_info(self, tmp_path):
        from repro.frontend.compile import compile_sample, toolchain_available

        if not toolchain_available():
            pytest.skip("gcc/objdump/readelf not on PATH")
        artifact = compile_sample(workdir=str(tmp_path))
        elf = ElfFile.load(artifact.binary_path)
        info = elf.section_data(".debug_info")
        failures = FailureReport()
        units = parse_compile_units(
            info[:len(info) // 2], elf.section_data(".debug_abbrev"),
            elf.section_data(".debug_str"), elf.section_data(".debug_line_str"),
            on_error="skip", failures=failures)
        assert isinstance(units, list)   # degraded, but no exception
        assert failures                  # the damage was recorded
        assert all(r.stage == "dwarf" for r in failures)


def excinfo_kind(failures: FailureReport) -> str:
    return failures.records[0].kind


# -- degenerate inputs -----------------------------------------------------------


class TestDegenerateInputs:
    def test_vote_on_empty_confidences_is_typed(self):
        from repro.core.voting import vote

        with pytest.raises(InferenceError):
            vote([])
        with pytest.raises(ValueError):  # back-compat contract
            vote(np.empty((0, 5)))

    def test_vote_variable_with_zero_vucs_returns_a_type(self, mini_cati):
        stage_probs = {
            stage: np.zeros((3, len(spec.labels)))
            for stage, spec in STAGE_SPECS.items()
        }
        result = mini_cati.classifier.vote_variable(stage_probs, [])
        assert isinstance(result, TypeName)

    def test_infer_binary_with_no_matching_extents(self, mini_cati, demo_binary):
        from repro.vuc.dataflow import VariableExtent

        stripped = strip(demo_binary)
        # Extents that exist nowhere in the frame: every window is dropped.
        bogus = [[VariableExtent("ghost", "rbp", -0x7000, 8)]
                 for _ in stripped.functions]
        result = mini_cati.engine.infer_binary(stripped, bogus)
        assert list(result) == []
        assert not result.failures

    def test_infer_binary_with_empty_extent_lists(self, mini_cati, demo_binary):
        stripped = strip(demo_binary)
        result = mini_cati.engine.infer_binary(
            stripped, [[] for _ in stripped.functions])
        assert list(result) == []

    def test_invalid_on_error_value_rejected(self, mini_cati, demo_binary):
        stripped = strip(demo_binary)
        with pytest.raises(ValueError, match="on_error"):
            mini_cati.engine.infer_binary(
                stripped, [[] for _ in stripped.functions], on_error="explode")


# -- per-function skip policy through the engine ---------------------------------


def prediction_map(result):
    return {p.variable_id: (p.predicted, p.n_vucs) for p in result}


def healthy_subset(predictions, stripped, poisoned_indices):
    poisoned_scopes = {f"{stripped.name}/{i}" for i in poisoned_indices}
    return {vid: value for vid, value in predictions.items()
            if vid.split("::")[0] not in poisoned_scopes}


class TestEngineSkipPolicy:
    def test_poisoned_functions_skip_matches_clean_run(self, mini_cati, demo_binary):
        engine = mini_cati.engine
        stripped = strip(demo_binary)
        extents = extents_from_debug(demo_binary)
        clean = prediction_map(engine.infer_binary(stripped, extents))

        poisoned, indices = fi.poison_binary(stripped, fraction=0.2)
        result = engine.infer_binary(poisoned, extents, on_error="skip")

        assert prediction_map(result) == healthy_subset(clean, stripped, indices)
        assert len(result.failures) == len(indices)
        poisoned_names = {stripped.functions[i].name for i in indices}
        for record in result.failures:
            assert record.stage == "extract"
            assert record.binary == stripped.name
            assert record.function in poisoned_names
            assert record.kind == "DecodeError"
            assert "injected corrupt function bytes" in record.message

    def test_poisoned_function_raise_carries_context(self, mini_cati, demo_binary):
        engine = mini_cati.engine
        stripped = strip(demo_binary)
        extents = extents_from_debug(demo_binary)
        poisoned, indices = fi.poison_binary(stripped, fraction=0.2)
        with pytest.raises(DecodeError) as excinfo:
            engine.infer_binary(poisoned, extents, on_error="raise")
        assert excinfo.value.binary == stripped.name
        assert excinfo.value.function == stripped.functions[indices[0]].name

    def test_failure_report_aggregates_into_caller(self, mini_cati, demo_binary):
        engine = mini_cati.engine
        stripped = strip(demo_binary)
        extents = extents_from_debug(demo_binary)
        poisoned, indices = fi.poison_binary(stripped, fraction=0.2)
        outer = FailureReport()
        engine.infer_binary(poisoned, extents, on_error="skip", failures=outer)
        assert len(outer) == len(indices)
        payload = json.dumps(outer.to_dict())   # machine-readable
        assert "injected corrupt function bytes" in payload


# -- the acceptance scenario -----------------------------------------------------


def build_jobs(seeds):
    compiler = GccCompiler()
    jobs = []
    for seed in seeds:
        binary = compiler.compile_fresh(seed=seed, name=f"fault{seed}", opt_level=0)
        jobs.append((strip(binary), extents_from_debug(binary)))
    return jobs


class TestIntegratedDegradedCorpus:
    """~20% corrupted functions + corrupt ELF + truncated DWARF + tool
    timeout, on one corpus, in one report."""

    def test_degraded_corpus_matches_clean_run(self, mini_cati):
        engine = mini_cati.engine
        jobs = build_jobs([31, 32, 33, 34])
        clean = [prediction_map(engine.infer_binary(stripped, extents))
                 for stripped, extents in jobs]

        report = FailureReport()

        # Injection 1: poison ~20% of every binary's functions.
        results, poisoned_by_job = [], []
        for stripped, extents in jobs:
            poisoned, indices = fi.poison_binary(stripped, fraction=0.2)
            results.append(engine.infer_binary(
                poisoned, extents, on_error="skip", failures=report))
            poisoned_by_job.append(indices)

        # Injection 2: corrupted ELF section table.
        ElfFile(fi.minimal_elf(text=fi.GOOD_CODE, corrupt="shnum"),
                on_error="skip", failures=report)

        # Injection 3: truncated DWARF.
        parse_compile_units(
            fi.truncate_second_cu(fi.build_debug_info(2)), fi.build_abbrev(),
            b"", b"", on_error="skip", failures=report)

        # Injection 4: persistent tool timeout.
        try:
            run_tool(["gcc", "--version"], timeout=0.01, retries=1,
                     runner=fi.FlakyRunner(["timeout", "timeout"]),
                     sleep=fi.no_sleep, binary="corpus")
        except ToolchainError as exc:
            handle_failure(exc, on_error="skip", failures=report,
                           stage="toolchain", binary="corpus")

        # Healthy functions: identical predictions to the clean run.
        n_poisoned = 0
        for job_index, ((stripped, _extents), result) in enumerate(
                zip(jobs, results)):
            indices = poisoned_by_job[job_index]
            n_poisoned += len(indices)
            assert prediction_map(result) == healthy_subset(
                clean[job_index], stripped, indices), f"job {job_index}"

        # The report enumerates every injected failure.
        stages = report.by_stage()
        assert stages["extract"] == n_poisoned       # every poisoned function
        assert stages["elf"] == 1                    # the corrupt section table
        assert stages["dwarf"] == 1                  # the truncated CU
        assert stages["toolchain"] == 1              # the tool timeout
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["total"] == len(report)
        assert set(payload["by_stage"]) == set(stages)
        assert payload["exemplars"]                  # tracebacks preserved

    def test_same_injections_raise_typed_errors(self, mini_cati):
        engine = mini_cati.engine
        jobs = build_jobs([41])
        stripped, extents = jobs[0]
        poisoned, indices = fi.poison_binary(stripped, fraction=0.2)

        with pytest.raises(DecodeError) as excinfo:
            engine.infer_binary(poisoned, extents, on_error="raise")
        assert excinfo.value.binary == stripped.name
        assert excinfo.value.function == stripped.functions[indices[0]].name

        with pytest.raises(ElfParseError) as excinfo:
            ElfFile(fi.minimal_elf(text=fi.GOOD_CODE, corrupt="shnum"))
        assert excinfo.value.stage == "elf"

        with pytest.raises(DwarfError) as excinfo:
            parse_compile_units(
                fi.truncate_second_cu(fi.build_debug_info(2)),
                fi.build_abbrev(), b"", b"")
        assert "truncated compile unit" in str(excinfo.value)

        with pytest.raises(ToolchainError) as excinfo:
            run_tool(["gcc", "--version"], timeout=0.01, retries=0,
                     runner=fi.FlakyRunner(["timeout"]), sleep=fi.no_sleep,
                     binary="fault41")
        assert excinfo.value.binary == "fault41"


# -- CLI knobs -------------------------------------------------------------------


class TestCliKnobs:
    def test_infer_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["infer", "--on-error", "skip"])
        assert args.on_error == "skip"
