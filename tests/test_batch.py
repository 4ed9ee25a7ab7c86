"""Batch jobs (repro.batch): specs, checkpoints, resume, fault injection.

The headline assertions mirror ISSUE acceptance:

* a job SIGKILL'd at three distinct fault points (pre-commit,
  torn-commit, post-commit) resumes to predictions **bit-identical** to
  an uninterrupted run, with every work-losing interruption enumerated
  in the merged failure report;
* a torn or damaged commit record is detected (checksum) and
  recomputed, never trusted, and a torn tail never swallows the next
  record;
* a poisoned shard consumes its bounded attempt budget — with the
  backoff schedule deterministic under a seeded jitter RNG — and lands
  in quarantine instead of wedging the job.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
from fnmatch import fnmatch
from pathlib import Path

import pytest

from repro.batch import (
    BatchJobStore,
    JobSpec,
    demo_corpus,
    job_status,
    load_manifest,
    resume_job,
    run_job,
)
from repro.batch.job import JOURNAL_NAME, journal_line
from repro.batch.runner import FaultPlan
from repro.batch.spec import ManifestItem
from repro.core import observability
from repro.core.errors import (
    BatchError,
    ConfigMismatchError,
    FailureRecord,
    FailureReport,
)
from repro.core.toolchain import retry_delays, run_tool
from tests.test_artifacts import OLD_FIELDS

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def mini_bundle_dir(tmp_path_factory, mini_cati):
    directory = tmp_path_factory.mktemp("bundle") / "model"
    mini_cati.save(str(directory))
    return str(directory)


@pytest.fixture(scope="session")
def drifted_bundle_dir(tmp_path_factory, small_corpus, mini_config):
    """A second, genuinely different model (fewer epochs → new weights)."""
    import dataclasses

    from repro.core.pipeline import Cati

    config = dataclasses.replace(mini_config, epochs=1)
    cati = Cati(config).train(small_corpus.train)
    directory = tmp_path_factory.mktemp("bundle-drift") / "model"
    cati.save(str(directory))
    return str(directory)


# -- spec --------------------------------------------------------------------------


class TestJobSpec:
    def test_rejects_bad_on_error(self):
        with pytest.raises(BatchError, match="on_error"):
            JobSpec(items=demo_corpus(1), on_error="explode")

    def test_rejects_empty_manifest(self):
        with pytest.raises(BatchError, match="no manifest items"):
            JobSpec(items=())

    def test_rejects_bad_item_kind(self):
        with pytest.raises(BatchError, match="kind"):
            ManifestItem.from_dict({"kind": "carrier-pigeon"})

    def test_round_trips_through_dict(self):
        spec = JobSpec(items=demo_corpus(3), shard_size=2,
                       on_error="raise", max_retries=2, seed=7)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_structs_flag_round_trips(self):
        spec = JobSpec(items=demo_corpus(2), structs=True)
        assert spec.to_dict()["structs"] is True
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_pre_structs_spec_dict_defaults_off(self):
        # Manifests written before the posterior stage existed carry no
        # "structs" key; they must load with the stage off.
        data = JobSpec(items=demo_corpus(2)).to_dict()
        data.pop("structs")
        assert JobSpec.from_dict(data).structs is False

    def test_shards_cover_all_items_in_order(self):
        spec = JobSpec(items=demo_corpus(5), shard_size=2)
        shards = spec.shards()
        assert [len(s) for s in shards] == [2, 2, 1]
        assert [i.name for s in shards for i in s] == \
               [i.name for i in spec.items]

    def test_inputs_hash_binds_model_key(self):
        spec = JobSpec(items=demo_corpus(2), shard_size=2)
        assert spec.shard_inputs_sha256(0, "model-a") != \
               spec.shard_inputs_sha256(0, "model-b")

    def test_manifest_file_relative_paths(self, tmp_path):
        (tmp_path / "wire").mkdir()
        manifest = tmp_path / "corpus.json"
        manifest.write_text(json.dumps({"items": [
            {"kind": "file", "path": "wire/job1.json"},
            {"kind": "demo", "seed": 9},
        ]}))
        items = load_manifest(manifest)
        assert items[0].path == str(tmp_path / "wire" / "job1.json")
        assert items[1].seed == 9

    def test_file_item_with_bad_payload(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a wire job"}')
        item = ManifestItem(kind="file", name="bad", path=str(bad))
        with pytest.raises(BatchError, match="wire"):
            item.load()


# -- seedable retry backoff --------------------------------------------------------


class TestRetryDelays:
    def test_unjittered_schedule_is_exponential(self):
        assert list(retry_delays(0.1, 3)) == [0.1, 0.2, 0.4]

    def test_seeded_jitter_is_deterministic(self):
        a = list(retry_delays(0.1, 4, jitter=0.5, rng=random.Random(42)))
        b = list(retry_delays(0.1, 4, jitter=0.5, rng=random.Random(42)))
        assert a == b
        base = [0.1, 0.2, 0.4, 0.8]
        for got, lo in zip(a, base):
            assert lo <= got <= lo * 1.5

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            list(retry_delays(0.1, 1, jitter=-1))

    def test_run_tool_sleeps_the_seeded_schedule(self):
        calls = {"n": 0}

        def flaky_runner(argv, **kwargs):
            calls["n"] += 1
            raise OSError("transient")

        slept: list[float] = []
        with pytest.raises(Exception):
            run_tool(["fake-tool"], retries=2, backoff=0.1, jitter=0.5,
                     rng=random.Random(7), runner=flaky_runner,
                     sleep=slept.append)
        assert calls["n"] == 3
        assert slept == list(retry_delays(0.1, 2, jitter=0.5,
                                          rng=random.Random(7)))


# -- failure report plumbing -------------------------------------------------------


class TestFailureReportMerge:
    def test_record_dict_round_trip(self):
        report = FailureReport()
        report.record(ValueError("boom"), stage="batch",
                      binary="bin", function="fn")
        rebuilt = FailureReport.from_records(report.records_to_dicts())
        original, clone = report.records[0], rebuilt.records[0]
        for field in ("stage", "kind", "message", "binary", "function",
                      "traceback"):
            assert getattr(original, field) == getattr(clone, field)

    def test_from_dict_tolerates_minimal_record(self):
        record = FailureRecord.from_dict({"stage": "batch", "kind": "X",
                                          "message": "m"})
        assert record.stage == "batch"


# -- fault plan --------------------------------------------------------------------


class TestFaultPlan:
    def test_parses_full_spec(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_FAULT",
                           "torn:shard=2:point=torn-commit:times=3")
        plan = FaultPlan.from_env()
        assert plan == FaultPlan(mode="torn", shard=2,
                                 point="torn-commit", times=3)

    def test_absent_env_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH_FAULT", raising=False)
        assert FaultPlan.from_env() is None

    def test_bad_spec_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_FAULT", "maybe:shard=0:point=lunch")
        with pytest.raises(BatchError, match="REPRO_BATCH_FAULT"):
            FaultPlan.from_env()


# -- in-process job lifecycle ------------------------------------------------------


def invalid_count() -> float:
    return observability.snapshot()["counters"].get("batch.checkpoints.invalid", 0)


def without_run_counts(results: dict) -> dict:
    """A results document without the fields that differ between runs."""
    return {key: value for key, value in results.items()
            if key not in ("elapsed_s", "shards_run", "shards_reused")}


def commit_span(job_dir: Path, shard: int) -> tuple[int, int]:
    """Byte range of ``shard``'s last commit record in the job's journal."""
    data = (job_dir / JOURNAL_NAME).read_bytes()
    start = data.rindex(f"\ncommit {shard} ".encode()) + 1
    return start, data.index(b"\n", start) + 1


def small_spec(n=3, **kwargs):
    kwargs.setdefault("shard_size", 2)
    kwargs.setdefault("backoff", 0.0)
    return JobSpec(items=demo_corpus(n), **kwargs)


class TestJobLifecycle:
    def test_run_matches_direct_inference(self, tmp_path, mini_bundle_dir,
                                          mini_cati):
        spec = small_spec(3)
        results = run_job(tmp_path / "job", spec,
                          model_dir=mini_bundle_dir,
                          cache_dir=tmp_path / "cache")
        assert results["shards"]["quarantined"] == []
        assert results["shards"]["missing"] == []
        for item in spec.items:
            stripped, extents = item.load()
            direct = mini_cati.infer_binary(stripped, extents)
            got = results["predictions"][item.name]
            assert [p["variable_id"] for p in got] == \
                   [d.variable_id for d in direct]
            assert [p["predicted"] for p in got] == \
                   [str(d.predicted) for d in direct]

    def test_job_dir_holds_job_journal_and_results(self, tmp_path,
                                                   mini_bundle_dir):
        job_dir = tmp_path / "job"
        run_job(job_dir, small_spec(3), model_dir=mini_bundle_dir)
        assert sorted(path.name for path in job_dir.iterdir()) == \
               sorted(["job.json", JOURNAL_NAME, "results.json"])

    def test_job_leaves_only_segments_in_the_cache(self, tmp_path,
                                                   mini_bundle_dir):
        spec = small_spec(5)  # three shards of at most two items
        results = run_job(tmp_path / "job", spec, model_dir=mini_bundle_dir,
                          cache_dir=tmp_path / "cache")
        assert results["shards_run"] == 3
        assert results["window_cache"]["appends"] > 0
        (namespace,) = (tmp_path / "cache").iterdir()
        names = [path.name for path in namespace.iterdir()]
        assert names and all(fnmatch(name, "seg-*.bin") for name in names), names

    def test_results_committed_and_status_complete(self, tmp_path,
                                                   mini_bundle_dir):
        job_dir = tmp_path / "job"
        run_job(job_dir, small_spec(3), model_dir=mini_bundle_dir)
        status = job_status(job_dir)
        assert status["complete"]
        assert status["has_results"]
        assert status["shards"]["committed"] == 2
        on_disk = json.loads((job_dir / "results.json").read_text())
        assert on_disk["format"] == "cati-batch-results/1"

    def test_rerun_refuses_existing_job_dir(self, tmp_path, mini_bundle_dir):
        job_dir = tmp_path / "job"
        run_job(job_dir, small_spec(2), model_dir=mini_bundle_dir)
        with pytest.raises(BatchError, match="resume"):
            run_job(job_dir, small_spec(2), model_dir=mini_bundle_dir)

    def test_resume_of_complete_job_reuses_everything(self, tmp_path,
                                                      mini_bundle_dir):
        job_dir = tmp_path / "job"
        first = run_job(job_dir, small_spec(3), model_dir=mini_bundle_dir)
        again = resume_job(job_dir)
        assert again["shards_run"] == 0
        assert again["shards_reused"] == 2
        assert again["predictions"] == first["predictions"]

    def test_resume_with_retired_config_fields(self, tmp_path,
                                               mini_bundle_dir):
        # A job.json written while the RETIRED_FIELDS were CatiConfig
        # fields still resumes.
        job_dir = tmp_path / "job"
        first = run_job(job_dir, small_spec(3), model_dir=mini_bundle_dir)
        store = BatchJobStore(job_dir)
        body = json.loads(store.job_path.read_text())
        body["config"].update(OLD_FIELDS)
        store.job_path.write_text(json.dumps(body))
        again = resume_job(job_dir)
        assert again["shards_run"] == 0
        assert again["shards_reused"] == 2
        assert again["predictions"] == first["predictions"]

    def test_partial_checkpoint_detected_and_recomputed(self, tmp_path,
                                                        mini_bundle_dir):
        job_dir = tmp_path / "job"
        first = run_job(job_dir, small_spec(3), model_dir=mini_bundle_dir)
        journal = job_dir / JOURNAL_NAME
        start, end = commit_span(job_dir, 1)
        journal.write_bytes(journal.read_bytes()[:(start + end) // 2])
        status = job_status(job_dir)
        assert status["shards"]["pending"] == [1]
        assert status["shards"]["invalid"] == []
        assert not status["complete"]
        resumed = resume_job(job_dir)
        assert resumed["shards_run"] == 1
        assert resumed["predictions"] == first["predictions"]

    def test_commit_after_a_torn_tail_reads_back(self, tmp_path,
                                                 mini_bundle_dir):
        """The resume cuts the torn commit off before it appends, so its
        own records read back whole on the next open."""
        job_dir = tmp_path / "job"
        run_job(job_dir, small_spec(3), model_dir=mini_bundle_dir)
        journal = job_dir / JOURNAL_NAME
        start, end = commit_span(job_dir, 1)
        journal.write_bytes(journal.read_bytes()[:(start + end) // 2])
        resumed = resume_job(job_dir)
        assert resumed["shards_run"] == 1
        before = invalid_count()
        status = job_status(job_dir)
        assert status["complete"] and status["shards"]["committed"] == 2
        assert invalid_count() == before
        store = BatchJobStore(job_dir)
        # the torn commit's attempt was charged, so the resume's commit is
        # attempt 2; that commit settles both
        assert store.read_checkpoint(1)["attempts"] == 2
        assert store.attempts(1) == 0

    def test_undecodable_checkpoint_is_invalid_then_recomputed(
            self, tmp_path, mini_bundle_dir):
        job_dir = tmp_path / "job"
        first = run_job(job_dir, small_spec(3), model_dir=mini_bundle_dir)
        journal = job_dir / JOURNAL_NAME
        data = bytearray(journal.read_bytes())
        start, end = commit_span(job_dir, 1)
        data[(start + end) // 2] = 0xFF  # one flipped byte: no longer UTF-8
        journal.write_bytes(bytes(data))
        before = invalid_count()
        status = job_status(job_dir)
        assert status["shards"]["invalid"] == [1]
        assert invalid_count() == before + 1
        resumed = resume_job(job_dir)
        assert (resumed["shards_run"], resumed["shards_reused"]) == (1, 1)
        on_disk = without_run_counts(json.loads((job_dir / "results.json").read_text()))
        expected = without_run_counts(first)
        # The damaged commit is enumerated as an attempt that committed
        # nothing; everything else equals the uninterrupted run.
        records = on_disk.pop("failures")["records"]
        assert expected.pop("failures")["records"] == []
        assert on_disk == expected
        assert len(records) == 1
        assert "died without committing" in records[0]["message"]

    def test_tampered_model_key_rejected_then_rebound(self, tmp_path,
                                                      mini_bundle_dir):
        job_dir = tmp_path / "job"
        first = run_job(job_dir, small_spec(2), model_dir=mini_bundle_dir)
        store = BatchJobStore(job_dir)
        body = json.loads(store.job_path.read_text())
        body["model_key"] = "0" * 64  # job.json no longer matches the bundle
        store.job_path.write_text(json.dumps(body))
        with pytest.raises(ConfigMismatchError, match="force"):
            resume_job(job_dir)
        forced = resume_job(job_dir, force=True)
        # force re-binds to the bundle actually on disk — which is the
        # one the checkpoints were computed against, so they revalidate
        assert forced["shards_run"] == 0
        assert forced["predictions"] == first["predictions"]

    def test_real_model_drift_invalidates_checkpoints(
            self, tmp_path, mini_bundle_dir, drifted_bundle_dir):
        job_dir = tmp_path / "job"
        spec = small_spec(2, max_retries=0)
        run_job(job_dir, spec, model_dir=mini_bundle_dir)
        with pytest.raises(ConfigMismatchError, match="force"):
            resume_job(job_dir, model_dir=drifted_bundle_dir)
        forced = resume_job(job_dir, model_dir=drifted_bundle_dir, force=True)
        # the old checkpoints bind the old model key: all recomputed, and
        # the attempt that committed one does not count against the
        # one-attempt budget, nor as an attempt that died
        assert forced["shards_run"] == 1
        assert forced["shards_reused"] == 0
        assert forced["shards"]["quarantined"] == []
        assert all(forced["predictions"].get(item.name) for item in spec.items)
        assert not [record for record in forced["failures"]["records"]
                    if "died without committing" in record["message"]]
        body = json.loads(BatchJobStore(job_dir).job_path.read_text())
        assert body["model_dir"] == drifted_bundle_dir

    def test_quarantine_after_bounded_deterministic_retries(
            self, tmp_path, mini_bundle_dir, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_FAULT",
                           "raise:shard=1:point=pre-commit:times=99")
        slept: list[float] = []
        spec = small_spec(3, max_retries=2, backoff=0.05, jitter=0.5, seed=11)
        results = run_job(tmp_path / "job", spec, model_dir=mini_bundle_dir,
                          sleep=slept.append)
        assert results["shards"]["quarantined"] == [1]
        # the poisoned shard's items are absent, the healthy shard's are not
        assert spec.items[0].name in results["predictions"]
        assert spec.items[2].name not in results["predictions"]
        # every injected failure is enumerated in the merged report
        injected = [r for r in results["failures"]["records"]
                    if "injected fault" in r["message"]]
        assert len(injected) == 3  # attempt budget = max_retries + 1
        # the backoff schedule is the seeded per-shard retry_delays schedule
        assert slept == list(retry_delays(0.05, 2, jitter=0.5,
                                          rng=random.Random("11:1")))
        status = job_status(tmp_path / "job")
        assert status["shards"]["quarantined"] == [1]
        assert status["complete"]

    def test_quarantine_raises_under_raise_policy(self, tmp_path,
                                                  mini_bundle_dir,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_FAULT",
                           "raise:shard=0:point=pre-commit:times=99")
        spec = small_spec(2, on_error="raise", max_retries=0)
        with pytest.raises(BatchError, match="quarantined"):
            run_job(tmp_path / "job", spec, model_dir=mini_bundle_dir)


class TestCheckpointEnvelope:
    PAYLOAD = {"shard": 0, "inputs_sha256": "ab" * 32, "items": ["x"],
               "predictions": [[{"variable_id": "x/0::rbp-8", "predicted": "int",
                                 "n_vucs": 2, "scores": [0.1, -0.0, 1e-300]}]],
               "failures": [], "attempts": 1}

    def test_reads_back_what_it_wrote(self, tmp_path):
        second = {**self.PAYLOAD, "shard": 1}
        store = BatchJobStore(tmp_path)
        store.write_checkpoint(0, self.PAYLOAD)
        assert store.read_checkpoint(0, expected_inputs="ab" * 32) == self.PAYLOAD
        store.close()
        store.write_checkpoint(1, second)  # reopens the journal
        store.close()
        reopened = BatchJobStore(tmp_path)
        assert reopened.read_checkpoint(0, expected_inputs="ab" * 32) == self.PAYLOAD
        assert reopened.read_checkpoint(1, expected_inputs="ab" * 32) == second
        assert reopened.read_checkpoint(0, expected_inputs="cd" * 32) is None

    @pytest.mark.parametrize("payload", [["not", "an", "object"], "text", 7, None])
    def test_checksum_valid_non_object_payload_is_invalid(self, tmp_path, payload):
        (tmp_path / JOURNAL_NAME).write_bytes(journal_line("commit", 0, payload))
        before = invalid_count()
        store = BatchJobStore(tmp_path)
        assert store.read_checkpoint(0, expected_inputs="ab" * 32) is None
        assert invalid_count() == before + 1

    def test_payload_must_name_its_shard(self, tmp_path):
        store = BatchJobStore(tmp_path)
        with pytest.raises(ValueError, match="names shard 0"):
            store.write_checkpoint(1, self.PAYLOAD)
        assert not (tmp_path / JOURNAL_NAME).exists()


# -- SIGKILL / resume (subprocess) -------------------------------------------------


def _batch_cli(args, *, fault=None, timeout=600):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.pop("REPRO_BATCH_FAULT", None)
    if fault:
        env["REPRO_BATCH_FAULT"] = fault
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env, cwd=REPO, capture_output=True, text=True, timeout=timeout)


@pytest.mark.slow
class TestKillResume:
    """SIGKILL at three distinct fault points, then resume bit-identically."""

    def test_kill_resume_bit_identical(self, tmp_path, mini_bundle_dir):
        job = tmp_path / "job"
        ref_job = tmp_path / "ref"
        cache = tmp_path / "cache"
        base = ["--model-dir", mini_bundle_dir, "--demo-corpus", "6",
                "--shard-size", "2", "--max-retries", "3"]

        # uninterrupted reference run (its own job dir, shared cache is
        # fine: cached rows are bit-identical by construction)
        ref = _batch_cli(["batch", "run", "--job-dir", str(ref_job),
                          "--cache-dir", str(cache), *base])
        assert ref.returncode == 0, ref.stderr

        faults = ["kill:shard=0:point=pre-commit",
                  "torn:shard=1:point=torn-commit",
                  "kill:shard=2:point=post-commit"]
        first = _batch_cli(["batch", "run", "--job-dir", str(job),
                            "--cache-dir", str(cache), *base],
                           fault=faults[0])
        assert first.returncode == -signal.SIGKILL
        for fault in faults[1:]:
            killed = _batch_cli(["batch", "resume", "--job-dir", str(job)],
                                fault=fault)
            assert killed.returncode == -signal.SIGKILL, killed.stderr
        final = _batch_cli(["batch", "resume", "--job-dir", str(job)])
        assert final.returncode == 0, final.stderr

        results = json.loads((job / "results.json").read_text())
        reference = json.loads((ref_job / "results.json").read_text())
        # bit-identical: same variables, same types, same float64 scores
        assert results["predictions"] == reference["predictions"]
        assert results["shards"]["quarantined"] == []
        # the work-losing interruptions (pre-commit kill on shard 0,
        # torn commit on shard 1) are enumerated in the merged report;
        # the post-commit kill lost nothing (its checkpoint committed)
        interrupted = [r for r in results["failures"]["records"]
                       if "died without committing" in r["message"]]
        assert len(interrupted) == 2
        # the torn checkpoint was detected as partial, not trusted
        status = json.loads(
            _batch_cli(["batch", "status", "--job-dir", str(job),
                        "--json"]).stdout)
        assert status["complete"]
        assert status["shards"]["committed"] == 3
