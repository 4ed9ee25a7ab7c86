"""ModelBundle persistence: round trips, integrity, retired fields, atomicity."""

from __future__ import annotations

import json
import logging
from pathlib import Path

import numpy as np
import pytest

from repro.core import artifacts
from repro.core.artifacts import ModelBundle
from repro.core.config import RETIRED_FIELDS, CatiConfig
from repro.core.errors import (
    ArtifactError,
    BundleIntegrityError,
    BundleSchemaError,
    CatiError,
    ConfigMismatchError,
)
from repro.core.pipeline import Cati

TOL = 1e-6


@pytest.fixture()
def bundle_dir(mini_cati, tmp_path):
    directory = tmp_path / "model"
    mini_cati.save(str(directory))
    return directory


@pytest.fixture()
def test_windows(small_corpus):
    return [sample.tokens for sample in small_corpus.test.samples[:32]]


def _flip_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


class TestRoundTrip:
    def test_engine_output_equivalence(self, mini_cati, bundle_dir, test_windows):
        loaded = Cati.load(str(bundle_dir), warm_start=True)
        reference = mini_cati.predict_vuc_proba(test_windows)
        assert np.abs(loaded.engine.leaf_proba(test_windows) - reference).max() <= TOL
        assert np.abs(loaded.predict_vuc_proba(test_windows) - reference).max() <= TOL

    def test_saved_config_restored_verbatim(self, mini_cati, bundle_dir):
        loaded = Cati.load(str(bundle_dir))
        assert loaded.config.to_dict() == mini_cati.config.to_dict()

    def test_warm_start_compiles_kernels(self, bundle_dir):
        cold = Cati.load(str(bundle_dir))
        assert cold._engine is None
        warm = Cati.load(str(bundle_dir), warm_start=True)
        assert warm._engine is not None
        assert warm._engine._ops is not None

    def test_matching_explicit_config_is_kept(self, bundle_dir, mini_config):
        import dataclasses

        runtime = dataclasses.replace(mini_config, confidence_threshold=0.75)
        loaded = Cati.load(str(bundle_dir), runtime)
        assert loaded.config.confidence_threshold == 0.75

    def test_provenance_travels(self, mini_cati, bundle_dir, small_corpus):
        assert mini_cati.provenance["n_train_vucs"] == len(small_corpus.train)
        loaded = Cati.load(str(bundle_dir))
        assert loaded.provenance == mini_cati.provenance


class TestManifest:
    def test_manifest_fields(self, bundle_dir, mini_cati):
        manifest = ModelBundle.open(str(bundle_dir)).manifest
        assert manifest["format"] == artifacts.BUNDLE_FORMAT
        assert manifest["schema_version"] == artifacts.SCHEMA_VERSION
        assert manifest["vocab_size"] == len(mini_cati.embedding.vocab)
        assert manifest["config"]["fc_width"] == mini_cati.config.fc_width
        assert set(manifest["provenance"]) == {
            "trained_at", "n_train_vucs", "vocab_size", "repro_version"}
        names = set(manifest["files"])
        assert artifacts.EMBEDDING_FILE in names
        assert {n for n in names if n.startswith("stages/")} == {
            f"stages/{s}.npz" for s in (
                "Stage1", "Stage2-1", "Stage2-2", "Stage3-1", "Stage3-2", "Stage3-3")}
        for entry in manifest["files"].values():
            assert len(entry["sha256"]) == 64
            assert entry["bytes"] > 0
            assert entry["tensors"]

    def test_verify_clean(self, bundle_dir):
        bundle = ModelBundle.open(str(bundle_dir))
        assert bundle.problems() == []
        bundle.verify()  # must not raise

    def test_config_round_trips_through_dict(self, mini_config):
        clone = CatiConfig.from_dict(mini_config.to_dict())
        assert clone.to_dict() == mini_config.to_dict()
        assert clone.conv_channels == mini_config.conv_channels

    def test_config_from_dict_rejects_unknown_fields(self):
        data = CatiConfig().to_dict()
        data["from_the_future"] = 1
        with pytest.raises(ValueError, match="from_the_future"):
            CatiConfig.from_dict(data)


def _inject_config(bundle_dir: Path, **fields) -> None:
    """Add fields to a saved manifest's config, as an older writer would."""
    path = bundle_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"].update(fields)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


#: One value per retired CatiConfig field, as the manifests and batch
#: job.json files of its day wrote it.
OLD_FIELDS = {"n_workers": 4, "job_timeout": 5.0,
              "quantize_embeddings": True, "tool_timeout": 30.0,
              "tool_retries": 1, "posterior_enabled": True,
              "max_batch": 1024, "dedup_cache_size": 65536,
              "metrics_enabled": True, "serve_max_batch": 4096,
              "serve_max_delay_ms": 5.0, "serve_workers": 0,
              "posterior_min_accesses": 2, "session_ttl_s": 600.0,
              "session_max_bytes": 268435456}


class TestRetiredFields:
    """Manifests written before a CatiConfig field was retired still load."""

    OLD_FIELDS = OLD_FIELDS

    def test_old_manifest_loads_unchanged(self, bundle_dir, test_windows,
                                          caplog):
        assert set(self.OLD_FIELDS) == set(RETIRED_FIELDS)
        clean = Cati.load(str(bundle_dir))
        key = ModelBundle.open(str(bundle_dir)).content_key()
        _inject_config(bundle_dir, **self.OLD_FIELDS)
        with caplog.at_level(logging.INFO, logger="repro.core.config"):
            old = Cati.load(str(bundle_dir))
        notes = [record.getMessage() for record in caplog.records
                 if record.name == "repro.core.config"]
        assert len(notes) == 1
        assert all(name in notes[0] for name in RETIRED_FIELDS)
        assert ModelBundle.open(str(bundle_dir)).content_key() == key
        assert old.config.to_dict() == clean.config.to_dict()
        assert np.array_equal(old.engine.leaf_proba(test_windows),
                              clean.engine.leaf_proba(test_windows))

    def test_other_unknown_field_still_fails(self, bundle_dir):
        _inject_config(bundle_dir, n_workers=4, n_shards=2)
        with pytest.raises(BundleSchemaError, match="n_shards"):
            Cati.load(str(bundle_dir))


class TestConfigConflict:
    def test_structural_mismatch_raises_naming_fields(self, bundle_dir):
        conflicting = CatiConfig(fc_width=128, window=7)
        with pytest.raises(ConfigMismatchError) as excinfo:
            Cati.load(str(bundle_dir), conflicting)
        error = excinfo.value
        assert set(error.mismatches) == {"fc_width", "window"}
        assert "fc_width" in str(error) and "window" in str(error)
        assert isinstance(error, CatiError)

    def test_conv_channels_mismatch(self, bundle_dir):
        with pytest.raises(ConfigMismatchError, match="conv_channels"):
            Cati.load(str(bundle_dir), CatiConfig(conv_channels=(16, 32)))


class TestIntegrity:
    @pytest.mark.parametrize("payload", ["word2vec.npz", "stages/Stage2-2.npz"])
    def test_flipped_byte_rejected(self, bundle_dir, payload):
        _flip_byte(bundle_dir / payload)
        with pytest.raises(BundleIntegrityError, match="checksum"):
            Cati.load(str(bundle_dir))
        assert any(payload in problem
                   for problem in ModelBundle.open(str(bundle_dir)).problems())

    def test_missing_payload_rejected(self, bundle_dir):
        (bundle_dir / "stages" / "Stage1.npz").unlink()
        with pytest.raises(BundleIntegrityError, match="missing"):
            Cati.load(str(bundle_dir))

    def test_corrupt_manifest_is_schema_error(self, bundle_dir):
        (bundle_dir / "manifest.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(BundleSchemaError):
            ModelBundle.open(str(bundle_dir))

    def test_future_schema_version_rejected(self, bundle_dir):
        path = bundle_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["schema_version"] = artifacts.SCHEMA_VERSION + 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(BundleSchemaError, match="schema version"):
            ModelBundle.open(str(bundle_dir))

    def test_foreign_manifest_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"format": "something-else"}')
        with pytest.raises(BundleSchemaError):
            ModelBundle.open(str(tmp_path))

    def test_not_a_model_directory(self, bundle_dir, tmp_path):
        with pytest.raises(BundleSchemaError, match="no manifest.json"):
            Cati.load(str(tmp_path / "nope"))
        # Payload files without a manifest are not a model either.
        (bundle_dir / "manifest.json").unlink()
        with pytest.raises(BundleSchemaError, match="no manifest.json"):
            Cati.load(str(bundle_dir))


class TestAtomicity:
    def test_crashed_save_leaves_no_bundle(self, mini_cati, tmp_path, monkeypatch):
        target = tmp_path / "model"
        calls = {"n": 0}
        real = np.savez_compressed

        def explode(path, **arrays):
            calls["n"] += 1
            if calls["n"] == 3:
                raise OSError("disk on fire")
            return real(path, **arrays)

        monkeypatch.setattr(artifacts.np, "savez_compressed", explode)
        with pytest.raises(ArtifactError, match="disk on fire"):
            mini_cati.save(str(target))
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # staging dir cleaned up
        with pytest.raises(ArtifactError):
            ModelBundle.open(str(target))

    def test_crashed_overwrite_keeps_old_bundle(self, mini_cati, bundle_dir,
                                                test_windows, monkeypatch):
        before = mini_cati.predict_vuc_proba(test_windows)

        def explode(path, **arrays):
            raise OSError("disk on fire")

        monkeypatch.setattr(artifacts.np, "savez_compressed", explode)
        with pytest.raises(ArtifactError):
            mini_cati.save(str(bundle_dir))
        monkeypatch.undo()
        survivor = ModelBundle.open(str(bundle_dir))
        survivor.verify()
        loaded = Cati.load(str(bundle_dir))
        assert np.abs(loaded.predict_vuc_proba(test_windows) - before).max() <= TOL


class TestExperimentCache:
    """get_context's cache acceptance goes through _load_cached_model."""

    def test_verified_bundle_accepted(self, bundle_dir, mini_config):
        from repro.experiments.common import _load_cached_model

        cati = _load_cached_model(bundle_dir, mini_config)
        assert cati is not None
        assert cati._engine is not None  # warm-started

    def test_tampered_bundle_triggers_retrain(self, bundle_dir, mini_config, capsys):
        from repro.experiments.common import _load_cached_model

        _flip_byte(bundle_dir / "word2vec.npz")
        assert _load_cached_model(bundle_dir, mini_config) is None
        assert "retraining" in capsys.readouterr().out

    def test_half_written_cache_triggers_retrain(self, bundle_dir, mini_config):
        from repro.experiments.common import _load_cached_model

        (bundle_dir / "manifest.json").write_text("", encoding="utf-8")
        assert _load_cached_model(bundle_dir, mini_config) is None

    def test_missing_cache_triggers_retrain(self, tmp_path, mini_config):
        from repro.experiments.common import _load_cached_model

        assert _load_cached_model(tmp_path / "absent", mini_config) is None

    def test_cache_without_manifest_retrains(self, bundle_dir, mini_config):
        from repro.experiments.common import _load_cached_model

        (bundle_dir / "manifest.json").unlink()
        assert _load_cached_model(bundle_dir, mini_config) is None


class TestRequireTrained:
    def test_save_untrained_raises_runtime_error(self, mini_config, tmp_path):
        # Survives `python -O` (the old guard was a bare assert).
        with pytest.raises(RuntimeError, match="not trained"):
            Cati(mini_config).save(str(tmp_path / "nope"))


class TestCli:
    def test_inspect_ok(self, bundle_dir, capsys):
        from repro.cli import main

        assert main(["model", "inspect", str(bundle_dir)]) == 0
        out = capsys.readouterr().out
        assert "integrity: OK" in out
        assert "manifest" not in out  # human format, not JSON

    def test_inspect_json(self, bundle_dir, capsys):
        from repro.cli import main

        assert main(["model", "inspect", str(bundle_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problems"] == []
        assert payload["manifest"]["schema_version"] == artifacts.SCHEMA_VERSION

    def test_inspect_tampered_fails(self, bundle_dir, capsys):
        from repro.cli import main

        _flip_byte(bundle_dir / "stages" / "Stage1.npz")
        assert main(["model", "inspect", str(bundle_dir)]) == 1
        assert "integrity: FAILED" in capsys.readouterr().out

    def test_inspect_without_manifest_fails(self, bundle_dir, capsys):
        from repro.cli import main

        (bundle_dir / "manifest.json").unlink()
        assert main(["model", "inspect", str(bundle_dir)]) == 2
        err = capsys.readouterr().err
        assert "no manifest.json" in err
        assert "migrate" not in err


class TestStateDicts:
    def test_sequential_load_state_rejects_bad_shapes(self, mini_cati):
        model = mini_cati.classifier.stages[
            next(iter(mini_cati.classifier.stages))].model
        state = model.get_state()
        key = next(iter(state))
        bad = dict(state)
        bad[key] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="shape"):
            model.load_state(bad)
        missing = dict(state)
        del missing[key]
        with pytest.raises(ValueError, match="lacks"):
            model.load_state(missing)

    def test_word2vec_state_round_trip(self, mini_cati):
        from repro.embedding.word2vec import Word2Vec

        clone = Word2Vec.from_state(mini_cati.embedding.get_state())
        assert np.array_equal(clone.vectors, mini_cati.embedding.vectors)
        assert clone.vocab.token_to_id == mini_cati.embedding.vocab.token_to_id

    def test_classifier_state_round_trip(self, mini_cati, mini_config, test_windows):
        from repro.core.classifier import MultiStageClassifier

        clone = MultiStageClassifier(mini_config)
        clone.load_state(mini_cati.classifier.get_state(),
                         input_length=mini_config.vuc_length,
                         input_channels=mini_config.instruction_dim)
        x = mini_cati.encode(test_windows)
        assert np.abs(
            clone.leaf_proba(x) - mini_cati.classifier.leaf_proba(x)).max() <= TOL
