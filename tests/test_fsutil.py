"""Crash-safe filesystem primitives (repro.core.fsutil)."""

from __future__ import annotations

import os

import pytest

from repro.core.fsutil import atomic_replace_dir, atomic_write


class TestAtomicWrite:
    def test_writes_bytes(self, tmp_path):
        target = tmp_path / "out.bin"
        atomic_write(target, b"\x00\x01payload")
        assert target.read_bytes() == b"\x00\x01payload"

    def test_writes_str_utf8(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write(target, "héllo")
        assert target.read_text(encoding="utf-8") == "héllo"

    def test_overwrites_existing(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write(target, "new")
        assert target.read_text() == "new"

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.txt"
        atomic_write(target, "deep")
        assert target.read_text() == "deep"

    def test_no_stray_temp_files(self, tmp_path):
        atomic_write(tmp_path / "out.txt", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failure_leaves_old_content(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"
        target.write_text("old")

        def boom(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="simulated"):
            atomic_write(target, "new")
        monkeypatch.undo()
        assert target.read_text() == "old"
        # the temp file was cleaned up, not leaked
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestAtomicReplaceDir:
    def test_promotes_fresh_target(self, tmp_path):
        staging = tmp_path / "staging"
        staging.mkdir()
        (staging / "f.txt").write_text("v1")
        target = tmp_path / "target"
        atomic_replace_dir(staging, target)
        assert (target / "f.txt").read_text() == "v1"
        assert not staging.exists()

    def test_replaces_existing_target(self, tmp_path):
        target = tmp_path / "target"
        target.mkdir()
        (target / "old.txt").write_text("old")
        staging = tmp_path / "staging"
        staging.mkdir()
        (staging / "new.txt").write_text("new")
        atomic_replace_dir(staging, target)
        assert (target / "new.txt").read_text() == "new"
        assert not (target / "old.txt").exists()
        # no .old remnant left behind
        assert sorted(p.name for p in tmp_path.iterdir()) == ["target"]
