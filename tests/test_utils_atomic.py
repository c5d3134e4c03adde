"""Tests for the crash-safe whole-file rewrite."""

import pytest

from repro.utils.atomic import atomic_rewrite


def test_replaces_contents_and_leaves_no_tmp(tmp_path):
    path = tmp_path / "store.jsonl"
    path.write_bytes(b"old\n")
    with atomic_rewrite(path) as fh:
        fh.write(b"new\n")
    assert path.read_bytes() == b"new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["store.jsonl"]


def test_failed_body_leaves_the_original(tmp_path):
    path = tmp_path / "store.jsonl"
    path.write_bytes(b"old\n")
    with pytest.raises(RuntimeError):
        with atomic_rewrite(str(path)) as fh:
            fh.write(b"half")
            raise RuntimeError("killed mid-write")
    assert path.read_bytes() == b"old\n"

