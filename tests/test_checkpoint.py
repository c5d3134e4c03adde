"""Tests for repro.checkpoint — codecs, snapshots, stores, plans.

The subsystem's contract is *resumed == fresh is bit-identical*; the
scenario-level oracles live in ``test_api_equivalence.py``. This module
tests the mechanics underneath: every registered codec round-trips its
object exactly, snapshots refuse corruption and config skew instead of
guessing, stores order and prune deterministically, and plans emit and
suspend on the promised boundaries. The rng round-trip is
property-tested: restoring a mid-stream generator state must reproduce
the identical downstream draw sequence under the ``spawn_rngs`` prefix
scheme every seeded component relies on.
"""

import io
import random
import struct
import zipfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.checkpoint import (
    CHECKPOINTS,
    CheckpointError,
    CheckpointPause,
    CheckpointPlan,
    SnapshotStore,
    capture_state,
    content_fingerprint,
    raw_fragment,
    read_manifest,
    read_snapshot,
    restore_state,
    write_snapshot,
)
from repro.exceptions import ValidationError
from repro.federation import CommLedger
from repro.serving import QueryLedger
from repro.serving.cache import ResponseCache
from repro.utils.random import spawn_rngs


class TestCodecs:
    def test_registry_covers_every_stateful_layer(self):
        """Serving, federation, optimizer and rng codecs register."""
        names = CHECKPOINTS.names()
        for kind in (
            "rng",
            "serving/ledger",
            "serving/cache",
            "federation/ledger",
            "optimizer/sgd",
            "optimizer/adam",
        ):
            assert kind in names

    def test_query_ledger_roundtrip(self):
        ledger = QueryLedger(20, consumer_budgets={"grna": 5})
        ledger.charge(3, "grna")
        ledger.charge(4, "esa")
        ledger.record_cache_hits(2, "esa")
        ledger.record_evictions(1, "esa")
        fragment = capture_state(ledger)
        assert fragment["kind"] == "serving/ledger"
        restored = QueryLedger()
        restore_state(restored, fragment)
        assert restored.as_dict() == ledger.as_dict()
        assert restored.budget == 20
        assert restored.consumer_budgets == {"grna": 5}

    def test_captured_ledger_state_is_isolated(self):
        """Mutating the live object after capture cannot taint the fragment."""
        ledger = QueryLedger()
        ledger.charge(1, "a")
        fragment = capture_state(ledger)
        ledger.charge(10, "a")
        restored = QueryLedger()
        restore_state(restored, fragment)
        assert restored.queries_used == 1

    def test_response_cache_roundtrip_preserves_lru_order(self):
        cache = ResponseCache(max_entries=2)
        cache.put("a", np.arange(3.0))
        cache.put("b", np.arange(3.0) + 1)
        cache.get("a")  # refresh: b is now the LRU victim
        fragment = capture_state(cache)
        restored = ResponseCache()
        restore_state(restored, fragment)
        assert restored.max_entries == 2
        assert np.array_equal(restored.get("a"), cache.get("a"))
        restored.put("c", np.zeros(3))
        assert "b" not in restored and "a" in restored

    def test_comm_ledger_roundtrip(self):
        ledger = CommLedger(byte_budget=1000)
        ledger.begin_round()
        ledger.charge(0, 1, 64)
        ledger.charge(1, 0, 128)
        fragment = capture_state(ledger)
        restored = CommLedger()
        restore_state(restored, fragment)
        assert restored.as_dict() == ledger.as_dict()
        assert restored.remaining_bytes() == ledger.remaining_bytes()

    def test_unknown_object_raises_listing_codecs(self):
        with pytest.raises(CheckpointError, match="no checkpoint codec"):
            capture_state(object())

    def test_exact_type_match_refuses_subclasses(self):
        """A subclass with extra state must not reuse the parent codec."""

        class AuditingLedger(QueryLedger):
            pass

        with pytest.raises(CheckpointError):
            capture_state(AuditingLedger())

    def test_restore_refuses_mismatched_kind(self):
        fragment = capture_state(QueryLedger())
        with pytest.raises(CheckpointError, match="targets"):
            restore_state(CommLedger(), fragment)

    def test_raw_fragments_are_data_not_objects(self):
        fragment = raw_fragment(
            meta={"cursor": 7}, arrays={"rows": np.ones(2)}
        )
        assert fragment["kind"] == "raw"
        with pytest.raises(CheckpointError, match="loop-local"):
            restore_state(QueryLedger(), fragment)


class TestRngRoundTrip:
    """bit_generator.state survives the snapshot under spawn_rngs."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        n_streams=st.integers(1, 5),
        warmup=st.integers(0, 64),
        draws=st.integers(1, 32),
    )
    def test_restored_stream_reproduces_downstream_draws(
        self, seed, n_streams, warmup, draws
    ):
        """Capture mid-stream, restore onto a fresh prefix-spawned child.

        ``spawn_rngs`` is prefix-stable, so a resumed run re-derives the
        *same* child generators from the seed schedule and then fast-
        forwards them from the snapshot; the downstream draws must equal
        the uninterrupted stream's exactly.
        """
        reference = spawn_rngs(seed, n_streams)[-1]
        reference.random(warmup)
        fragment = capture_state(reference)
        expected = reference.random(draws)

        # A fresh process re-spawns the child (prefix-stable, so asking
        # for more streams changes nothing), then restores the state.
        resumed = spawn_rngs(seed, n_streams + 2)[n_streams - 1]
        restore_state(resumed, fragment)
        assert np.array_equal(resumed.random(draws), expected)

    def test_fragment_survives_disk_roundtrip(self, tmp_path):
        rng = spawn_rngs(3, 2)[0]
        rng.random(5)
        path = write_snapshot(
            tmp_path / "s.npz",
            step=0,
            fragments={"rng": capture_state(rng)},
            fingerprint="fp",
        )
        expected = rng.random(4)
        resumed = spawn_rngs(3, 2)[0]
        read_snapshot(path).restore("rng", resumed)
        assert np.array_equal(resumed.random(4), expected)


class TestSnapshots:
    def _fragments(self):
        return {
            "rows": raw_fragment(
                meta={"cursor": 2}, arrays={"rows": np.arange(6.0).reshape(2, 3)}
            )
        }

    def test_write_read_roundtrip(self, tmp_path):
        path = write_snapshot(
            tmp_path / "s.npz",
            step=4,
            fragments=self._fragments(),
            fingerprint="fp",
            meta={"epoch": 4},
        )
        snap = read_snapshot(path, expect_fingerprint="fp")
        assert snap.step == 4
        assert snap.meta == {"epoch": 4}
        fragment = snap.fragment("rows")
        assert fragment["meta"]["cursor"] == 2
        assert np.array_equal(
            fragment["arrays"]["rows"], np.arange(6.0).reshape(2, 3)
        )

    def test_stale_fingerprint_refused(self, tmp_path):
        path = write_snapshot(
            tmp_path / "s.npz",
            step=0,
            fragments=self._fragments(),
            fingerprint="old-config",
        )
        with pytest.raises(CheckpointError, match="fingerprint"):
            read_snapshot(path, expect_fingerprint="new-config")

    def test_corrupt_file_refused(self, tmp_path):
        path = write_snapshot(
            tmp_path / "s.npz",
            step=0,
            fragments=self._fragments(),
            fingerprint="fp",
        )
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CheckpointError):
            read_snapshot(path)

    def test_no_partial_file_left_behind(self, tmp_path):
        """Atomic write: the target name only ever holds a full snapshot."""
        write_snapshot(
            tmp_path / "s.npz",
            step=0,
            fragments=self._fragments(),
            fingerprint="fp",
        )
        assert [p.name for p in tmp_path.iterdir()] == ["s.npz"]

    def test_manifest_read_is_cheap_and_complete(self, tmp_path):
        path = write_snapshot(
            tmp_path / "s.npz",
            step=1,
            fragments=self._fragments(),
            fingerprint="fp",
        )
        manifest = read_manifest(path)
        assert manifest["step"] == 1
        assert manifest["fingerprint"] == "fp"
        assert [f["name"] for f in manifest["fragments"]] == ["rows"]

    def test_content_fingerprint_is_order_and_type_canonical(self):
        assert content_fingerprint({"a": 1, "b": (2, 3)}) == content_fingerprint(
            {"b": [2, 3], "a": 1}
        )
        assert content_fingerprint({"a": 1}) != content_fingerprint({"a": 2})


class TestSnapshotCorruption:
    """Decoder fuzz: a damaged snapshot raises CheckpointError or decodes
    to the identical snapshot, never anything else.

    Every bit of the zip structure is flipped (each member's local
    header, the central directory and the end record), a seeded sample
    of the other bits (member bytes, CRC-protected), and the archive is
    cut at every length.
    """

    def _snapshot(self, tmp_path):
        path = write_snapshot(
            tmp_path / "s.npz",
            step=3,
            fragments={
                "rows": raw_fragment(
                    meta={"cursor": 2}, arrays={"rows": np.arange(6.0).reshape(2, 3)}
                )
            },
            fingerprint="fp",
            meta={"epoch": 4},
        )
        return path.read_bytes()

    @staticmethod
    def _structure(raw: bytes) -> list[int]:
        """Byte offsets of the local headers, central directory and end record."""
        with zipfile.ZipFile(io.BytesIO(raw)) as archive:
            offsets = []
            for info in archive.infolist():
                start = info.header_offset
                name_len, extra_len = struct.unpack("<HH", raw[start + 26 : start + 30])
                offsets += range(start, start + 30 + name_len + extra_len)
            offsets += range(archive.start_dir, len(raw))
        return offsets

    @staticmethod
    def _decode(path):
        """``(step, fingerprint, meta, fragments as bytes)``, or None on CheckpointError."""
        try:
            snap = read_snapshot(path)
        except CheckpointError:
            return None
        fragments = {
            name: (f["kind"], f["meta"], {k: a.tobytes() for k, a in f["arrays"].items()})
            for name, f in snap.fragments.items()
        }
        return snap.step, snap.fingerprint, snap.meta, fragments

    def test_flips_and_truncations_raise_or_decode_identically(self, tmp_path):
        raw = self._snapshot(tmp_path)
        clean = self._decode(tmp_path / "s.npz")
        structure = self._structure(raw)
        others = sorted(set(range(len(raw))) - set(structure))
        bits = [8 * p + b for p in structure for b in range(8)]
        bits += random.Random(0).sample([8 * p + b for p in others for b in range(8)], 128)

        damaged_path = tmp_path / "damaged.npz"
        decoded = 0
        for bit in bits:
            damaged = bytearray(raw)
            damaged[bit // 8] ^= 1 << (bit % 8)
            damaged_path.write_bytes(bytes(damaged))
            result = self._decode(damaged_path)
            assert result in (None, clean), f"bit {bit} decoded to a different snapshot"
            decoded += result is not None
        for length in range(len(raw)):
            damaged_path.write_bytes(raw[:length])
            assert self._decode(damaged_path) is None, f"truncation to {length} decoded"
        assert len(structure) > 200
        # Flips in fields the reader ignores (timestamps, the local CRC
        # copy) decode, which shows the sweep reaches a full decode.
        assert 0 < decoded < len(bits)

    @pytest.mark.parametrize(
        ("offset", "mask", "match"),
        [
            (4, 0x40, "zip file version"),  # version needed to extract
            (8, 0x01, "compression method"),
            (6, 0x01, "encrypted"),  # general purpose flag bit 0
        ],
    )
    def test_unsupported_zip_features_are_corrupt(self, tmp_path, offset, mask, match):
        """zipfile's NotImplementedError/RuntimeError surface as CheckpointError."""
        raw = bytearray(self._snapshot(tmp_path))
        with zipfile.ZipFile(io.BytesIO(bytes(raw))) as archive:
            central = archive.start_dir
        # Same field in the first central-directory entry (2 bytes later:
        # its record starts with "version made by").
        raw[central + offset + 2] ^= mask
        path = tmp_path / "damaged.npz"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=match):
            read_manifest(path)


class TestSnapshotStore:
    def _save(self, store, step):
        store.save(
            step,
            {"rows": raw_fragment(meta={"step": step})},
            fingerprint="fp",
        )

    def test_steps_sorted_and_latest_wins(self, tmp_path):
        store = SnapshotStore(tmp_path)
        for step in (3, 1, 2):
            self._save(store, step)
        assert store.steps() == [1, 2, 3]
        latest = store.load_latest(expect_fingerprint="fp")
        assert latest is not None and latest.step == 3

    def test_empty_store_resumes_from_nothing(self, tmp_path):
        assert SnapshotStore(tmp_path / "missing").load_latest() is None

    def test_prune_keeps_newest(self, tmp_path):
        store = SnapshotStore(tmp_path)
        for step in range(5):
            self._save(store, step)
        removed = store.prune(2)
        assert store.steps() == [3, 4]
        assert [p.name for p in removed] == [
            "step-00000000.ckpt.npz",
            "step-00000001.ckpt.npz",
            "step-00000002.ckpt.npz",
        ]
        with pytest.raises(ValueError):
            store.prune(0)

    def test_inspect_reports_corruption_in_band(self, tmp_path):
        store = SnapshotStore(tmp_path)
        self._save(store, 0)
        self._save(store, 1)
        store.path_for(0).write_bytes(b"not a snapshot")
        reports = store.inspect()
        assert [r["step"] for r in reports] == [0, 1]
        assert "error" in reports[0]
        assert reports[1]["fingerprint"] == "fp"


class TestCheckpointPlan:
    def test_cadence_and_callable_fragments(self, tmp_path):
        calls = []

        def build():
            calls.append(True)
            return {"rows": raw_fragment()}

        plan = CheckpointPlan(tmp_path, every=3)
        plan.bind_fingerprint("fp")
        emitted = [plan.maybe_emit(step, build) for step in range(9)]
        assert emitted == [False, False, True] * 3
        assert len(calls) == 3  # capture work skipped on non-emitting steps
        assert plan.store.steps() == [2, 5, 8]

    def test_halt_after_writes_then_pauses(self, tmp_path):
        plan = CheckpointPlan(tmp_path, every=10, halt_after=4)
        plan.bind_fingerprint("fp")
        for step in range(3):
            plan.maybe_emit(step, {"rows": raw_fragment()}, meta={"step": step})
        with pytest.raises(CheckpointPause):
            plan.maybe_emit(3, {"rows": raw_fragment()}, meta={"step": 3})
        # The halting snapshot is durable despite the off-cadence step.
        latest = plan.latest()
        assert latest is not None and latest.meta == {"step": 3}

    def test_keep_prunes_as_it_goes(self, tmp_path):
        plan = CheckpointPlan(tmp_path, keep=2)
        plan.bind_fingerprint("fp")
        for step in range(5):
            plan.maybe_emit(step, {"rows": raw_fragment()})
        assert plan.store.steps() == [3, 4]

    def test_pinned_fingerprint_is_authoritative(self, tmp_path):
        plan = CheckpointPlan(tmp_path, fingerprint="pinned")
        assert plan.bind_fingerprint("loop-computed") == "pinned"
        plan.maybe_emit(0, {"rows": raw_fragment()})
        stale = CheckpointPlan(tmp_path, fingerprint="other-config")
        with pytest.raises(CheckpointError, match="fingerprint"):
            stale.latest()

    def test_invalid_policy_rejected(self, tmp_path):
        for kwargs in ({"every": 0}, {"keep": 0}, {"halt_after": 0}):
            with pytest.raises(ValidationError):
                CheckpointPlan(tmp_path, **kwargs)
