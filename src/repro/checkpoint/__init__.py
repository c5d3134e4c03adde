"""Checkpoint/resume subsystem: suspend any long-running loop, resume bit-identically.

The contract that makes this subsystem trustworthy is *resumed == fresh
is bit-identical*: a run restored from a snapshot produces exactly the
bytes an uninterrupted run would have — same metrics, same arrays, same
ledger tallies — proven by the oracle tests in
``tests/test_api_equivalence.py``.

Four pieces compose:

- :mod:`~repro.checkpoint.codec` — the :data:`CHECKPOINTS` registry of
  :class:`StateCodec` classes turning live objects (ledgers, caches,
  optimizers, rng streams) into ``(meta, arrays)`` fragments and back;
- :mod:`~repro.checkpoint.snapshot` — one snapshot == one ``.npz`` with
  a versioned manifest, SHA-256 array digests, a content fingerprint
  binding it to its run configuration, and atomic write-then-rename;
  corrupt or stale snapshots are refused via
  :class:`~repro.exceptions.CheckpointError`;
- :mod:`~repro.checkpoint.store` — :class:`SnapshotStore`, a directory
  of ordered steps with ``load_latest``/``prune``/``inspect``;
- :mod:`~repro.checkpoint.plan` — :class:`CheckpointPlan`, the single
  ``checkpoint=`` knob loops accept: emission cadence, retention, and
  deliberate suspension via :class:`~repro.exceptions.CheckpointPause`.

Codecs self-register from the layer that owns the state (serving,
federation, resilience, telemetry, models), so this package sits at the
bottom of the layer DAG next to :mod:`repro.utils` and everything above
it may import it.
The ``repro-ckpt`` console script (``inspect``/``prune``/``resume``)
drives stores from the shell.
"""

from repro.checkpoint.codec import (
    CHECKPOINTS,
    StateCodec,
    capture_state,
    codec_for,
    raw_fragment,
    restore_state,
)
from repro.checkpoint.plan import CheckpointPlan
from repro.checkpoint.snapshot import (
    FORMAT_VERSION,
    Snapshot,
    content_fingerprint,
    read_manifest,
    read_snapshot,
    write_snapshot,
)
from repro.checkpoint.store import SNAPSHOT_SUFFIX, SnapshotStore
from repro.exceptions import CheckpointError, CheckpointPause

# Register the rng codec on package import; object-owning layers
# (serving, federation, models) register theirs on their own import.
from repro.checkpoint import rng as _rng  # noqa: F401

__all__ = [
    "CHECKPOINTS",
    "StateCodec",
    "capture_state",
    "restore_state",
    "codec_for",
    "raw_fragment",
    "CheckpointPlan",
    "Snapshot",
    "SnapshotStore",
    "SNAPSHOT_SUFFIX",
    "FORMAT_VERSION",
    "content_fingerprint",
    "read_manifest",
    "read_snapshot",
    "write_snapshot",
    "CheckpointError",
    "CheckpointPause",
]
