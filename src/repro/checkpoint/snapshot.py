"""Snapshot files: atomic, versioned, fingerprinted, self-verifying.

One snapshot is one ``.npz`` archive. A reserved ``__manifest__`` entry
(UTF-8 JSON as a uint8 array — the :mod:`repro.models.serialization`
idiom) records the format version, the monotone step the snapshot was
taken at, a caller-supplied *content fingerprint* binding the snapshot
to its run configuration, free-form loop metadata, and one entry per
fragment mapping array names to flat archive slots with SHA-256
digests.

Writes are crash-safe (:func:`~repro.utils.atomic.atomic_rewrite`): a
reader never observes a half-written snapshot under the final name.
Reads are paranoid: truncated archives, unknown format versions and digest
mismatches raise :class:`~repro.exceptions.CheckpointError` (corrupt),
as does a fingerprint that does not match the resuming run's (stale).
Refusal over guesswork — resuming from the wrong snapshot would
silently break the resumed-equals-fresh contract.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.checkpoint.codec import restore_state
from repro.exceptions import CheckpointError
from repro.utils.atomic import atomic_rewrite

FORMAT_VERSION = 1
MANIFEST_KEY = "__manifest__"

#: What a damaged archive can raise while it is opened and read. Beside
#: the obvious ones, :mod:`zipfile` raises ``NotImplementedError`` for a
#: header naming an unsupported zip version or compression method, and a
#: bare ``RuntimeError`` for a member flagged as encrypted; both mean the
#: bytes are corrupt (``NotImplementedError`` is a ``RuntimeError``).
_DECODE_ERRORS = (OSError, KeyError, ValueError, RuntimeError, zipfile.BadZipFile, EOFError)


def _jsonable(value: Any) -> Any:
    """JSON fallback for numpy scalars and arrays inside metadata."""
    if isinstance(value, np.ndarray):
        return {
            "__ndarray__": _digest(value),
            "dtype": value.dtype.str,
            "shape": list(value.shape),
        }
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON-serializable")


def _digest(arr: np.ndarray) -> str:
    """SHA-256 over dtype, shape and raw bytes of ``arr``."""
    contiguous = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(contiguous.dtype.str.encode())
    h.update(repr(contiguous.shape).encode())
    h.update(contiguous.tobytes())
    return h.hexdigest()


def content_fingerprint(payload: Any) -> str:
    """Deterministic short fingerprint of a JSON-able configuration.

    Arrays hash by content (dtype + shape + bytes), so a traffic trace
    or dataset slice fingerprints stably without embedding the data.
    Used to bind snapshots to the exact run that may resume from them.
    """
    text = json.dumps(payload, sort_keys=True, default=_jsonable)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Snapshot:
    """One decoded snapshot: step, fingerprint, loop meta, fragments."""

    step: int
    fingerprint: str
    meta: dict[str, Any] = field(default_factory=dict)
    fragments: dict[str, dict[str, Any]] = field(default_factory=dict)

    def fragment(self, name: str) -> dict[str, Any]:
        """Return the named fragment, refusing loudly when absent."""
        try:
            return self.fragments[name]
        except KeyError:
            raise CheckpointError(
                f"snapshot at step {self.step} has no fragment {name!r}; "
                f"present: {sorted(self.fragments)}"
            ) from None

    def restore(self, name: str, obj: Any) -> None:
        """Reinstate the named fragment onto ``obj`` via its codec."""
        restore_state(obj, self.fragment(name))


def write_snapshot(
    path: str | os.PathLike[str],
    *,
    step: int,
    fragments: dict[str, dict[str, Any]],
    fingerprint: str,
    meta: dict[str, Any] | None = None,
) -> Path:
    """Atomically write ``fragments`` as one snapshot archive at ``path``."""
    target = Path(path)
    manifest_fragments = []
    flat_arrays: dict[str, np.ndarray] = {}
    for index, (name, fragment) in enumerate(fragments.items()):
        slots: dict[str, dict[str, Any]] = {}
        for key, arr in fragment.get("arrays", {}).items():
            array = np.ascontiguousarray(np.asarray(arr))
            slot = f"{index}:{key}"
            flat_arrays[slot] = array
            slots[key] = {"slot": slot, "sha256": _digest(array)}
        manifest_fragments.append(
            {
                "name": name,
                "kind": fragment["kind"],
                "meta": fragment.get("meta", {}),
                "arrays": slots,
            }
        )
    manifest = {
        "format_version": FORMAT_VERSION,
        "step": int(step),
        "fingerprint": fingerprint,
        "meta": dict(meta or {}),
        "fragments": manifest_fragments,
    }
    manifest_arr = np.frombuffer(
        json.dumps(manifest, default=_jsonable).encode(), dtype=np.uint8
    )
    with atomic_rewrite(target) as fh:
        np.savez(fh, **{MANIFEST_KEY: manifest_arr}, **flat_arrays)
    return target


def read_manifest(path: str | os.PathLike[str]) -> dict[str, Any]:
    """Decode and validate only the manifest of a snapshot archive.

    Cheap relative to :func:`read_snapshot` — ``.npz`` members load
    lazily, so inspection tooling can list many snapshots without
    paying for their arrays.
    """
    target = Path(path)
    try:
        # Open the file ourselves: np.load on a corrupt archive raises
        # before its context manager exists, leaking the handle it opened.
        with open(target, "rb") as fh:
            with np.load(fh, allow_pickle=False) as archive:
                raw = bytes(archive[MANIFEST_KEY])
        manifest = json.loads(raw.decode())
    except _DECODE_ERRORS as exc:
        raise CheckpointError(f"corrupt snapshot {target}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"corrupt snapshot {target}: manifest is not a dict")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"snapshot {target} has format_version {version!r}; this build "
            f"reads version {FORMAT_VERSION}"
        )
    return manifest


def read_snapshot(
    path: str | os.PathLike[str],
    *,
    expect_fingerprint: str | None = None,
) -> Snapshot:
    """Read, digest-verify and (optionally) fingerprint-check a snapshot."""
    target = Path(path)
    manifest = read_manifest(target)
    fingerprint = manifest.get("fingerprint", "")
    if expect_fingerprint is not None and fingerprint != expect_fingerprint:
        raise CheckpointError(
            f"stale snapshot {target}: fingerprint {fingerprint!r} does not "
            f"match the resuming run's {expect_fingerprint!r}; refusing to "
            "resume from state produced by a different configuration"
        )
    fragments: dict[str, dict[str, Any]] = {}
    try:
        with open(target, "rb") as fh, np.load(fh, allow_pickle=False) as archive:
            for entry in manifest["fragments"]:
                arrays: dict[str, np.ndarray] = {}
                for key, slot_info in entry["arrays"].items():
                    arr = archive[slot_info["slot"]]
                    if _digest(arr) != slot_info["sha256"]:
                        raise CheckpointError(
                            f"corrupt snapshot {target}: array "
                            f"{entry['name']}/{key} fails its digest"
                        )
                    arrays[key] = arr
                fragments[entry["name"]] = {
                    "kind": entry["kind"],
                    "meta": entry.get("meta", {}),
                    "arrays": arrays,
                }
    except CheckpointError:
        raise
    except _DECODE_ERRORS as exc:
        raise CheckpointError(f"corrupt snapshot {target}: {exc}") from exc
    return Snapshot(
        step=int(manifest["step"]),
        fingerprint=fingerprint,
        meta=dict(manifest.get("meta", {})),
        fragments=fragments,
    )
