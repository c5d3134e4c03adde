"""State codecs: how live objects become snapshot fragments and back.

A *fragment* is the unit of checkpointed state: one plain dict

``{"kind": <codec key>, "meta": <JSON-serializable dict>,
"arrays": {<name>: np.ndarray, ...}}``

produced by :func:`capture_state` and consumed by
:func:`restore_state`. The split mirrors
:mod:`repro.models.serialization`: scalars, nested dicts and rng states
travel as JSON metadata; bulk numeric state travels as named arrays so
snapshots stay a single ``.npz`` file.

Codecs register in the string-keyed :data:`CHECKPOINTS` registry (the
repo's established Registry idiom) from the layer that *owns* the state
— serving registers the ledger/cache codecs, federation the comm-ledger
codec, resilience the runtime and breaker codecs, telemetry the tracer
codec, models the SGD/Adam optimizer codecs — so this module stays at
the bottom of the layer DAG and never imports upward. A registered
codec is the only way an object enters a snapshot; fitted models are
persisted by :func:`repro.models.save_model` instead. Every registered
codec declares ``state_fields``, the attribute names it round-trips;
the ``checkpoint-completeness`` lint rule cross-checks that each
declared field appears in both ``capture`` and ``restore``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.exceptions import CheckpointError
from repro.utils.registry import Registry

CHECKPOINTS = Registry("checkpoint codec")

#: Fragment kind for loop-local raw data (accumulated rows, cursors)
#: that is not a codec'd object; restored by reading the fragment
#: directly, never through :func:`restore_state`.
RAW_KIND = "raw"


class StateCodec:
    """Base class for registered checkpoint codecs.

    Subclasses set ``kind`` (their :data:`CHECKPOINTS` key), ``target``
    (the exact type they snapshot) and ``state_fields`` (every attribute
    name the codec round-trips — the completeness contract the lint
    rule enforces), then implement :meth:`capture` and :meth:`restore`.
    Codecs are stateless; one instance serves every object.
    """

    kind: str = ""
    target: type | None = None
    state_fields: tuple[str, ...] = ()

    def capture(self, obj: Any) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
        """Return ``(meta, arrays)`` for ``obj``'s resumable state."""
        raise NotImplementedError

    def restore(
        self, obj: Any, meta: dict[str, Any], arrays: dict[str, np.ndarray]
    ) -> None:
        """Reinstate captured state onto a compatibly constructed ``obj``."""
        raise NotImplementedError


def codec_for(obj: Any) -> StateCodec | None:
    """Resolve the registered codec targeting ``type(obj)`` exactly.

    Exact-type match (not isinstance) keeps restore honest: a subclass
    with extra state must register its own codec or the lookup misses
    and capture fails loudly.
    """
    for key in CHECKPOINTS:
        codec_cls = CHECKPOINTS.get(key)
        codec: StateCodec = codec_cls()
        if codec.target is not None and type(obj) is codec.target:
            return codec
    return None


def capture_state(obj: Any) -> dict[str, Any]:
    """Snapshot ``obj`` into a fragment dict via its registered codec.

    Raises :class:`~repro.exceptions.CheckpointError` when no codec
    targets the object's exact type — silently skipping state is how
    resumed runs diverge.
    """
    codec = codec_for(obj)
    if codec is None:
        raise CheckpointError(
            f"no checkpoint codec registered for {type(obj).__name__!r}; "
            f"known codecs: {CHECKPOINTS.names()}"
        )
    meta, arrays = codec.capture(obj)
    return {"kind": codec.kind, "meta": meta, "arrays": arrays}


def restore_state(obj: Any, fragment: dict[str, Any]) -> None:
    """Reinstate a captured fragment onto a freshly constructed ``obj``."""
    kind = fragment["kind"]
    if kind == RAW_KIND:
        raise CheckpointError(
            "raw fragments hold loop-local data, not object state; read "
            "fragment['meta'] / fragment['arrays'] directly instead of "
            "calling restore_state"
        )
    codec_cls = CHECKPOINTS.get(kind)
    codec: StateCodec = codec_cls()
    if codec.target is not None and type(obj) is not codec.target:
        raise CheckpointError(
            f"fragment kind {kind!r} targets {codec.target.__name__!r} but "
            f"got {type(obj).__name__!r}"
        )
    codec.restore(obj, fragment["meta"], fragment["arrays"])


def raw_fragment(
    meta: dict[str, Any] | None = None,
    arrays: dict[str, np.ndarray] | None = None,
) -> dict[str, Any]:
    """Build a fragment for loop-local data that is not a codec'd object.

    Accumulated result rows, replay cursors and other in-flight loop
    state ride in snapshots next to codec fragments; the owning loop
    reads them back directly on resume.
    """
    return {"kind": RAW_KIND, "meta": dict(meta or {}), "arrays": dict(arrays or {})}
