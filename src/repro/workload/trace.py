"""Deterministic traffic traces: who queries what, when.

A :class:`TrafficTrace` is a structure-of-arrays request log — arrival
``times``, per-event consumer, and a flat sample-id array sliced by
``offsets`` — so a million-event trace is a handful of numpy arrays, not
a million Python objects. Traces are built by :func:`make_trace` from a
single integer seed via the repo-wide :func:`~repro.utils.random.spawn_rngs`
prefix scheme (one child stream each for arrival times, consumer
assignment, and sample picks), merged deterministically by arrival time
(:meth:`TrafficTrace.merge`, stable on ties), and replayed through
:class:`~repro.workload.sharded.ShardedPredictionService`.

The needle-in-traffic construction the ``traffic`` experiment uses is
exactly ``benign.merge(attacker)``: a broad benign trace from
:func:`make_trace` with an attacker's accumulation trace
(:func:`attacker_trace`) interleaved at its own arrival instants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.random import spawn_rngs
from repro.utils.validation import check_positive_int
from repro.workload.arrivals import ARRIVALS

__all__ = ["TrafficTrace", "make_trace", "attacker_trace"]


@dataclass(frozen=True)
class TrafficTrace:
    """An immutable request log in structure-of-arrays form.

    Attributes
    ----------
    times:
        ``(n_events,)`` float64 arrival instants, ascending.
    consumer_ids:
        ``(n_events,)`` int64 indices into :attr:`names`.
    names:
        Distinct consumer names; index is the id used above.
    sample_ids:
        Flat int64 array of every requested sample id; event ``i``
        requests ``sample_ids[offsets[i]:offsets[i+1]]``.
    offsets:
        ``(n_events + 1,)`` int64 prefix offsets into ``sample_ids``.
    """

    times: np.ndarray
    consumer_ids: np.ndarray
    names: tuple[str, ...]
    sample_ids: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        n = self.times.shape[0]
        if self.consumer_ids.shape[0] != n or self.offsets.shape[0] != n + 1:
            raise ValidationError(
                "trace arrays disagree on the event count: "
                f"{n} times, {self.consumer_ids.shape[0]} consumer ids, "
                f"{self.offsets.shape[0]} offsets (need event count + 1)"
            )
        if n and np.any(self.times[1:] < self.times[:-1]):
            raise ValidationError("trace times must be sorted ascending")
        if self.offsets[0] != 0 or self.offsets[-1] != self.sample_ids.shape[0]:
            raise ValidationError(
                "offsets must span the flat sample array exactly"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_events(self) -> int:
        """Requests in the trace (one event = one ``query()`` call)."""
        return int(self.times.shape[0])

    @property
    def n_queries(self) -> int:
        """Individual sample predictions requested, across all events."""
        return int(self.sample_ids.shape[0])

    @property
    def n_consumers(self) -> int:
        """Distinct consumers that actually appear in the trace."""
        return int(np.unique(self.consumer_ids).shape[0])

    @property
    def horizon(self) -> float:
        """Last arrival instant (0.0 for an empty trace)."""
        return float(self.times[-1]) if self.n_events else 0.0

    def event(self, i: int) -> tuple[float, str, np.ndarray]:
        """One event as ``(time, consumer_name, sample_ids)``."""
        return (
            float(self.times[i]),
            self.names[self.consumer_ids[i]],
            self.sample_ids[self.offsets[i] : self.offsets[i + 1]],
        )

    def __iter__(self) -> Iterator[tuple[float, str, np.ndarray]]:
        return (self.event(i) for i in range(self.n_events))

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready shape summary (reports embed this, never the arrays)."""
        return {
            "n_events": self.n_events,
            "n_queries": self.n_queries,
            "n_consumers": self.n_consumers,
            "horizon": self.horizon,
        }

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def merge(self, other: "TrafficTrace") -> "TrafficTrace":
        """Interleave two traces by arrival time, stably (self wins ties).

        Consumer names are unioned; a name appearing in both traces keeps
        one id, so its events from either side charge the same ledger
        entry.
        """
        name_index = {name: i for i, name in enumerate(self.names)}
        remap = np.empty(len(other.names), dtype=np.int64)
        names = list(self.names)
        for i, name in enumerate(other.names):
            at = name_index.get(name)
            if at is None:
                at = name_index[name] = len(names)
                names.append(name)
            remap[i] = at
        times = np.concatenate([self.times, other.times])
        order = np.argsort(times, kind="stable")
        consumer_ids = np.concatenate(
            [self.consumer_ids, remap[other.consumer_ids]]
        )[order]
        sizes = np.concatenate(
            [np.diff(self.offsets), np.diff(other.offsets)]
        )[order]
        offsets = np.zeros(order.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        starts = np.concatenate(
            [self.offsets[:-1], self.offsets[-1] + other.offsets[:-1]]
        )[order]
        flat = np.concatenate([self.sample_ids, other.sample_ids])
        # Gather every event's block in one shot: global position p inside
        # event i maps to flat[starts[i] + (p - offsets[i])].
        gather = np.repeat(starts - offsets[:-1], sizes) + np.arange(
            offsets[-1], dtype=np.int64
        )
        sample_ids = flat[gather]
        return TrafficTrace(
            times=times[order],
            consumer_ids=consumer_ids,
            names=tuple(names),
            sample_ids=sample_ids,
            offsets=offsets,
        )


def make_trace(
    n_consumers: int,
    n_events: int,
    *,
    n_samples: int,
    horizon: float = 1.0,
    process: str = "poisson",
    process_params: "dict[str, Any] | None" = None,
    batch_size: int = 1,
    seed: int = 0,
    prefix: str = "client",
) -> TrafficTrace:
    """Generate a benign multi-tenant trace from one integer seed.

    Parameters
    ----------
    n_consumers, n_events:
        Named tenants and request events. With ``n_events >=
        n_consumers`` every tenant appears at least once (the first
        ``n_consumers`` assignments are a permutation, the surplus
        uniform); with fewer events, the appearing tenants are a random
        distinct subset.
    n_samples:
        Size of the deployment's prediction pool; sample ids are drawn
        uniformly from ``[0, n_samples)``.
    horizon, process, process_params:
        Arrival shape — an :data:`~repro.workload.arrivals.ARRIVALS`
        key plus its parameters, over ``[0, horizon)``.
    batch_size:
        Samples per request event.
    seed:
        Master seed; three child streams (times, consumers, samples)
        are spawned via the repo's prefix scheme, so extending the
        league of processes never perturbs consumer assignment.
    prefix:
        Consumer names are ``f"{prefix}-{i}"``.
    """
    check_positive_int(n_consumers, name="n_consumers")
    check_positive_int(n_events, name="n_events")
    check_positive_int(n_samples, name="n_samples")
    check_positive_int(batch_size, name="batch_size")
    time_rng, consumer_rng, sample_rng = spawn_rngs(seed, 3)
    times = ARRIVALS.create(
        process, time_rng, n_events, horizon, **dict(process_params or {})
    )
    if n_events >= n_consumers:
        assignment = np.concatenate(
            [
                consumer_rng.permutation(n_consumers),
                consumer_rng.integers(
                    0, n_consumers, size=n_events - n_consumers
                ),
            ]
        )
        consumer_ids = consumer_rng.permutation(assignment)
    else:
        consumer_ids = consumer_rng.permutation(n_consumers)[:n_events]
    sample_ids = sample_rng.integers(
        0, n_samples, size=n_events * batch_size, dtype=np.int64
    )
    offsets = np.arange(n_events + 1, dtype=np.int64) * batch_size
    return TrafficTrace(
        times=times,
        consumer_ids=consumer_ids.astype(np.int64, copy=False),
        names=tuple(f"{prefix}-{i}" for i in range(n_consumers)),
        sample_ids=sample_ids,
        offsets=offsets,
    )


def attacker_trace(
    consumer: str,
    pool: np.ndarray,
    *,
    repeats: int = 1,
    batch_size: "int | None" = None,
    horizon: float = 1.0,
    process: str = "poisson",
    process_params: "dict[str, Any] | None" = None,
    seed: int = 0,
) -> TrafficTrace:
    """The adversary's accumulation as a trace: one consumer, one pool.

    The attacker queries its prediction pool ``repeats`` times over the
    horizon (re-querying is how an adversary averages out a per-query
    noise defense — and exactly the duplicate signature ``query_audit``
    scores), split into ``batch_size``-sized request events whose
    arrival instants follow the chosen process. Merge the result into a
    benign trace with :meth:`TrafficTrace.merge` to pose the
    needle-in-traffic question.
    """
    check_positive_int(repeats, name="repeats")
    pool = np.asarray(pool, dtype=np.int64).ravel()
    if pool.size == 0:
        raise ValidationError("attacker pool must name at least one sample")
    sample_ids = np.tile(pool, repeats)
    step = sample_ids.size if batch_size is None else int(batch_size)
    check_positive_int(step, name="batch_size")
    bounds = np.arange(0, sample_ids.size + step, step, dtype=np.int64)
    bounds[-1] = sample_ids.size
    offsets = np.unique(bounds)
    n_events = offsets.size - 1
    time_rng = spawn_rngs(seed, 1)[0]
    times = ARRIVALS.create(
        process, time_rng, n_events, horizon, **dict(process_params or {})
    )
    return TrafficTrace(
        times=times,
        consumer_ids=np.zeros(n_events, dtype=np.int64),
        names=(consumer,),
        sample_ids=sample_ids,
        offsets=offsets,
    )
