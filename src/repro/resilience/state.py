"""Checkpoint codecs for resilience state: clock, availability, breakers.

Registered in :data:`repro.checkpoint.CHECKPOINTS` on resilience-package
import, mirroring :mod:`repro.serving.state` one layer down. A SIGKILL
mid-storm must resume bit-identically: the simulated clock reading, the
record of already-degraded rounds, the per-party reply cache feeding the
``last_known`` strategy, and every consumer's breaker trajectory are all
part of that contract, so they all ride in snapshots.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.checkpoint.codec import CHECKPOINTS, StateCodec
from repro.exceptions import CheckpointError
from repro.resilience.breaker import BREAKER_STATES, BreakerPolicy, CircuitBreaker
from repro.resilience.clock import SimClock
from repro.resilience.degrade import ReplyCache

__all__ = ["CircuitBreakerCodec", "ResilienceState", "ResilienceStateCodec"]


class ResilienceState:
    """The mutable companion of a runtime's protocol rounds.

    Attributes
    ----------
    clock:
        The run's :class:`SimClock`; backoffs and reply latencies accrue
        here instead of costing wall time.
    availability:
        One entry per *degraded* round:
        ``{"round", "missing", "attempts", "strategy"}`` in round order
        — the raw record behind
        :meth:`~repro.federation.FederationRuntime.availability_report`.
    cache:
        The bounded per-party :class:`ReplyCache` the ``last_known``
        degradation strategy reads from.
    """

    def __init__(self) -> None:
        self.clock = SimClock()
        self.availability: list[dict[str, Any]] = []
        self.cache = ReplyCache()


@CHECKPOINTS.register("resilience/runtime")
class ResilienceStateCodec(StateCodec):
    """Snapshot a :class:`ResilienceState`: clock, degradations, cache."""

    kind = "resilience/runtime"
    target = ResilienceState
    state_fields = ("clock", "availability", "cache")

    def capture(self, obj: Any) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
        meta = {
            "sim_seconds": obj.clock.now,
            "availability": [dict(entry) for entry in obj.availability],
            "cached_parties": obj.cache.parties(),
        }
        arrays = {
            f"party{party}": obj.cache.get(party) for party in obj.cache.parties()
        }
        return meta, arrays

    def restore(
        self, obj: Any, meta: dict[str, Any], arrays: dict[str, np.ndarray]
    ) -> None:
        obj.clock = SimClock(float(meta["sim_seconds"]))
        obj.availability = [dict(entry) for entry in meta["availability"]]
        obj.cache = ReplyCache()
        for party in meta["cached_parties"]:
            obj.cache.put(int(party), arrays[f"party{party}"])


@CHECKPOINTS.register("resilience/breaker")
class CircuitBreakerCodec(StateCodec):
    """Snapshot a :class:`CircuitBreaker`: policy plus machine counters."""

    kind = "resilience/breaker"
    target = CircuitBreaker
    state_fields = ("policy", "state", "failures", "cooldown_left")

    def capture(self, obj: Any) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
        meta = {
            "policy": obj.policy.to_payload(),
            "state": obj.state,
            "failures": obj.failures,
            "cooldown_left": obj.cooldown_left,
        }
        return meta, {}

    def restore(
        self, obj: Any, meta: dict[str, Any], arrays: dict[str, np.ndarray]
    ) -> None:
        if meta["state"] not in BREAKER_STATES:
            raise CheckpointError(
                f"snapshot declares breaker state {meta['state']!r}; legal "
                f"states are {BREAKER_STATES}"
            )
        obj.policy = BreakerPolicy.from_payload(meta["policy"])
        obj.state = str(meta["state"])
        obj.failures = int(meta["failures"])
        obj.cooldown_left = int(meta["cooldown_left"])
