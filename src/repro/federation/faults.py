"""Fault injection for federation protocol rounds.

Real multi-party deployments lose parties and wait on stragglers; the
in-process simulation can now express both — plus the *stochastic*
storm kinds the resilience layer retries against. A :class:`FaultPlan`
is built from ``(kind, params)`` specs — the same shape as defense
specs, so scenario configs serialize them — and handed to the
:class:`~repro.federation.runtime.FederationRuntime`, whose party nodes
consult it at response time:

``("drop", {"party": p})``
    Party ``p`` never answers; the round fails with
    :class:`~repro.exceptions.PartyUnavailableError` naming the party
    and round (or degrades, under a quorum policy).
``("straggler", {"party": p, "delay": seconds})``
    Party ``p`` sleeps before responding. Under the threaded scheduler
    the other parties proceed concurrently and the deterministic round
    barrier still merges replies in party order, so a straggler costs
    wall-clock time but never changes bytes or results.
``("flaky", {"party": p, "p": prob, "seed": s})``
    Each attempt by party ``p`` fails independently with probability
    ``prob``; a retry may succeed. Decisions come from the chaos
    engine's pure per-cell streams, so they are scheduler-independent.
``("crash_after", {"party": p, "round": r})``
    Party ``p`` answers rounds ``0..r-1`` then permanently crashes —
    retrying is pointless and the protocol round knows it.
``("corrupt", {"party": p, "p": prob, "seed": s})``
    With probability ``prob`` the reply frame is bit-flipped in flight;
    the wire codec's crc32 catches it and the attempt counts as failed.
``("timeout", {"party": p, "delay": seconds, "p": prob, "seed": s})``
    With probability ``prob`` (default 1) the reply takes ``delay``
    *simulated* seconds; against a retry policy's per-attempt timeout
    that becomes a metered timeout failure.

Unknown kinds fail with an error listing the registered choices, and a
party may carry at most one spec — two specs for the same party would
silently shadow each other, so :meth:`FaultPlan.from_specs` rejects the
duplicate naming both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import ValidationError
from repro.resilience.chaos import (
    FAULT_SALT,
    OK,
    DecisionBlocks,
    FaultOutcome,
    decision_rng,
)
from repro.utils.knobs import Float, Int, Shape
from repro.utils.validation import check_in_range

__all__ = ["FAULT_KINDS", "FaultPlan"]

#: Registered fault kinds and the params each spec accepts.
FAULT_KINDS = ("drop", "straggler", "flaky", "crash_after", "corrupt", "timeout")

#: Kinds whose per-attempt behaviour the chaos engine decides.
STOCHASTIC_KINDS = ("flaky", "crash_after", "corrupt", "timeout")


#: Shapes of the fault params; a range with a message of its own is
#: checked where its param is read.
_INT, _NUMBER, _PROBABILITY, _SEED = Int(), Float(), Float(low=0, high=1), Int(low=0)


def _param(params: dict, kind: str, name: str, shape: Shape, default: Any = None) -> Any:
    """``params[name]`` (else ``default``), refused unless it fits ``shape``."""
    value = params.get(name, default)
    tail = shape.problem(value)
    if tail is not None:
        raise ValidationError(f"fault {kind!r} {name} must be {shape.expected()}, got {tail}")
    return value


def _check_probability(params: dict, kind: str, default: "float | None" = None) -> float:
    if "p" not in params and default is None:
        raise ValidationError(f"fault spec {kind!r} needs a probability 'p'")
    return float(_param(params, kind, "p", _PROBABILITY, default))


def _check_seed(params: dict, kind: str) -> int:
    return _param(params, kind, "seed", _SEED, 0)


@dataclass(frozen=True)
class FaultPlan:
    """Resolved fault injection: drops, stragglers, and stochastic storms.

    Attributes
    ----------
    dropped:
        Parties that never answer (deterministic, permanent).
    delays:
        Per-party straggler sleep in wall-clock seconds.
    stochastic:
        Per-party ``(kind, normalized_params)`` for the chaos-driven
        kinds; :meth:`outcome` turns an entry into the
        :class:`~repro.resilience.FaultOutcome` for one attempt.
    """

    dropped: frozenset = frozenset()
    delays: dict = field(default_factory=dict)
    stochastic: dict = field(default_factory=dict)
    # This plan's block draws (see repro.resilience.chaos): a fresh
    # plan per scenario, so no two scenarios share a draw.
    _draws: DecisionBlocks = field(
        default_factory=lambda: DecisionBlocks(FAULT_SALT),
        init=False,
        repr=False,
        compare=False,
    )

    @classmethod
    def from_specs(cls, specs) -> "FaultPlan":
        """Build a plan from ``(kind, params)`` spec pairs.

        Every kind needs at least a ``party`` parameter, so — unlike
        defense specs — there is no bare-kind shorthand. Each party may
        carry at most one spec; a duplicate is rejected naming both
        specs rather than silently overwriting the first.
        """
        dropped: set[int] = set()
        delays: dict[int, float] = {}
        stochastic: dict[int, tuple[str, dict]] = {}
        claimed: dict[int, tuple] = {}
        for spec in specs:
            if isinstance(spec, (tuple, list)) and len(spec) == 2:
                kind, params = spec[0], dict(spec[1])
            else:
                raise ValidationError(
                    f"fault spec {spec!r} must be a (kind, params) pair, "
                    f"e.g. ('drop', {{'party': 2}})"
                )
            if kind not in FAULT_KINDS:
                raise ValidationError(
                    f"unknown fault kind {kind!r}; choose from {list(FAULT_KINDS)}"
                )
            if "party" not in params:
                raise ValidationError(
                    f"fault spec {kind!r} needs a 'party' id to inject into"
                )
            party = _param(params, kind, "party", _INT)
            if party in claimed:
                raise ValidationError(
                    f"party {party} already carries fault spec "
                    f"{claimed[party]!r}; duplicate spec {(kind, params)!r} "
                    "would silently shadow it — give each party one fault"
                )
            claimed[party] = (kind, params)
            if kind == "drop":
                dropped.add(party)
            elif kind == "straggler":
                delay = check_in_range(
                    float(_param(params, kind, "delay", _NUMBER, 0.001)),
                    name="straggler delay",
                    low=0.0,
                )
                delays[party] = delay
            elif kind == "flaky":
                stochastic[party] = (
                    "flaky",
                    {"p": _check_probability(params, kind),
                     "seed": _check_seed(params, kind)},
                )
            elif kind == "crash_after":
                if "round" not in params:
                    raise ValidationError(
                        "fault spec 'crash_after' needs the 'round' the party "
                        "crashes at"
                    )
                round_at = _param(params, kind, "round", _INT)
                if round_at < 0:
                    raise ValidationError(
                        f"crash_after round must be >= 0, got {round_at}"
                    )
                stochastic[party] = ("crash_after", {"round": round_at})
            elif kind == "corrupt":
                stochastic[party] = (
                    "corrupt",
                    {"p": _check_probability(params, kind),
                     "seed": _check_seed(params, kind)},
                )
            else:  # timeout
                delay = float(_param(params, kind, "delay", _NUMBER, 0.0))
                if delay <= 0.0:
                    raise ValidationError(
                        "fault spec 'timeout' needs a positive simulated "
                        f"'delay' in seconds, got {delay}"
                    )
                stochastic[party] = (
                    "timeout",
                    {"p": _check_probability(params, kind, default=1.0),
                     "delay": delay,
                     "seed": _check_seed(params, kind)},
                )
        return cls(dropped=frozenset(dropped), delays=delays, stochastic=stochastic)

    @property
    def is_noop(self) -> bool:
        """True when the plan injects nothing."""
        return not self.dropped and not self.delays and not self.stochastic

    @property
    def has_stochastic(self) -> bool:
        """True when any party carries a chaos-driven fault kind."""
        return bool(self.stochastic)

    def outcome(self, party: int, round_id: int, attempt: int) -> FaultOutcome:
        """The chaos decision for one ``(party, round, attempt)`` cell.

        Pure in its arguments (see :mod:`repro.resilience.chaos`): the
        runtime evaluates it once per cell and hands the result to the
        party node, and an offline auditor can recompute an entire storm
        analytically — which is exactly what
        ``test_storm_replays_analytically`` in ``tests/test_resilience.py``
        checks.

        The threshold draw is the first ``random()`` of
        :func:`~repro.resilience.chaos.decision_rng` for the cell, read
        from this plan's block draws; only a firing ``corrupt`` builds
        the generator, for the token that follows that draw.
        """
        if party in self.dropped:
            return FaultOutcome(kind="drop")
        entry = self.stochastic.get(party)
        if entry is None:
            return OK
        kind, params = entry
        if kind == "crash_after":
            return FaultOutcome(kind="crash") if round_id >= params["round"] else OK
        if self._draws.uniform(params["seed"], party, round_id, attempt) >= params["p"]:
            return OK
        if kind == "flaky":
            return FaultOutcome(kind="flaky")
        if kind == "corrupt":
            rng = decision_rng(params["seed"], party, round_id, attempt)
            rng.random()  # the threshold draw above
            return FaultOutcome(kind="corrupt", token=int(rng.integers(0, 2**63 - 1)))
        # timeout: the reply arrives, just late; whether late is *too*
        # late belongs to the retry policy, so the outcome only carries
        # the latency.
        return FaultOutcome(kind="timeout", latency=params["delay"])

    def validate_parties(self, n_parties: int) -> None:
        """Check every referenced party id names a *passive* party.

        Party 0 initiates rounds, so dropping or delaying it is a
        mis-specification, not a simulable fault.
        """
        for party in sorted({*self.dropped, *self.delays, *self.stochastic}):
            if party == 0:
                raise ValidationError(
                    "cannot inject faults into party 0: the active party "
                    "initiates every protocol round"
                )
            if not 0 < party < n_parties:
                raise ValidationError(
                    f"fault references party {party}, but the topology has "
                    f"parties 0..{n_parties - 1}"
                )
