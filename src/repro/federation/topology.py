"""Declarative party topologies for scenario configs.

The paper evaluates a two-block world — the adversary coalition versus
one target — and :class:`TopologyConfig`'s defaults reproduce exactly
that (bit-identically, including the partition's random stream). The
knobs open the N-party axis: how many parties, which passive parties
collude with the active one, how the feature columns are apportioned
(``"uniform"`` equal-width or ``"dirichlet"`` skewed — see
:data:`repro.federated.partition.PARTITION_STRATEGIES`), and which
faults to inject into protocol rounds. A topology is plain data and JSON
round-trips inside :class:`~repro.api.ScenarioConfig` payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import ValidationError
from repro.federated.partition import PARTITION_STRATEGIES
from repro.federation.faults import FaultPlan
from repro.utils.validation import is_int

__all__ = ["TopologyConfig"]


def _encode_fault_spec(spec) -> list:
    """JSON shape of one fault spec; rejects what FaultPlan would reject.

    Faults have no bare-kind shorthand (every kind needs a party), so
    the payload always carries ``[kind, params]`` pairs — the wire shape
    and the validation surface agree.
    """
    if isinstance(spec, (tuple, list)) and len(spec) == 2:
        return [spec[0], dict(spec[1])]
    raise ValidationError(
        f"fault spec {spec!r} must be a (kind, params) pair, "
        f"e.g. ('drop', {{'party': 2}})"
    )


@dataclass
class TopologyConfig:
    """How parties, columns, colluders, and faults are laid out.

    Attributes
    ----------
    n_parties:
        Total party count ``m`` (party 0 is always the active party).
    colluders:
        Passive party ids conspiring with the active party; their columns
        join the adversary view. At least one passive party must remain
        outside the coalition (the attack target).
    partition:
        Column-apportionment strategy key (``"uniform"``/``"dirichlet"``).
    partition_params:
        Extra strategy parameters (e.g. ``{"alpha": 0.3}`` for a more
        skewed Dirichlet draw).
    faults:
        Fault specs, same shape as defense specs: ``("drop", {"party":
        2})`` or ``("straggler", {"party": 1, "delay": 0.001})``.
    """

    n_parties: int = 2
    colluders: tuple = ()
    partition: str = "uniform"
    partition_params: dict = field(default_factory=dict)
    faults: tuple = ()

    @property
    def is_default_partition(self) -> bool:
        """True when the column layout is the paper's two-block draw.

        Faults are deliberately excluded: a straggling party changes
        round timing, never the partition.
        """
        return (
            self.n_parties == 2
            and not self.colluders
            and self.partition == "uniform"
            and not self.partition_params
        )

    @property
    def is_default(self) -> bool:
        """True for the paper's two-block setting with nothing injected."""
        return self.is_default_partition and not self.faults

    def validate(self) -> None:
        """Reject malformed topologies with choice-listing messages."""
        if not isinstance(self.n_parties, int) or self.n_parties < 2:
            raise ValidationError(
                f"topology needs at least 2 parties, got {self.n_parties!r}"
            )
        seen = set()
        for party in self.colluders:
            if not isinstance(party, int) or not 0 < party < self.n_parties:
                raise ValidationError(
                    f"colluder id {party!r} must be a passive party id in "
                    f"[1, {self.n_parties})"
                )
            if party in seen:
                raise ValidationError(f"colluder id {party} listed twice")
            seen.add(party)
        if len(seen) >= self.n_parties - 1:
            raise ValidationError(
                "the coalition covers every passive party; no attack target left"
            )
        if not isinstance(self.partition, str) or self.partition not in PARTITION_STRATEGIES:
            raise ValidationError(
                f"unknown partition strategy {self.partition!r}; choose from "
                f"{sorted(PARTITION_STRATEGIES)}"
            )
        self.fault_plan().validate_parties(self.n_parties)

    def fault_plan(self) -> FaultPlan:
        """Resolve the fault specs into a :class:`FaultPlan`."""
        return FaultPlan.from_specs(self.faults)

    # ------------------------------------------------------------------
    # Persistence (JSON round-trip inside ScenarioConfig payloads)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict[str, Any]:
        """JSON-ready dict mirroring the field layout."""
        return {
            "n_parties": self.n_parties,
            "colluders": list(self.colluders),
            "partition": self.partition,
            "partition_params": dict(self.partition_params),
            "faults": [_encode_fault_spec(spec) for spec in self.faults],
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "TopologyConfig":
        """Rebuild from :meth:`to_payload` output (lists back to tuples).

        Every field must be present in its JSON shape (a tuple stands for
        a list): ``n_parties`` an int, ``colluders`` a list of ints,
        ``partition`` a string, ``partition_params`` an object and
        ``faults`` a list of ``[kind, params]`` pairs. Anything else raises
        :class:`~repro.exceptions.ValidationError` naming the field;
        whether the values make a valid topology is :meth:`validate`'s.
        """
        if not isinstance(payload, dict):
            raise ValidationError(
                f"topology payload must be a JSON object, got {type(payload).__name__}"
            )
        missing = [name for name in _PAYLOAD_SHAPES if name not in payload]
        if missing:
            raise ValidationError(f"topology payload is missing field(s) {missing}")
        for name, (expected, ok) in _PAYLOAD_SHAPES.items():
            if not ok(payload[name]):
                raise ValidationError(
                    f"topology field {name!r} must be {expected}, got {payload[name]!r}"
                )
        return cls(
            n_parties=payload["n_parties"],
            colluders=tuple(payload["colluders"]),
            partition=payload["partition"],
            partition_params=dict(payload["partition_params"]),
            faults=tuple((kind, dict(params)) for kind, params in payload["faults"]),
        )


def _is_fault_pair(spec) -> bool:
    return (
        isinstance(spec, (list, tuple))
        and len(spec) == 2
        and isinstance(spec[0], str)
        and isinstance(spec[1], dict)
    )


#: :meth:`TopologyConfig.from_payload`'s field shapes: what each must be,
#: and the check.
_PAYLOAD_SHAPES = {
    "n_parties": ("an int", is_int),
    "colluders": (
        "a list of ints",
        lambda value: isinstance(value, (list, tuple)) and all(map(is_int, value)),
    ),
    "partition": ("a string", lambda value: isinstance(value, str)),
    "partition_params": ("an object", lambda value: isinstance(value, dict)),
    "faults": (
        "a list of [kind, params] pairs",
        lambda value: isinstance(value, (list, tuple)) and all(map(_is_fault_pair, value)),
    ),
}
