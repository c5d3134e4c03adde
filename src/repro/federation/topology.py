"""Declarative party topologies for scenario configs.

The paper evaluates a two-block world — the adversary coalition versus
one target — and :class:`TopologyConfig`'s defaults reproduce exactly
that (bit-identically, including the partition's random stream). The
knobs open the N-party axis: how many parties, which passive parties
collude with the active one, how the feature columns are apportioned
(``"uniform"`` equal-width or ``"dirichlet"`` skewed — see
:data:`repro.federated.partition.PARTITION_STRATEGIES`), and which
faults to inject into protocol rounds. A topology is plain data, each
field declared once for the generic codec of :mod:`repro.utils.knobs`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ValidationError
from repro.federated.partition import PARTITION_STRATEGIES
from repro.federation.faults import FAULT_KINDS, FaultPlan
from repro.utils.knobs import OBJECT, Declared, Int, Pair, Seq, Str, knob

__all__ = ["TopologyConfig"]


@dataclass
class TopologyConfig(Declared):
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

    knob_owner = "topology"

    n_parties: int = knob(Int(low=2), default=2)
    # Colluder ids are bounded by n_parties: validate checks the range.
    colluders: tuple = knob(Seq(Int()), default=())
    partition: str = knob(Str(PARTITION_STRATEGIES, "partition strategy"), default="uniform")
    partition_params: dict = knob(OBJECT, factory=dict)
    faults: tuple = knob(Seq(Pair(Str(FAULT_KINDS, "fault kind"), OBJECT)), default=())

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
        """Refuse a malformed field, then an inconsistent topology."""
        super().validate()
        seen = set()
        for party in self.colluders:
            if not 0 < party < self.n_parties:
                raise ValidationError(
                    f"colluder id {party!r} must be a passive party id in "
                    f"[1, {self.n_parties})"
                )
            if party in seen:
                raise ValidationError(f"colluder id {party} listed twice")
            seen.add(party)
        if len(seen) >= self.n_parties - 1:
            raise ValidationError(
                f"colluders {sorted(seen)} cover every passive party; no attack "
                "target left"
            )
        self.fault_plan().validate_parties(self.n_parties)

    def fault_plan(self) -> FaultPlan:
        """Resolve the fault specs into a :class:`FaultPlan`."""
        return FaultPlan.from_specs(self.faults)
