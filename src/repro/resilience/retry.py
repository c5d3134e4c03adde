"""Retry policies: bounded attempts, seeded backoff, simulated timeouts.

A :class:`RetryPolicy` is plain frozen data consumed by the federation
runtime's protocol round: how many attempts a party gets per round,
how long (in *simulated* seconds) the exchange backs off between retry
waves, how much seeded jitter decorrelates the backoffs, and the
per-attempt latency bound past which a reply counts as timed out. The
jitter draw comes from the chaos engine's pure decision streams (the
first ``random()`` of :func:`~repro.resilience.chaos.decision_rng` with
the jitter salt, read from the policy's own block draws), so two
schedulers — or a checkpoint-resumed run — compute byte-identical
backoff schedules.

:meth:`RetryPolicy.from_spec` also takes the ``int`` shorthand
(``retry=3`` means three attempts with the default backoff).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ValidationError
from repro.resilience.chaos import JITTER_SALT, DecisionBlocks
from repro.utils.knobs import Declared, Float, Int, from_spec, knob

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy(Declared):
    """How the protocol round spends attempts on a failing party.

    Attributes
    ----------
    max_attempts:
        Total attempts per party per round (1 = no retries).
    backoff_base:
        Simulated seconds slept before the first retry wave.
    backoff_factor:
        Multiplier applied per further wave (exponential backoff).
    jitter:
        Fraction of the backoff added as a seeded uniform draw in
        ``[0, jitter]`` — decorrelates per-party retry schedules
        without wall-clock entropy. ``0.0`` disables jitter.
    timeout:
        Per-attempt simulated-latency bound; a reply slower than this
        is discarded and the attempt counts as a timeout. ``None``
        waits forever (latency still accrues on the clock).
    seed:
        Seed for the jitter decision streams.
    """

    knob_owner = "retry"

    max_attempts: int = knob(Int(low=1), default=1)
    backoff_base: float = knob(Float(low=0.0), default=0.05)
    backoff_factor: float = knob(Float(low=1.0), default=2.0)
    jitter: float = knob(Float(low=0.0, high=1.0), default=0.0)
    timeout: "float | None" = knob(Float(low=0.0, low_open=True), none=True, default=None)
    seed: int = knob(Int(low=0), default=0)
    # This policy's block draws of jitter (see repro.resilience.chaos).
    _jitter_draws: DecisionBlocks = field(
        default_factory=lambda: DecisionBlocks(JITTER_SALT),
        init=False,
        repr=False,
        compare=False,
    )

    def backoff(self, party: int, round_id: int, attempt: int) -> float:
        """Simulated backoff before ``attempt`` (>= 1) at one party.

        ``base * factor**(attempt-1)``, stretched by the party's seeded
        jitter draw for this exact ``(round, attempt)`` cell — a pure
        function, like every chaos decision.
        """
        if attempt < 1:
            raise ValidationError(
                f"backoff precedes retry attempts only; attempt must be >= 1, "
                f"got {attempt}"
            )
        delay = self.backoff_base * self.backoff_factor ** (attempt - 1)
        if self.jitter > 0.0:
            draw = self._jitter_draws.uniform(self.seed, party, round_id, attempt)
            delay *= 1.0 + self.jitter * draw
        return delay

    @classmethod
    def from_spec(cls, spec: "RetryPolicy | int | dict | None") -> "RetryPolicy":
        """A valid policy from a policy, an ``int`` ``max_attempts``, a
        partial payload dict, or ``None`` (the single-attempt default)."""
        return from_spec(cls, spec, "max_attempts") or cls()
