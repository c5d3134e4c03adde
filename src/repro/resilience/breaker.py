"""Per-consumer circuit breakers for the serving layer.

A breaker sits between one consumer and the federation runtime: after
``failure_threshold`` consecutive runtime failures the breaker *opens*
and the service refuses that consumer's queries outright (a
:class:`~repro.exceptions.ServiceUnavailableError`, not a protocol
error), instead of spending protocol rounds — and communication budget —
on a coalition that keeps failing. After ``cooldown`` refused requests
the breaker goes *half-open*: exactly one probe query is allowed
through, and its outcome decides between closing (recovery) and
re-opening (another full cooldown).

Everything is counted in requests, not seconds: wall-clock backed
breakers would violate the determinism contract (the ``wallclock-entropy``
lint rule), and request counts make breaker trajectories bit-identical
across schedulers and checkpoint/resume — the breaker state is part of
the serving snapshot via :mod:`repro.resilience.state`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.knobs import Declared, Int, from_spec, knob

__all__ = ["BreakerPolicy", "CircuitBreaker"]

#: Legal breaker states (see module docstring for the transitions).
BREAKER_STATES = ("closed", "open", "half_open")


@dataclass(frozen=True)
class BreakerPolicy(Declared):
    """When a consumer's breaker opens, and how long it stays open.

    Attributes
    ----------
    failure_threshold:
        Consecutive runtime failures that open the breaker.
    cooldown:
        Refused requests the breaker absorbs while open before allowing
        one half-open probe.
    """

    knob_owner = "breaker"

    failure_threshold: int = knob(Int(low=1), default=3)
    cooldown: int = knob(Int(low=1), default=8)

    @classmethod
    def from_spec(cls, spec: "BreakerPolicy | int | dict | None") -> "BreakerPolicy | None":
        """A valid policy from a policy, an ``int`` ``failure_threshold``
        or a partial payload dict; ``None`` disables breakers (the default:
        serving behaves exactly as before this layer existed)."""
        return from_spec(cls, spec, "failure_threshold")


class CircuitBreaker:
    """One consumer's breaker: closed → open → half-open → closed/open.

    Driven by exactly three events — ``allow`` (a request arrives),
    ``record_success``, ``record_failure`` — all pure state-machine
    transitions over integer counters, so replaying the same request
    sequence reproduces the same refusals byte-for-byte.
    """

    def __init__(self, policy: BreakerPolicy) -> None:
        policy.validate()
        self.policy = policy
        self.state = "closed"
        self.failures = 0
        self.cooldown_left = 0

    def allow(self) -> bool:
        """Gate one incoming request; ``False`` means refuse it.

        While open, each refused request burns one cooldown unit; the
        request that finds the cooldown exhausted transitions to
        half-open and is allowed through as the probe.
        """
        if self.state == "closed" or self.state == "half_open":
            return True
        self.cooldown_left -= 1
        if self.cooldown_left <= 0:
            self.state = "half_open"
            return True
        return False

    def record_success(self) -> None:
        """An allowed request completed: close and reset the failure run."""
        self.state = "closed"
        self.failures = 0
        self.cooldown_left = 0

    def record_failure(self) -> None:
        """An allowed request failed against the runtime.

        A half-open probe failing re-opens immediately; in the closed
        state the breaker opens once the consecutive-failure run reaches
        the policy threshold.
        """
        self.failures += 1
        if self.state == "half_open" or self.failures >= self.policy.failure_threshold:
            self.state = "open"
            self.cooldown_left = self.policy.cooldown

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"CircuitBreaker(state={self.state!r}, failures={self.failures}, "
            f"cooldown_left={self.cooldown_left})"
        )
