"""Simulated time for fault storms: latency as arithmetic, not sleep.

A storm scenario must be able to model timeouts, backoff delays, and
straggling replies without costing wall-clock time or reading wall-clock
sources (the ``wallclock-entropy`` lint rule confines those to the
timing tier). :class:`SimClock` is the whole answer: a monotone float
counter the protocol round advances by the *declared* latency of
each wave — the slowest surviving reply, plus any backoff between retry
attempts. Because advancing is pure arithmetic over deterministic
inputs, the clock reading after any round is bit-identical across
schedulers and survives checkpoint/resume exactly.
"""

from __future__ import annotations

from repro.exceptions import ValidationError

__all__ = ["SimClock"]


class SimClock:
    """A monotone simulated clock (seconds as a float counter)."""

    def __init__(self, now: float = 0.0) -> None:
        if now < 0.0:
            raise ValidationError(f"simulated time must be >= 0, got {now}")
        self._now = float(now)

    @property
    def now(self) -> float:
        """Current simulated time in seconds since the run started."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds``; returns the new reading."""
        seconds = float(seconds)
        if seconds < 0.0:
            raise ValidationError(
                f"simulated time only moves forward; cannot advance by {seconds}"
            )
        self._now += seconds
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"SimClock(now={self._now:.6f})"
